// Standard-cell primitive types and their evaluation functions.
//
// The library models a small 180 nm-class standard-cell kit (the paper uses
// the Cadence GSCLib 0.18 um library): basic combinational cells of 1-4
// inputs, a 2:1 mux, a scan D flip-flop, clock buffers and tie cells.
// Each value domain has one evaluation kernel:
//   - two-valued, bit-parallel over W 64-bit words (eval_cell: BatchSim's
//     sweep, the fault simulator's cone walk, and the event simulator's
//     truth tables, one eval_cell<1> call per cell type)
//   - 3-valued "possible set" logic, one or two lanes per byte (V3Lanes:
//     PODEM implication, dataflow X-propagation)
// tests/cell_type_test.cpp checks both against the independent
// ref::ref_eval_cell on every input combination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

namespace scap {

enum class CellType : std::uint8_t {
  kTie0,
  kTie1,
  kBuf,
  kInv,
  kAnd2,
  kAnd3,
  kAnd4,
  kNand2,
  kNand3,
  kNand4,
  kOr2,
  kOr3,
  kOr4,
  kNor2,
  kNor3,
  kNor4,
  kXor2,
  kXnor2,
  kMux2,  // inputs: [S, A, B]; output = S ? B : A
  kDff,   // sequential; not evaluated combinationally
  kClkBuf,
};

inline constexpr std::size_t kNumCellTypes =
    static_cast<std::size_t>(CellType::kClkBuf) + 1;

/// Number of logic inputs a cell of this type requires.
constexpr int num_inputs(CellType t) {
  switch (t) {
    case CellType::kTie0:
    case CellType::kTie1:
      return 0;
    case CellType::kBuf:
    case CellType::kInv:
    case CellType::kClkBuf:
      return 1;
    case CellType::kAnd2:
    case CellType::kNand2:
    case CellType::kOr2:
    case CellType::kNor2:
    case CellType::kXor2:
    case CellType::kXnor2:
      return 2;
    case CellType::kAnd3:
    case CellType::kNand3:
    case CellType::kOr3:
    case CellType::kNor3:
    case CellType::kMux2:
      return 3;
    case CellType::kAnd4:
    case CellType::kNand4:
    case CellType::kOr4:
    case CellType::kNor4:
      return 4;
    case CellType::kDff:
      return 1;  // D pin; clock is tracked separately
  }
  return 0;
}

constexpr bool is_combinational(CellType t) {
  return t != CellType::kDff && t != CellType::kClkBuf;
}

/// Largest input count across the cell kit, derived from num_inputs() so a
/// future wider cell automatically widens every fixed evaluation buffer
/// (e.g. the event simulator's input scratch) instead of overflowing it.
constexpr std::size_t max_cell_inputs() {
  std::size_t m = 0;
  for (std::size_t i = 0; i < kNumCellTypes; ++i) {
    const auto n =
        static_cast<std::size_t>(num_inputs(static_cast<CellType>(i)));
    if (n > m) m = n;
  }
  return m;
}
inline constexpr std::size_t kMaxGateInputs = max_cell_inputs();

/// AND-like / OR-like classification used by PODEM backtrace.
enum class GateClass : std::uint8_t { kAndLike, kOrLike, kXorLike, kMux, kBufLike, kTie };

constexpr GateClass gate_class(CellType t) {
  switch (t) {
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4:
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
      return GateClass::kAndLike;
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4:
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4:
      return GateClass::kOrLike;
    case CellType::kXor2:
    case CellType::kXnor2:
      return GateClass::kXorLike;
    case CellType::kMux2:
      return GateClass::kMux;
    case CellType::kTie0:
    case CellType::kTie1:
      return GateClass::kTie;
    default:
      return GateClass::kBufLike;
  }
}

/// True if the cell output inverts its defining function (NAND/NOR/XNOR/INV).
constexpr bool is_inverting(CellType t) {
  switch (t) {
    case CellType::kInv:
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4:
    case CellType::kXnor2:
      return true;
    default:
      return false;
  }
}

/// Controlling input value for AND-like (0) / OR-like (1) gates; -1 otherwise.
constexpr int controlling_value(CellType t) {
  switch (gate_class(t)) {
    case GateClass::kAndLike:
      return 0;
    case GateClass::kOrLike:
      return 1;
    default:
      return -1;
  }
}

/// 3-valued logic in "possible set" encoding:
/// bit0 set => value can be 0; bit1 set => value can be 1.
/// 0b01 = constant 0, 0b10 = constant 1, 0b11 = X. 0b00 is invalid.
struct V3 {
  std::uint8_t bits = 0b11;

  static constexpr V3 zero() { return V3{0b01}; }
  static constexpr V3 one() { return V3{0b10}; }
  static constexpr V3 x() { return V3{0b11}; }
  static constexpr V3 of(int v) { return v ? one() : zero(); }

  constexpr bool is_x() const { return bits == 0b11; }
  constexpr bool is0() const { return bits == 0b01; }
  constexpr bool is1() const { return bits == 0b10; }
  /// Known (non-X) value as 0/1; only valid when !is_x().
  constexpr int value() const { return bits == 0b10 ? 1 : 0; }

  friend constexpr bool operator==(V3, V3) = default;
};

/// The one 3-valued evaluation kernel: lanes of V3 packed into a byte, lane
/// i in bits 2i (can be 0) and 2i+1 (can be 1). `kLo` has the low bit of
/// every lane in use: 0b01 is a single V3 (eval_v3, dataflow), 0b0101 the
/// two lanes PODEM keeps per frame-2 net (fault-free in lane 0, faulty in
/// lane 1). Every operation is bitwise within a lane, so each lane of a
/// packed evaluation equals the one-lane evaluation of that lane alone.
template <std::uint8_t kLo>
struct V3Lanes {
  static constexpr std::uint8_t kHi = static_cast<std::uint8_t>(kLo << 1);

  static constexpr std::uint8_t inv(std::uint8_t a) {
    return static_cast<std::uint8_t>(((a & kLo) << 1) | ((a >> 1) & kLo));
  }
  /// Can be 1 iff both can be 1; can be 0 iff either can be 0.
  static constexpr std::uint8_t and2(std::uint8_t a, std::uint8_t b) {
    return static_cast<std::uint8_t>(((a & b) & kHi) | ((a | b) & kLo));
  }
  /// Can be 0 iff both can be 0; can be 1 iff either can be 1.
  static constexpr std::uint8_t or2(std::uint8_t a, std::uint8_t b) {
    return static_cast<std::uint8_t>(((a & b) & kLo) | ((a | b) & kHi));
  }
  /// Can be 0 iff equal values are possible; can be 1 iff unequal ones are.
  static constexpr std::uint8_t xor2(std::uint8_t a, std::uint8_t b) {
    const unsigned a0 = a & kLo, a1 = (a >> 1) & kLo;
    const unsigned b0 = b & kLo, b1 = (b >> 1) & kLo;
    return static_cast<std::uint8_t>(((a0 & b0) | (a1 & b1)) |
                                     (((a0 & b1) | (a1 & b0)) << 1));
  }
  /// A where S can be 0, B where S can be 1, the union where S is X.
  static constexpr std::uint8_t mux(std::uint8_t s, std::uint8_t a,
                                    std::uint8_t b) {
    const unsigned s0 = s & kLo, s1 = (s >> 1) & kLo;
    return static_cast<std::uint8_t>(((s0 | (s0 << 1)) & a) |
                                     ((s1 | (s1 << 1)) & b));
  }

  /// Cell evaluation. `in(k)` returns input k's packed lanes, so sweeps
  /// read their fanin straight from the value table instead of copying it
  /// into a buffer first. The and/or/xor folds are associative on this
  /// encoding, so any grouping gives the same result.
  template <class In>
    requires std::is_invocable_r_v<std::uint8_t, In, int>
  static constexpr std::uint8_t eval(CellType t, In in) {
    switch (t) {
      case CellType::kTie0:
        return kLo;
      case CellType::kTie1:
        return kHi;
      case CellType::kBuf:
      case CellType::kClkBuf:
      case CellType::kDff:  // D passthrough (combinational view of the D pin)
        return in(0);
      case CellType::kInv:
        return inv(in(0));
      case CellType::kAnd2:
        return and2(in(0), in(1));
      case CellType::kAnd3:
        return and2(and2(in(0), in(1)), in(2));
      case CellType::kAnd4:
        return and2(and2(in(0), in(1)), and2(in(2), in(3)));
      case CellType::kNand2:
        return inv(and2(in(0), in(1)));
      case CellType::kNand3:
        return inv(and2(and2(in(0), in(1)), in(2)));
      case CellType::kNand4:
        return inv(and2(and2(in(0), in(1)), and2(in(2), in(3))));
      case CellType::kOr2:
        return or2(in(0), in(1));
      case CellType::kOr3:
        return or2(or2(in(0), in(1)), in(2));
      case CellType::kOr4:
        return or2(or2(in(0), in(1)), or2(in(2), in(3)));
      case CellType::kNor2:
        return inv(or2(in(0), in(1)));
      case CellType::kNor3:
        return inv(or2(or2(in(0), in(1)), in(2)));
      case CellType::kNor4:
        return inv(or2(or2(in(0), in(1)), or2(in(2), in(3))));
      case CellType::kXor2:
        return xor2(in(0), in(1));
      case CellType::kXnor2:
        return inv(xor2(in(0), in(1)));
      case CellType::kMux2:  // inputs [S, A, B]; output = S ? B : A
        return mux(in(0), in(1), in(2));
    }
    return kLo;
  }
};

using V3x1 = V3Lanes<0b01>;
using V3x2 = V3Lanes<0b0101>;

/// 3-valued cell evaluation: the one-lane case of V3Lanes::eval. `in` is an
/// operand accessor, in(k) returning input k's value.
template <class In>
  requires std::is_invocable_r_v<V3, In, int>
constexpr V3 eval_v3(CellType t, In in) {
  return V3{V3x1::eval(t, [&](int k) { return V3(in(k)).bits; })};
}

inline V3 eval_v3(CellType t, std::span<const V3> ins) {
  return eval_v3(t, [ins](int k) { return ins[static_cast<std::size_t>(k)]; });
}

/// The one two-valued cell kernel: evaluates a cell over W 64-bit words,
/// bit p of word w being pattern w*64+p. `in` is an operand accessor: in(k)
/// returns a pointer to input k's W words. `o` receives the W output words
/// and must not alias any operand. Pure bitwise ops over contiguous words,
/// so the W-lane bodies unroll and vectorize.
template <int W, typename GetIn>
inline void eval_cell(CellType t, GetIn in, std::uint64_t* o) {
#define SCAP_LANES(expr)                       \
  do {                                         \
    for (int w = 0; w < W; ++w) o[w] = (expr); \
  } while (0)
  const std::uint64_t* a = nullptr;
  const std::uint64_t* b = nullptr;
  const std::uint64_t* c = nullptr;
  const std::uint64_t* d = nullptr;
  switch (t) {
    case CellType::kTie0:
      SCAP_LANES(0ull);
      break;
    case CellType::kTie1:
      SCAP_LANES(~0ull);
      break;
    case CellType::kBuf:
    case CellType::kClkBuf:
    case CellType::kDff:  // D passthrough (combinational view of the D pin)
      a = in(0);
      SCAP_LANES(a[w]);
      break;
    case CellType::kInv:
      a = in(0);
      SCAP_LANES(~a[w]);
      break;
    case CellType::kAnd2:
      a = in(0), b = in(1);
      SCAP_LANES(a[w] & b[w]);
      break;
    case CellType::kAnd3:
      a = in(0), b = in(1), c = in(2);
      SCAP_LANES(a[w] & b[w] & c[w]);
      break;
    case CellType::kAnd4:
      a = in(0), b = in(1), c = in(2), d = in(3);
      SCAP_LANES(a[w] & b[w] & c[w] & d[w]);
      break;
    case CellType::kNand2:
      a = in(0), b = in(1);
      SCAP_LANES(~(a[w] & b[w]));
      break;
    case CellType::kNand3:
      a = in(0), b = in(1), c = in(2);
      SCAP_LANES(~(a[w] & b[w] & c[w]));
      break;
    case CellType::kNand4:
      a = in(0), b = in(1), c = in(2), d = in(3);
      SCAP_LANES(~(a[w] & b[w] & c[w] & d[w]));
      break;
    case CellType::kOr2:
      a = in(0), b = in(1);
      SCAP_LANES(a[w] | b[w]);
      break;
    case CellType::kOr3:
      a = in(0), b = in(1), c = in(2);
      SCAP_LANES(a[w] | b[w] | c[w]);
      break;
    case CellType::kOr4:
      a = in(0), b = in(1), c = in(2), d = in(3);
      SCAP_LANES(a[w] | b[w] | c[w] | d[w]);
      break;
    case CellType::kNor2:
      a = in(0), b = in(1);
      SCAP_LANES(~(a[w] | b[w]));
      break;
    case CellType::kNor3:
      a = in(0), b = in(1), c = in(2);
      SCAP_LANES(~(a[w] | b[w] | c[w]));
      break;
    case CellType::kNor4:
      a = in(0), b = in(1), c = in(2), d = in(3);
      SCAP_LANES(~(a[w] | b[w] | c[w] | d[w]));
      break;
    case CellType::kXor2:
      a = in(0), b = in(1);
      SCAP_LANES(a[w] ^ b[w]);
      break;
    case CellType::kXnor2:
      a = in(0), b = in(1);
      SCAP_LANES(~(a[w] ^ b[w]));
      break;
    case CellType::kMux2:  // inputs [S, A, B]; out = S ? B : A
      a = in(0), b = in(1), c = in(2);
      SCAP_LANES((a[w] & c[w]) | (~a[w] & b[w]));
      break;
  }
#undef SCAP_LANES
}

/// Two-valued truth table of a cell: bit (i0 | i1 << 1 | ...) is the output
/// for that input combination. One eval_cell<1> call whose lane k carries
/// combination k, masked to the 2^n combinations of an n-input cell.
inline std::uint16_t truth_table(CellType t) {
  static_assert(kMaxGateInputs <= 4, "a 16-bit table holds up to 4 inputs");
  static constexpr std::uint64_t kCombos[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
  std::uint64_t out = 0;
  eval_cell<1>(t, [](int k) { return &kCombos[k]; }, &out);
  const unsigned rows = 1u << num_inputs(t);
  return static_cast<std::uint16_t>(out & ((1ull << rows) - 1));
}

/// Canonical cell name (matches the Verilog writer/parser vocabulary).
std::string_view cell_name(CellType t);

/// Inverse of cell_name; returns false if the name is unknown.
bool cell_from_name(std::string_view name, CellType& out);

}  // namespace scap
