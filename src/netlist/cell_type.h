// Standard-cell primitive types and their evaluation functions.
//
// The library models a small 180 nm-class standard-cell kit (the paper uses
// the Cadence GSCLib 0.18 um library): basic combinational cells of 1-4
// inputs, a 2:1 mux, a scan D flip-flop, clock buffers and tie cells.
// Evaluation is provided in the domains used by different engines:
//   - scalar 0/1            (event-driven timing simulation)
//   - 3-valued "possible set" logic (PODEM implication, dataflow
//     X-propagation, the static SCAP screen)
// The bit-parallel word domain (BatchSim, fault simulation) lives in
// sim/batch_kernels.inl.
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

/// Scalar evaluation; inputs are 0 or 1.
std::uint8_t eval_scalar(CellType t, std::span<const std::uint8_t> ins);

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

constexpr V3 v3_not(V3 a) {
  return V3{static_cast<std::uint8_t>(((a.bits & 1) << 1) | ((a.bits >> 1) & 1))};
}

/// Can be 1 iff both can be 1; can be 0 iff either can be 0.
constexpr V3 v3_and(V3 a, V3 b) {
  return V3{static_cast<std::uint8_t>(((a.bits & b.bits) & 0b10) |
                                      ((a.bits | b.bits) & 0b01))};
}
constexpr V3 v3_or(V3 a, V3 b) { return v3_not(v3_and(v3_not(a), v3_not(b))); }
constexpr V3 v3_xor(V3 a, V3 b) {
  if (a.is_x() || b.is_x()) return V3::x();
  return V3::of(a.value() ^ b.value());
}
constexpr V3 v3_mux(V3 s, V3 a, V3 b) {
  if (s.is0()) return a;
  if (s.is1()) return b;
  if (!a.is_x() && !b.is_x() && a == b) return a;  // select-independent
  return V3::x();
}

/// 3-valued cell evaluation. `in` is an operand accessor: in(k) returns
/// input k's value, so sweeps read their fanin straight from the value
/// table instead of copying it into a buffer first. The and/or/xor folds are
/// associative on this encoding, so any grouping gives the same result.
template <class In>
  requires std::is_invocable_r_v<V3, In, int>
constexpr V3 eval_v3(CellType t, In in) {
  switch (t) {
    case CellType::kTie0:
      return V3::zero();
    case CellType::kTie1:
      return V3::one();
    case CellType::kBuf:
    case CellType::kClkBuf:
    case CellType::kDff:  // D passthrough (combinational view of the D pin)
      return in(0);
    case CellType::kInv:
      return v3_not(in(0));
    case CellType::kAnd2:
      return v3_and(in(0), in(1));
    case CellType::kAnd3:
      return v3_and(v3_and(in(0), in(1)), in(2));
    case CellType::kAnd4:
      return v3_and(v3_and(in(0), in(1)), v3_and(in(2), in(3)));
    case CellType::kNand2:
      return v3_not(v3_and(in(0), in(1)));
    case CellType::kNand3:
      return v3_not(v3_and(v3_and(in(0), in(1)), in(2)));
    case CellType::kNand4:
      return v3_not(v3_and(v3_and(in(0), in(1)), v3_and(in(2), in(3))));
    case CellType::kOr2:
      return v3_or(in(0), in(1));
    case CellType::kOr3:
      return v3_or(v3_or(in(0), in(1)), in(2));
    case CellType::kOr4:
      return v3_or(v3_or(in(0), in(1)), v3_or(in(2), in(3)));
    case CellType::kNor2:
      return v3_not(v3_or(in(0), in(1)));
    case CellType::kNor3:
      return v3_not(v3_or(v3_or(in(0), in(1)), in(2)));
    case CellType::kNor4:
      return v3_not(v3_or(v3_or(in(0), in(1)), v3_or(in(2), in(3))));
    case CellType::kXor2:
      return v3_xor(in(0), in(1));
    case CellType::kXnor2:
      return v3_not(v3_xor(in(0), in(1)));
    case CellType::kMux2:  // inputs [S, A, B]; output = S ? B : A
      return v3_mux(in(0), in(1), in(2));
  }
  return V3::zero();
}

inline V3 eval_v3(CellType t, std::span<const V3> ins) {
  return eval_v3(t, [ins](int k) { return ins[static_cast<std::size_t>(k)]; });
}

/// Canonical cell name (matches the Verilog writer/parser vocabulary).
std::string_view cell_name(CellType t);

/// Inverse of cell_name; returns false if the name is unknown.
bool cell_from_name(std::string_view name, CellType& out);

}  // namespace scap
