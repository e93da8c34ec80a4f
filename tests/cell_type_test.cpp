// The cell kernels against the independent reference evaluator
// ref::ref_eval_cell, on every cell type and every input combination: each
// lane of every word of the two-valued kernel eval_cell, the event
// simulator's truth tables (truth_table), and the 3-valued kernel, which
// must be exactly the abstraction of the reference (known result iff all
// completions agree). Each lane of the packed two-lane 3-valued kernel must
// evaluate exactly as the one-lane eval_v3.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "netlist/cell_type.h"
#include "ref/ref_models.h"

namespace scap {
namespace {

/// Reference output for input combination `combo` (bit i = input i).
std::uint8_t ref_output(CellType t, unsigned combo) {
  std::array<std::uint8_t, kMaxGateInputs> ins{};
  const auto n = static_cast<std::size_t>(num_inputs(t));
  for (std::size_t i = 0; i < n; ++i) ins[i] = (combo >> i) & 1u;
  return ref::ref_eval_cell(t, std::span<const std::uint8_t>(ins.data(), n));
}

std::vector<CellType> all_combinational_types() {
  std::vector<CellType> out;
  for (std::size_t i = 0; i < kNumCellTypes; ++i) {
    const auto t = static_cast<CellType>(i);
    if (is_combinational(t)) out.push_back(t);
  }
  return out;
}

/// Every input combination of `t` packed into the lanes of W words: word w
/// lane 16*w + combo carries combination combo, so each word holds its own
/// lanes. Checks every one of them against the reference.
template <int W>
void expect_word_lanes_match_reference(CellType t) {
  const int n = num_inputs(t);
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(n) * W, 0);
  for (int w = 0; w < W; ++w) {
    for (int combo = 0; combo < (1 << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        if ((combo >> i) & 1) {
          wins[static_cast<std::size_t>(i * W + w)] |= 1ull << (16 * w + combo);
        }
      }
    }
  }
  std::uint64_t out[W] = {};
  eval_cell<W>(
      t, [&](int k) { return wins.data() + static_cast<std::size_t>(k) * W; },
      out);
  for (int w = 0; w < W; ++w) {
    for (int combo = 0; combo < (1 << n); ++combo) {
      EXPECT_EQ((out[w] >> (16 * w + combo)) & 1,
                ref_output(t, static_cast<unsigned>(combo)))
          << cell_name(t) << " W=" << W << " word " << w << " combo " << combo;
    }
  }
}

class CellEval : public ::testing::TestWithParam<CellType> {};

TEST_P(CellEval, WordMatchesReferenceOnAllCombinations) {
  // Constant words: every lane of the one evaluation is the same combination.
  const CellType t = GetParam();
  const int n = num_inputs(t);
  for (int combo = 0; combo < (1 << n); ++combo) {
    std::vector<std::uint64_t> wins(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      wins[static_cast<std::size_t>(i)] = (combo >> i) & 1 ? ~0ull : 0ull;
    }
    std::uint64_t w = 0;
    eval_cell<1>(t, [&](int k) { return wins.data() + k; }, &w);
    EXPECT_EQ(w, ref_output(t, static_cast<unsigned>(combo)) ? ~0ull : 0ull)
        << cell_name(t) << " combo " << combo;
  }
}

TEST_P(CellEval, WordEvaluatesLanesIndependently) {
  expect_word_lanes_match_reference<1>(GetParam());
  expect_word_lanes_match_reference<4>(GetParam());
}

TEST_P(CellEval, V3IsExactAbstractionOfReference) {
  const CellType t = GetParam();
  const int n = num_inputs(t);
  // Enumerate 3-valued inputs (0,1,X per pin).
  int total = 1;
  for (int i = 0; i < n; ++i) total *= 3;
  for (int combo = 0; combo < total; ++combo) {
    std::vector<V3> vins(static_cast<std::size_t>(n));
    std::vector<int> code(static_cast<std::size_t>(n));
    int c = combo;
    for (int i = 0; i < n; ++i) {
      code[static_cast<std::size_t>(i)] = c % 3;
      c /= 3;
      vins[static_cast<std::size_t>(i)] =
          code[static_cast<std::size_t>(i)] == 2
              ? V3::x()
              : V3::of(code[static_cast<std::size_t>(i)]);
    }
    const V3 got = eval_v3(t, vins);

    // Ground truth: evaluate every completion of the X inputs.
    bool can0 = false, can1 = false;
    std::vector<int> x_pins;
    for (int i = 0; i < n; ++i) {
      if (code[static_cast<std::size_t>(i)] == 2) x_pins.push_back(i);
    }
    for (int fill = 0; fill < (1 << x_pins.size()); ++fill) {
      unsigned bits = 0;
      for (int i = 0; i < n; ++i) {
        if (code[static_cast<std::size_t>(i)] == 1) bits |= 1u << i;
      }
      for (std::size_t k = 0; k < x_pins.size(); ++k) {
        if ((fill >> k) & 1) bits |= 1u << x_pins[k];
      }
      (ref_output(t, bits) ? can1 : can0) = true;
    }
    // V3 may be pessimistic (report X when the value is actually fixed) but
    // must never claim a wrong known value; for these cell primitives it is
    // exact except the select-independent MUX shortcut, which is also exact.
    if (!got.is_x()) {
      EXPECT_TRUE(got.value() == 1 ? (can1 && !can0) : (can0 && !can1))
          << cell_name(t) << " combo " << combo;
    } else {
      EXPECT_TRUE(can0 && can1) << cell_name(t) << " combo " << combo
                                << ": pessimistic X for a determined value";
    }
  }
}

TEST_P(CellEval, TwoLaneKernelMatchesOneLanePerLane) {
  // PODEM evaluates the frame-2 fault-free and faulty values as two lanes
  // of one byte. For every pair of V3 input vectors (3^n x 3^n), each lane
  // of the packed evaluation must equal eval_v3 on that lane alone.
  const CellType t = GetParam();
  const int n = num_inputs(t);
  int total = 1;
  for (int i = 0; i < n; ++i) total *= 3;
  const V3 values[] = {V3::zero(), V3::one(), V3::x()};
  auto vector_of = [&](int combo) {
    std::vector<V3> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i, combo /= 3) {
      v[static_cast<std::size_t>(i)] = values[combo % 3];
    }
    return v;
  };
  for (int lo = 0; lo < total; ++lo) {
    const std::vector<V3> a = vector_of(lo);
    const V3 want_a = eval_v3(t, a);
    for (int hi = 0; hi < total; ++hi) {
      const std::vector<V3> b = vector_of(hi);
      const std::uint8_t got = V3x2::eval(t, [&](int k) {
        const auto i = static_cast<std::size_t>(k);
        return static_cast<std::uint8_t>(a[i].bits | (b[i].bits << 2));
      });
      ASSERT_EQ(V3{static_cast<std::uint8_t>(got & 0b11)}, want_a)
          << cell_name(t) << " lanes " << lo << "/" << hi;
      ASSERT_EQ(V3{static_cast<std::uint8_t>(got >> 2)}, eval_v3(t, b))
          << cell_name(t) << " lanes " << lo << "/" << hi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellEval,
                         ::testing::ValuesIn(all_combinational_types()),
                         [](const auto& info) {
                           return std::string(cell_name(info.param));
                         });

TEST(CellType, TruthTablesMatchReference) {
  // Every cell type, the sequential and clock cells included: bit combo of
  // the table is the output for that combination, and bits past the 2^n
  // combinations of an n-input cell are clear.
  for (std::size_t c = 0; c < kNumCellTypes; ++c) {
    const auto t = static_cast<CellType>(c);
    const unsigned rows = 1u << num_inputs(t);
    const std::uint16_t table = truth_table(t);
    for (unsigned combo = 0; combo < 16; ++combo) {
      const unsigned want = combo < rows ? ref_output(t, combo) : 0u;
      EXPECT_EQ((table >> combo) & 1u, want)
          << cell_name(t) << " combo " << combo;
    }
  }
}

TEST(CellType, NamesRoundTrip) {
  for (std::size_t i = 0; i < kNumCellTypes; ++i) {
    const auto t = static_cast<CellType>(i);
    CellType back;
    ASSERT_TRUE(cell_from_name(cell_name(t), back)) << cell_name(t);
    EXPECT_EQ(back, t);
  }
  CellType dummy;
  EXPECT_FALSE(cell_from_name("NAND9", dummy));
  EXPECT_FALSE(cell_from_name("", dummy));
}

TEST(CellType, ControllingValues) {
  EXPECT_EQ(controlling_value(CellType::kAnd3), 0);
  EXPECT_EQ(controlling_value(CellType::kNand2), 0);
  EXPECT_EQ(controlling_value(CellType::kOr4), 1);
  EXPECT_EQ(controlling_value(CellType::kNor2), 1);
  EXPECT_EQ(controlling_value(CellType::kXor2), -1);
  EXPECT_EQ(controlling_value(CellType::kMux2), -1);
}

TEST(CellType, InversionFlags) {
  EXPECT_TRUE(is_inverting(CellType::kInv));
  EXPECT_TRUE(is_inverting(CellType::kNand4));
  EXPECT_TRUE(is_inverting(CellType::kXnor2));
  EXPECT_FALSE(is_inverting(CellType::kBuf));
  EXPECT_FALSE(is_inverting(CellType::kAnd2));
  EXPECT_FALSE(is_inverting(CellType::kMux2));
}

TEST(CellType, V3Not) {
  EXPECT_EQ(V3{V3x1::inv(V3::zero().bits)}, V3::one());
  EXPECT_EQ(V3{V3x1::inv(V3::one().bits)}, V3::zero());
  EXPECT_EQ(V3{V3x1::inv(V3::x().bits)}, V3::x());
}

}  // namespace
}  // namespace scap
