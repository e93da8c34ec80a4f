// Cross-domain consistency of the cell evaluators: scalar, 64-bit word
// (the batch kernels' eval_cell) and 3-valued evaluation must agree on every
// cell type and every input combination, the 3-valued evaluator must be
// exactly the abstraction of the scalar one (known result iff all
// completions agree), and each lane of the packed two-lane kernel must
// evaluate exactly as the one-lane eval_v3.
#include <gtest/gtest.h>

#include <vector>

#include "netlist/cell_type.h"
#include "netlist/levelized_view.h"

#define SCAP_BATCH_KERNEL_NS cell_test
#include "sim/batch_kernels.inl"
#undef SCAP_BATCH_KERNEL_NS

namespace scap {
namespace {

/// One 64-lane word evaluation through the shared batch kernel.
std::uint64_t kernel_word(CellType t, const std::vector<std::uint64_t>& ins) {
  std::uint64_t out = 0;
  batchk::cell_test::eval_cell<1>(
      t, [&](int k) { return ins.data() + k; }, &out);
  return out;
}

std::vector<CellType> all_combinational_types() {
  std::vector<CellType> out;
  for (std::size_t i = 0; i < kNumCellTypes; ++i) {
    const auto t = static_cast<CellType>(i);
    if (is_combinational(t)) out.push_back(t);
  }
  return out;
}

class CellEval : public ::testing::TestWithParam<CellType> {};

TEST_P(CellEval, ScalarMatchesWordOnAllCombinations) {
  const CellType t = GetParam();
  const int n = num_inputs(t);
  for (int combo = 0; combo < (1 << n); ++combo) {
    std::vector<std::uint8_t> sins(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> wins(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::uint8_t bit = (combo >> i) & 1;
      sins[static_cast<std::size_t>(i)] = bit;
      wins[static_cast<std::size_t>(i)] = bit ? ~0ull : 0ull;
    }
    const std::uint8_t s = eval_scalar(t, sins);
    const std::uint64_t w = kernel_word(t, wins);
    EXPECT_EQ(w, s ? ~0ull : 0ull)
        << cell_name(t) << " combo " << combo;
  }
}

TEST_P(CellEval, WordEvaluatesLanesIndependently) {
  const CellType t = GetParam();
  const int n = num_inputs(t);
  if (n == 0) return;
  // Pack all input combinations into lanes and check each lane.
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(n), 0);
  for (int combo = 0; combo < (1 << n); ++combo) {
    for (int i = 0; i < n; ++i) {
      if ((combo >> i) & 1) {
        wins[static_cast<std::size_t>(i)] |= 1ull << combo;
      }
    }
  }
  const std::uint64_t w = kernel_word(t, wins);
  for (int combo = 0; combo < (1 << n); ++combo) {
    std::vector<std::uint8_t> sins(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      sins[static_cast<std::size_t>(i)] = (combo >> i) & 1;
    }
    EXPECT_EQ((w >> combo) & 1, eval_scalar(t, sins))
        << cell_name(t) << " lane " << combo;
  }
}

TEST_P(CellEval, V3IsExactAbstractionOfScalar) {
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
      std::vector<std::uint8_t> sins(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        sins[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(code[static_cast<std::size_t>(i)] % 2);
      }
      for (std::size_t k = 0; k < x_pins.size(); ++k) {
        sins[static_cast<std::size_t>(x_pins[k])] = (fill >> k) & 1;
      }
      (eval_scalar(t, sins) ? can1 : can0) = true;
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
