#include <gtest/gtest.h>

#include "atpg/pattern.h"
#include "test_helpers.h"

namespace scap {
namespace {

TestCube cube_of(std::initializer_list<std::uint8_t> bits) {
  TestCube c;
  c.s1.assign(bits);
  return c;
}

TEST(TestCube, CareBitCounting) {
  const TestCube c = cube_of({0, 1, kBitX, kBitX, 1});
  EXPECT_EQ(c.care_bits(), 3u);
  EXPECT_EQ(c.x_bits(), 2u);
}

TEST(Fill, Fill0ReplacesOnlyX) {
  Rng rng(1);
  const TestCube c = cube_of({1, kBitX, 0, kBitX});
  const Pattern p = apply_fill(c, FillMode::kFill0, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{1, 0, 0, 0}));
}

TEST(Fill, Fill1ReplacesOnlyX) {
  Rng rng(1);
  const TestCube c = cube_of({1, kBitX, 0, kBitX});
  const Pattern p = apply_fill(c, FillMode::kFill1, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{1, 1, 0, 1}));
}

TEST(Fill, RandomIsDeterministicPerSeed) {
  const TestCube c = cube_of({kBitX, kBitX, kBitX, kBitX, 1, kBitX});
  Rng a(7), b(7), d(8);
  const Pattern pa = apply_fill(c, FillMode::kRandom, a);
  const Pattern pb = apply_fill(c, FillMode::kRandom, b);
  const Pattern pd = apply_fill(c, FillMode::kRandom, d);
  EXPECT_EQ(pa.s1, pb.s1);
  EXPECT_EQ(pa.s1[4], 1);  // care bit untouched
  EXPECT_NE(pa.s1, pd.s1);  // (with high probability for 5 X bits)
}

TEST(Fill, RandomFillsAllX) {
  Rng rng(3);
  const TestCube c = cube_of({kBitX, kBitX, kBitX});
  const Pattern p = apply_fill(c, FillMode::kRandom, rng);
  for (auto b : p.s1) EXPECT_LT(b, 2);
}

TEST(Fill, AdjacentCopiesPrecedingCareValue) {
  Rng rng(1);
  // One chain in flop order: [1, X, X, 0, X].
  const TestCube c = cube_of({1, kBitX, kBitX, 0, kBitX});
  const Pattern p = apply_fill(c, FillMode::kAdjacent, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{1, 1, 1, 0, 0}));
}

TEST(Fill, AdjacentBackfillsLeadingX) {
  Rng rng(1);
  const TestCube c = cube_of({kBitX, kBitX, 1, kBitX});
  const Pattern p = apply_fill(c, FillMode::kAdjacent, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{1, 1, 1, 1}));
}

TEST(Fill, AdjacentAllXBecomesZero) {
  Rng rng(1);
  const TestCube c = cube_of({kBitX, kBitX, kBitX});
  const Pattern p = apply_fill(c, FillMode::kAdjacent, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(Fill, AdjacentRespectsChainOrder) {
  Rng rng(1);
  // Two chains: chain0 = {2,0}, chain1 = {1,3}. Cube: [X, 1, 0, X].
  const TestCube c = cube_of({kBitX, 1, 0, kBitX});
  const std::vector<std::vector<FlopId>> chains{{2, 0}, {1, 3}};
  const Pattern p = apply_fill(c, FillMode::kAdjacent, rng, chains);
  // flop0 follows flop2 (value 0) in chain0; flop3 follows flop1 (value 1).
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{0, 1, 0, 1}));
}

TEST(Fill, PerBlockModes) {
  Netlist nl = test::tiny_netlist();  // flop0 in B1, flops 1-2 in B2
  Rng rng(1);
  TestCube c;
  c.s1 = {kBitX, kBitX, kBitX};
  const std::vector<FillMode> modes{FillMode::kFill1, FillMode::kFill0};
  const Pattern p = apply_fill_per_block(nl, c, modes, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{1, 0, 0}));
}

TEST(Fill, PerBlockKeepsCareBits) {
  Netlist nl = test::tiny_netlist();
  Rng rng(1);
  TestCube c;
  c.s1 = {0, 1, kBitX};
  const std::vector<FillMode> modes{FillMode::kFill1, FillMode::kFill1};
  const Pattern p = apply_fill_per_block(nl, c, modes, rng);
  EXPECT_EQ(p.s1, (std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(Fill, QuietFillRejectsShortStateAndAcceptsLongerOne) {
  Netlist nl = test::tiny_netlist();
  Rng rng(1);
  TestCube c;
  c.s1 = {kBitX, 1, kBitX};
  const std::vector<std::uint8_t> short_state{1, 1};
  EXPECT_THROW(apply_fill(c, FillMode::kQuiet, rng, {}, short_state),
               std::invalid_argument);
  const std::vector<FillMode> quiet{FillMode::kQuiet, FillMode::kQuiet};
  EXPECT_THROW(apply_fill_per_block(nl, c, quiet, rng, {}, short_state),
               std::invalid_argument);
  const std::vector<FillMode> one_mode{FillMode::kFill0};
  EXPECT_THROW(apply_fill_per_block(nl, c, one_mode, rng),
               std::invalid_argument);

  // A state longer than the cube (the engine's covers LOS scan-in bits too)
  // fills from its leading bits.
  const std::vector<std::uint8_t> long_state{1, 0, 0, 1, 1};
  EXPECT_EQ(apply_fill(c, FillMode::kQuiet, rng, {}, long_state).s1,
            (std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_EQ(apply_fill_per_block(nl, c, quiet, rng, {}, long_state).s1,
            (std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(Fill, ModeNames) {
  EXPECT_STREQ(fill_mode_name(FillMode::kRandom), "random-fill");
  EXPECT_STREQ(fill_mode_name(FillMode::kFill0), "fill-0");
  EXPECT_STREQ(fill_mode_name(FillMode::kFill1), "fill-1");
  EXPECT_STREQ(fill_mode_name(FillMode::kAdjacent), "fill-adjacent");
}

}  // namespace
}  // namespace scap
