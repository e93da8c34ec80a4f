// Two-valued logic simulation: the zero-delay frame settle every pattern
// goes through ahead of its launch (BatchSim at W = 1, lane 0 carrying the
// pattern), pinned against hand-computed values and the reference fixpoint
// evaluator (ref::eval_frame_ref), which shares no code with production.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "core/pattern_sim.h"
#include "netlist/levelized_view.h"
#include "ref/ref_models.h"
#include "sim/batch_sim.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

TEST(FrameSettle, TinyHandComputed) {
  const Netlist nl = test::tiny_netlist();
  const BatchSim sim(nl.levelized_view(), 1);
  const LevelizedView& v = sim.view();
  // Lane 0: q0=1, q1=1, q2=0, pi0=1: n1 = nand(1,1) = 0; n2 = nand(0,1) = 1.
  const std::vector<std::uint64_t> q{1, 1, 0};
  const std::vector<std::uint64_t> pi{1};
  std::vector<std::uint64_t> nets;
  sim.eval_frame(q, pi, nets);
  EXPECT_EQ(nets[v.compact_net(nl.gate(0).out)] & 1, 0u);
  EXPECT_EQ(nets[v.compact_net(nl.gate(1).out)] & 1, 1u);

  std::vector<std::uint64_t> next;
  sim.next_state(nets, next);
  EXPECT_EQ(next[0] & 1, 0u);  // d0 = n1
  EXPECT_EQ(next[1] & 1, 1u);  // d1 = n2
  EXPECT_EQ(next[2] & 1, 1u);  // d2 = n2
}

TEST(FrameSettle, PiValuesPropagate) {
  const Netlist nl = test::tiny_netlist();
  const BatchSim sim(nl.levelized_view(), 1);
  const LevelizedView& v = sim.view();
  const std::vector<std::uint64_t> s1{~0ull, ~0ull, 0};  // q0=q1=1, all lanes
  std::vector<std::uint64_t> nets;
  // pi0 = 0: n2 = nand(n1, 0) = 1 everywhere.
  sim.eval_frame(s1, std::vector<std::uint64_t>{0ull}, nets);
  EXPECT_EQ(nets[v.compact_net(nl.gate(1).out)], ~0ull);
  // pi0 = 1: n1 = 0, n2 = nand(0,1) = 1 still.
  sim.eval_frame(s1, std::vector<std::uint64_t>{~0ull}, nets);
  EXPECT_EQ(nets[v.compact_net(nl.gate(0).out)], 0ull);
  EXPECT_EQ(nets[v.compact_net(nl.gate(1).out)], ~0ull);
}

TEST(FrameSettle, BroadsideChainsFrames) {
  const Netlist& nl = test::tiny_soc().netlist;
  const BatchSim sim(nl.levelized_view(), 1);
  const LevelizedView& v = sim.view();
  Rng rng(55);
  std::vector<std::uint64_t> s1(nl.num_flops());
  for (auto& w : s1) w = rng.word();
  const std::vector<std::uint64_t> pi(nl.primary_inputs().size(), 0);

  std::vector<std::uint64_t> f1, s2, f2;
  sim.broadside(s1, pi, f1, s2, f2);

  // s2 must equal the D values of frame 1.
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    EXPECT_EQ(s2[f], f1[v.compact_net(nl.flop(f).d)]);
  }
  // Frame 2 must equal an eval from s2.
  std::vector<std::uint64_t> f2b;
  sim.eval_frame(s2, pi, f2b);
  EXPECT_EQ(f2, f2b);
}

TEST(FrameSettle, SettleIsPure) {
  // Re-evaluating with the same inputs gives identical nets.
  const Netlist& nl = test::tiny_soc().netlist;
  const BatchSim sim(nl.levelized_view(), 1);
  Rng rng(8);
  std::vector<std::uint64_t> s1(nl.num_flops());
  for (auto& w : s1) w = rng.word();
  const std::vector<std::uint64_t> pi(nl.primary_inputs().size(), 0);
  std::vector<std::uint64_t> a, b;
  sim.eval_frame(s1, pi, a);
  sim.eval_frame(s1, pi, b);
  EXPECT_EQ(a, b);
}

TEST(FrameSettle, PatternAnalyzerFrame1MatchesReference) {
  // The per-pattern settle behind every analysis: frame1() holds external
  // net ids and must equal the reference settle of the pattern's flop bits
  // and the context's PI values.
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const PatternSet pats = random_pattern_set(16, ctx.num_vars(), 1234);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  for (std::size_t i = 0; i < pats.patterns.size(); ++i) {
    const Pattern& p = pats.patterns[i];
    analyzer.analyze_scap(ctx, p);
    const std::vector<std::uint8_t> q(
        p.s1.begin(), p.s1.begin() + static_cast<std::ptrdiff_t>(nl.num_flops()));
    const std::vector<std::uint8_t> ref =
        ref::eval_frame_ref(nl, q, ctx.pi_values);
    ASSERT_EQ(analyzer.frame1().size(), ref.size());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(analyzer.frame1()[n], ref[n]) << "pattern " << i << " net " << n;
    }
  }
}

}  // namespace
}  // namespace scap
