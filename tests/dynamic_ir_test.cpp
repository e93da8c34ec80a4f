#include <gtest/gtest.h>

#include <stdexcept>

#include "atpg/context.h"
#include "core/pattern_sim.h"
#include "power/dynamic_ir.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

/// One nominal pass: its SCAP report and its binned rail charges.
struct Analyzed {
  ScapReport scap;
  RailCharges charges;
};

struct DynRig {
  const SocDesign& soc = test::tiny_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  PowerGrid grid{soc.floorplan};
  TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  PatternAnalyzer analyzer{soc, lib};

  Analyzed analyze_random(std::uint64_t seed) {
    Rng rng(seed);
    Pattern p;
    p.s1.resize(soc.netlist.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    ScapAccumulator scap(analyzer.scap_calculator(),
                         soc.config.tester_period_ns);
    DynamicIrBinner binner(soc.netlist, soc.parasitics, lib);
    FanoutSink sinks{&scap, &binner};
    analyzer.analyze_into(ctx, p, sinks);
    return {scap.report(), binner.charges()};
  }

  DynamicIrReport ir_of(const RailCharges& charges, bool clock = true) {
    return analyze_pattern_ir(soc.netlist, soc.placement, lib, soc.floorplan,
                              grid, charges, clock ? &soc.clock_tree : nullptr,
                              ctx.domain);
  }
};

TEST(DynamicIr, ActivePatternProducesDrop) {
  DynRig rig;
  const Analyzed pa = rig.analyze_random(1);
  ASSERT_GT(pa.scap.num_toggles, 0u);
  const auto rep = rig.ir_of(pa.charges);
  EXPECT_GT(rep.worst_vdd_v, 0.0);
  EXPECT_GT(rep.worst_vss_v, 0.0);
  // Both rail solves must hit tolerance -- a truncated map would silently
  // understate every droop downstream.
  EXPECT_TRUE(rep.rails_converged());
  EXPECT_DOUBLE_EQ(rep.window_ns, pa.scap.stw_ns);
}

TEST(DynamicIr, QuietTraceOnlyClockCurrent) {
  DynRig rig;
  const Netlist& nl = rig.soc.netlist;
  RailCharges quiet;
  quiet.gate_vdd_pc.assign(nl.num_gates(), 0.0);
  quiet.gate_vss_pc.assign(nl.num_gates(), 0.0);
  quiet.flop_vdd_pc.assign(nl.num_flops(), 0.0);
  quiet.flop_vss_pc.assign(nl.num_flops(), 0.0);
  quiet.window_ns = 5.0;
  const auto with_clock = rig.ir_of(quiet, true);
  const auto without = rig.ir_of(quiet, false);
  EXPECT_GT(with_clock.worst_vdd_v, 0.0);  // clock tree still switches
  EXPECT_DOUBLE_EQ(without.worst_vdd_v, 0.0);
}

TEST(DynamicIr, RejectsMissizedChargesAndEmptyWindow) {
  DynRig rig;
  const Analyzed pa = rig.analyze_random(2);
  RailCharges short_gates = pa.charges;
  short_gates.gate_vss_pc.pop_back();
  EXPECT_THROW(rig.ir_of(short_gates), std::invalid_argument);
  RailCharges no_window = pa.charges;
  no_window.window_ns = 0.0;
  EXPECT_THROW(rig.ir_of(no_window), std::invalid_argument);
}

TEST(DynamicIr, MoreSwitchingMoreDrop) {
  DynRig rig;
  // Find a relatively quiet and a relatively loud random pattern.
  Analyzed loud = rig.analyze_random(1);
  Analyzed soft = loud;
  for (std::uint64_t seed = 2; seed < 10; ++seed) {
    Analyzed pa = rig.analyze_random(seed);
    if (pa.scap.num_toggles > loud.scap.num_toggles) loud = pa;
    if (pa.scap.num_toggles < soft.scap.num_toggles) soft = pa;
  }
  ASSERT_GT(loud.scap.num_toggles, soft.scap.num_toggles);
  const auto ir_loud = rig.ir_of(loud.charges, false);
  const auto ir_soft = rig.ir_of(soft.charges, false);
  EXPECT_GT(ir_loud.worst_vdd_v, 0.0);
  // Not strictly monotone in toggle count (placement matters), but a 1.3x
  // toggle margin should show up in the rail.
  if (loud.scap.num_toggles >
      soft.scap.num_toggles + soft.scap.num_toggles / 3) {
    EXPECT_GT(ir_loud.worst_vdd_v, ir_soft.worst_vdd_v);
  }
}

TEST(DynamicIr, DroopVectorsMatchSolutions) {
  DynRig rig;
  const Analyzed pa = rig.analyze_random(3);
  const auto rep = rig.ir_of(pa.charges);
  ASSERT_EQ(rep.gate_droop_v.size(), rig.soc.netlist.num_gates());
  ASSERT_EQ(rep.flop_droop_v.size(), rig.soc.netlist.num_flops());
  for (GateId g = 0; g < rig.soc.netlist.num_gates(); g += 17) {
    const Point p = rig.soc.placement.gate_pos(g);
    EXPECT_NEAR(rep.gate_droop_v[g],
                rep.vdd_solution.drop_at(p) + rep.vss_solution.drop_at(p),
                1e-12);
  }
}

TEST(DynamicIr, BlockSummariesConsistent) {
  DynRig rig;
  const Analyzed pa = rig.analyze_random(4);
  const auto rep = rig.ir_of(pa.charges);
  ASSERT_EQ(rep.block_worst_vdd_v.size(), rig.soc.netlist.block_count());
  for (std::size_t b = 0; b < rep.block_worst_vdd_v.size(); ++b) {
    EXPECT_LE(rep.block_avg_vdd_v[b], rep.block_worst_vdd_v[b] + 1e-12);
    EXPECT_LE(rep.block_worst_vdd_v[b], rep.worst_vdd_v + 1e-12);
  }
}

TEST(DynamicIr, ShorterWindowMeansMoreDrop) {
  // Same toggles crammed into half the window draw twice the current.
  DynRig rig;
  const Analyzed pa = rig.analyze_random(5);
  RailCharges squeezed = pa.charges;
  squeezed.window_ns = pa.charges.window_ns / 2.0;
  const auto normal = rig.ir_of(pa.charges, false);
  const auto tight = rig.ir_of(squeezed, false);
  EXPECT_NEAR(tight.worst_vdd_v, 2.0 * normal.worst_vdd_v,
              0.02 * tight.worst_vdd_v);
}

}  // namespace
}  // namespace scap
