#include <gtest/gtest.h>

#include "power/activity.h"
#include "power/statistical.h"
#include "test_helpers.h"

namespace scap {
namespace {

struct StatRig {
  const SocDesign& soc = test::tiny_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  PowerGrid grid{soc.floorplan};

  StatisticalReport run(double window_fraction, double toggle_prob = 0.30,
                        bool clock = true) {
    StatisticalOptions opt;
    opt.window_fraction = window_fraction;
    opt.toggle_prob = toggle_prob;
    return analyze_statistical(soc.netlist, soc.placement, soc.parasitics, lib,
                               soc.floorplan, grid,
                               soc.config.domain_freq_mhz,
                               clock ? &soc.clock_tree : nullptr, opt);
  }
};

TEST(Statistical, Case2DoublesPower) {
  StatRig rig;
  const auto case1 = rig.run(1.0);
  const auto case2 = rig.run(0.5);
  EXPECT_NEAR(case2.chip_power_mw, 2.0 * case1.chip_power_mw,
              1e-6 * case1.chip_power_mw);
  for (std::size_t b = 0; b < case1.block_power_mw.size(); ++b) {
    EXPECT_NEAR(case2.block_power_mw[b], 2.0 * case1.block_power_mw[b],
                1e-6 * (case1.block_power_mw[b] + 1.0));
  }
}

TEST(Statistical, Case2RaisesIrDropButNotUniformly) {
  // Table 3's shape: halving the window raises IR-drop everywhere, and the
  // worst chip-level drop roughly doubles, but peripheral blocks rise less
  // than proportionally thanks to nearby pads.
  StatRig rig;
  const auto case1 = rig.run(1.0);
  const auto case2 = rig.run(0.5);
  EXPECT_GT(case2.chip_worst_vdd_v, case1.chip_worst_vdd_v);
  EXPECT_NEAR(case2.chip_worst_vdd_v, 2.0 * case1.chip_worst_vdd_v,
              0.05 * case2.chip_worst_vdd_v);
  for (std::size_t b = 0; b < case1.block_worst_vdd_v.size(); ++b) {
    EXPECT_GE(case2.block_worst_vdd_v[b], case1.block_worst_vdd_v[b]);
  }
}

TEST(Statistical, HotCentralBlockSeesWorstDrop) {
  StatRig rig;
  const auto rep = rig.run(0.5);
  const std::size_t hot = 4;  // B5
  for (std::size_t b = 0; b < rep.block_worst_vdd_v.size(); ++b) {
    if (b == hot) continue;
    EXPECT_GE(rep.block_worst_vdd_v[hot], rep.block_worst_vdd_v[b])
        << "B" << (b + 1);
  }
  // And B5 burns the most power.
  for (std::size_t b = 0; b < rep.block_power_mw.size(); ++b) {
    if (b == hot) continue;
    EXPECT_GT(rep.block_power_mw[hot], rep.block_power_mw[b]);
  }
}

TEST(Statistical, PowerScalesWithToggleProbability) {
  StatRig rig;
  const auto lo = rig.run(1.0, 0.15, /*clock=*/false);
  const auto hi = rig.run(1.0, 0.30, /*clock=*/false);
  EXPECT_NEAR(hi.chip_power_mw, 2.0 * lo.chip_power_mw,
              1e-6 * hi.chip_power_mw);
}

TEST(Statistical, ClockTreeAddsPower) {
  StatRig rig;
  const auto without = rig.run(1.0, 0.30, false);
  const auto with = rig.run(1.0, 0.30, true);
  EXPECT_GT(with.chip_power_mw, without.chip_power_mw);
  EXPECT_GE(with.chip_worst_vdd_v, without.chip_worst_vdd_v);
}

TEST(Statistical, BlockPowersSumBelowChipPower) {
  StatRig rig;
  const auto rep = rig.run(1.0);
  double sum = 0.0;
  for (double p : rep.block_power_mw) sum += p;
  EXPECT_LE(sum, rep.chip_power_mw + 1e-9);
  EXPECT_GT(sum, 0.9 * rep.chip_power_mw);  // most logic sits inside blocks
}

TEST(Statistical, BothRailsReported) {
  StatRig rig;
  const auto rep = rig.run(0.5);
  EXPECT_GT(rep.chip_worst_vdd_v, 0.0);
  EXPECT_GT(rep.chip_worst_vss_v, 0.0);
  EXPECT_TRUE(rep.rails_converged());
  // Symmetric pad geometry: rails within 20% of each other.
  EXPECT_NEAR(rep.chip_worst_vss_v, rep.chip_worst_vdd_v,
              0.2 * rep.chip_worst_vdd_v);
}

TEST(Statistical, FunctionalDropScalesSanely) {
  // The tiny SOC draws little current; its functional drop must be positive
  // and far from rail collapse. (The absolute paper-regime calibration is
  // checked on the full-size experiment in core_flow_test.)
  StatRig rig;
  const auto rep = rig.run(1.0);
  EXPECT_GT(rep.chip_worst_vdd_v, 0.0);
  EXPECT_LT(rep.chip_worst_vdd_v, 0.25 * rig.lib.vdd());
}

TEST(Statistical, RejectsShortDomainFrequencies) {
  StatRig rig;
  ASSERT_GT(rig.soc.netlist.domain_count(), 1u);
  const std::vector<double> short_freq(rig.soc.netlist.domain_count() - 1,
                                       100.0);
  EXPECT_THROW(analyze_statistical(rig.soc.netlist, rig.soc.placement,
                                   rig.soc.parasitics, rig.lib,
                                   rig.soc.floorplan, rig.grid, short_freq,
                                   &rig.soc.clock_tree, StatisticalOptions{}),
               std::invalid_argument);
}

TEST(Activity, GateDomainsFollowFanin) {
  // A gate fed only by domain-d flops must inherit domain d.
  Netlist nl;
  const NetId q0 = nl.add_net("q0");
  const NetId q1 = nl.add_net("q1");
  const NetId n0 = nl.add_net("n0");
  const NetId d1 = nl.add_net("d1");
  const NetId i0[] = {q0, q0};
  nl.add_gate(CellType::kAnd2, i0, n0);
  const NetId i1[] = {q1, n0};
  nl.add_gate(CellType::kOr2, i1, d1);
  nl.add_flop(n0, q0, /*domain=*/1, 0);
  nl.add_flop(d1, q1, /*domain=*/0, 0);
  nl.set_domain_count(2);
  nl.finalize();
  const auto dom = assign_gate_domains(nl);
  EXPECT_EQ(dom[0], 1);  // fed by q0 only
  // Gate 1 sees one domain-0 and one domain-1 input; majority tie keeps the
  // first maximum (domain of q1 = 0 counted first).
  EXPECT_LE(dom[1], 1);
}

TEST(Activity, CoversAllGates) {
  const Netlist& nl = test::tiny_soc().netlist;
  const auto dom = assign_gate_domains(nl);
  ASSERT_EQ(dom.size(), nl.num_gates());
  for (DomainId d : dom) EXPECT_LT(d, nl.domain_count());
}

}  // namespace
}  // namespace scap
