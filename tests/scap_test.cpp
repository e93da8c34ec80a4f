#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <utility>

#include "atpg/context.h"
#include "core/pattern_sim.h"
#include "ref/compare.h"
#include "sim/scap.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

// Shared tolerance policy (rationale in ref/compare.h) instead of ad-hoc
// epsilons: energies compare relatively (plain-double summation rounding),
// windows get the float-quantization absolute floor.
#define EXPECT_CLOSE(a, b, rel, abs)                                     \
  EXPECT_TRUE(ref::close_enough((a), (b), (rel), (abs)))                 \
      << #a " = " << ::testing::PrintToString(a) << " vs " #b " = "      \
      << ::testing::PrintToString(b)

struct ScapRig {
  const SocDesign& soc = test::tiny_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  PatternAnalyzer analyzer{soc, lib};

  Pattern random_pattern(std::uint64_t seed) const {
    Rng rng(seed);
    Pattern p;
    p.s1.resize(soc.netlist.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    return p;
  }

  PatternAnalysis analyze_random(std::uint64_t seed) {
    return analyzer.analyze(ctx, random_pattern(seed));
  }

  /// Drive a fresh accumulator through one synthetic pass: every toggle
  /// commits at 1 ns.
  ScapReport accumulate(std::span<const std::pair<NetId, bool>> toggles) {
    ScapCalculator calc(soc.netlist, soc.parasitics, lib);
    ScapAccumulator acc(calc, /*period_ns=*/20.0);
    acc.on_begin({});
    for (const auto& [net, rising] : toggles) acc.on_toggle(net, 1.0, rising);
    SimStats stats;
    stats.num_toggles = toggles.size();
    stats.first_toggle_ns = stats.last_toggle_ns = toggles.empty() ? 0.0 : 1.0;
    acc.on_end(stats);
    return acc.report();
  }
};

TEST(Scap, EnergyMatchesManualSum) {
  ScapRig rig;
  const Pattern p = rig.random_pattern(1);
  const PatternAnalysis pa = rig.analyzer.analyze(rig.ctx, p);
  const ref::SimTrace trace = test::record_trace(rig.analyzer, rig.ctx, p);
  double vdd_pj = 0.0, vss_pj = 0.0;
  for (const ref::ToggleEvent& t : trace.toggles) {
    const double e =
        rig.lib.toggle_energy_pj(rig.soc.parasitics.net_load_pf(t.net));
    (t.rising ? vdd_pj : vss_pj) += e;
  }
  EXPECT_CLOSE(pa.scap.vdd_energy_total_pj, vdd_pj, ref::kEnergyRelTol,
               ref::kDefaultAbsTol);
  EXPECT_CLOSE(pa.scap.vss_energy_total_pj, vss_pj, ref::kEnergyRelTol,
               ref::kDefaultAbsTol);
}

TEST(Scap, BlockEnergiesSumToTotal) {
  ScapRig rig;
  const PatternAnalysis pa = rig.analyze_random(2);
  double sum = 0.0;
  for (double e : pa.scap.vdd_energy_pj) sum += e;
  EXPECT_CLOSE(sum, pa.scap.vdd_energy_total_pj, ref::kEnergyRelTol,
               ref::kDefaultAbsTol);
  sum = 0.0;
  for (double e : pa.scap.vss_energy_pj) sum += e;
  EXPECT_CLOSE(sum, pa.scap.vss_energy_total_pj, ref::kEnergyRelTol,
               ref::kDefaultAbsTol);
}

TEST(Scap, BlockEnergyBoundsChecked) {
  ScapRig rig;
  const PatternAnalysis pa = rig.analyze_random(4);
  ASSERT_GT(pa.scap.stw_ns, 0.0);  // so block_scap_mw reaches block_energy
  const std::size_t blocks = pa.scap.vdd_energy_pj.size();
  EXPECT_THROW(pa.scap.block_energy(Rail::kVdd, blocks), std::out_of_range);
  EXPECT_THROW(pa.scap.block_energy(Rail::kVss, blocks), std::out_of_range);
  EXPECT_THROW(pa.scap.block_scap_mw(Rail::kVdd, blocks), std::out_of_range);
  EXPECT_NO_THROW(pa.scap.block_energy(Rail::kVdd, blocks - 1));
}

TEST(Scap, CapScapRatioIsPeriodOverStw) {
  ScapRig rig;
  const PatternAnalysis pa = rig.analyze_random(3);
  ASSERT_GT(pa.scap.stw_ns, 0.0);
  const double ratio = pa.scap.scap_mw(Rail::kVdd) / pa.scap.cap_mw(Rail::kVdd);
  EXPECT_CLOSE(ratio, pa.scap.period_ns / pa.scap.stw_ns, ref::kEnergyRelTol,
               ref::kDefaultAbsTol);
}

TEST(Scap, ScapExceedsCapWhenWindowShorterThanCycle) {
  // The paper's core observation: STW < T => SCAP > CAP.
  ScapRig rig;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const PatternAnalysis pa = rig.analyze_random(seed);
    if (pa.scap.num_toggles == 0) continue;
    ASSERT_LT(pa.scap.stw_ns, pa.scap.period_ns) << "seed " << seed;
    EXPECT_GT(pa.scap.scap_mw(Rail::kVdd), pa.scap.cap_mw(Rail::kVdd));
  }
}

TEST(Scap, StwIsToggleSpan) {
  ScapRig rig;
  const Pattern p = rig.random_pattern(4);
  const PatternAnalysis pa = rig.analyzer.analyze(rig.ctx, p);
  const ref::SimTrace trace = test::record_trace(rig.analyzer, rig.ctx, p);
  double first = 1e300, last = 0.0;
  for (const ref::ToggleEvent& t : trace.toggles) {
    first = std::min(first, static_cast<double>(t.t_ns));
    last = std::max(last, static_cast<double>(t.t_ns));
  }
  // Toggle timestamps are stored as float; the window tolerance carries an
  // absolute floor scaled to timestamp quantization (see ref/compare.h).
  EXPECT_CLOSE(pa.scap.stw_ns, last - first, ref::kStwRelTol,
               ref::kStwAbsTolNs);
  // Clock insertion delay must not inflate the window.
  EXPECT_LT(pa.scap.stw_ns, last);
}

TEST(Scap, EmptyTraceYieldsZeroPower) {
  // Any real launch may flip some flops; check the algebra of a pass with
  // no toggles directly instead.
  ScapRig rig;
  const ScapReport rep = rig.accumulate({});
  EXPECT_EQ(rep.num_toggles, 0u);
  EXPECT_DOUBLE_EQ(rep.scap_mw(Rail::kVdd), 0.0);
  EXPECT_DOUBLE_EQ(rep.cap_mw(Rail::kVss), 0.0);
}

TEST(Scap, RisingTogglesChargeVddOnly) {
  ScapRig rig;
  const std::pair<NetId, bool> rise{rig.soc.netlist.gate(0).out, true};
  const ScapReport rep = rig.accumulate({&rise, 1});
  EXPECT_GT(rep.vdd_energy_total_pj, 0.0);
  EXPECT_DOUBLE_EQ(rep.vss_energy_total_pj, 0.0);
}

TEST(Scap, BlockAttributionFollowsDriver) {
  ScapRig rig;
  const Netlist& nl = rig.soc.netlist;
  // Find a gate in block B5 (index 4).
  GateId hot_gate = kNullId;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).block == 4) {
      hot_gate = g;
      break;
    }
  }
  ASSERT_NE(hot_gate, kNullId);
  const std::pair<NetId, bool> rise{nl.gate(hot_gate).out, true};
  const ScapReport rep = rig.accumulate({&rise, 1});
  EXPECT_GT(rep.vdd_energy_pj[4], 0.0);
  EXPECT_DOUBLE_EQ(rep.vdd_energy_pj[0], 0.0);
}

TEST(Scap, TesterPeriodUsedForCap) {
  ScapRig rig;
  const PatternAnalysis pa = rig.analyze_random(6);
  EXPECT_DOUBLE_EQ(pa.scap.period_ns, rig.soc.config.tester_period_ns);
}

}  // namespace
}  // namespace scap
