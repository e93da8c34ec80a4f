// Launch-off-shift (LOS) support: wiring, fault simulation, PODEM, engine,
// and the classic LOS-vs-LOC power comparison the SCAP model quantifies.
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "atpg/fault_sim.h"
#include "atpg/podem.h"
#include "core/pattern_sim.h"
#include "core/validation.h"
#include "ref/ref_models.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

struct LosRig {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  TestContext loc = TestContext::for_domain(nl, 0);
  TestContext los = TestContext::for_domain_los(nl, 0, soc.scan.chains);
  std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));

  std::vector<Pattern> random_patterns(std::size_t n, std::uint64_t seed,
                                       const TestContext& ctx) {
    Rng rng(seed);
    std::vector<Pattern> pats(n);
    for (auto& p : pats) {
      p.s1.resize(ctx.num_vars());
      for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    }
    return pats;
  }
};

TEST(LosContext, WiringFollowsChains) {
  LosRig rig;
  EXPECT_EQ(rig.los.num_scan_in, rig.soc.scan.chains.size());
  EXPECT_EQ(rig.los.num_vars(),
            rig.nl.num_flops() + rig.soc.scan.chains.size());
  for (std::size_t c = 0; c < rig.soc.scan.chains.size(); ++c) {
    const auto& chain = rig.soc.scan.chains[c];
    if (chain.empty()) continue;
    // First cell is fed by the chain's scan-in variable...
    EXPECT_EQ(rig.los.los_pred[chain[0]], rig.nl.num_flops() + c);
    // ...and every later cell by its shift predecessor.
    for (std::size_t i = 1; i < chain.size(); ++i) {
      EXPECT_EQ(rig.los.los_pred[chain[i]], chain[i - 1]);
    }
  }
}

/// Scalar reference for LOS detection: the reference grader, which takes
/// the launch state from the shift predecessors for explicit-S2 contexts.
bool los_reference_detects(const Netlist& nl, const TestContext& ctx,
                           const Pattern& p, const TdfFault& fault) {
  return ref::fault_grade_ref(nl, ctx, std::span<const Pattern>(&p, 1),
                              std::span<const TdfFault>(&fault, 1))[0] !=
         ref::kRefUndetected;
}

TEST(LosFaultSim, MatchesScalarReference) {
  LosRig rig;
  const auto pats = rig.random_patterns(64, 3, rig.los);
  FaultSimulator fsim(rig.nl, rig.los);
  Rng rng(4);
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 100; ++trial) {
    sample.push_back(rig.faults[rng.below(rig.faults.size())]);
  }
  const std::size_t lanes[] = {0, 17, 63};
  std::vector<Pattern> lane_pats;
  for (std::size_t lane : lanes) lane_pats.push_back(pats[lane]);
  const auto masks = test::detection_masks(fsim, lane_pats, sample);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (std::size_t j = 0; j < lane_pats.size(); ++j) {
      ASSERT_EQ((masks[k] >> j) & 1,
                los_reference_detects(rig.nl, rig.los, lane_pats[j], sample[k])
                    ? 1u
                    : 0u)
          << describe_fault(rig.nl, sample[k]) << " lane " << lanes[j];
    }
  }
}

TEST(LosPodem, ProbeAgreesWithFaultSim) {
  LosRig rig;
  Podem podem(rig.nl, rig.los);
  FaultSimulator fsim(rig.nl, rig.los);
  const auto pats = rig.random_patterns(8, 5, rig.los);
  Rng rng(6);
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 50; ++trial) {
    sample.push_back(rig.faults[rng.below(rig.faults.size())]);
  }
  const auto masks = test::detection_masks(fsim, pats, sample);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (std::size_t lane = 0; lane < pats.size(); ++lane) {
      ASSERT_EQ(podem.probe(sample[k], pats[lane].s1),
                ((masks[k] >> lane) & 1) != 0)
          << describe_fault(rig.nl, sample[k]) << " lane " << lane;
    }
  }
}

TEST(LosPodem, CubesDetectTheirTargets) {
  LosRig rig;
  Podem podem(rig.nl, rig.los, PodemOptions{48});
  FaultSimulator fsim(rig.nl, rig.los);
  Rng rng(7);
  int detected = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto& fault = rig.faults[rng.below(rig.faults.size())];
    TestCube cube;
    if (podem.generate(fault, cube) != PodemStatus::kDetected) continue;
    ++detected;
    Pattern p;
    p.s1 = cube.s1;
    for (auto& b : p.s1) {
      if (b == kBitX) b = 0;
    }
    ASSERT_NE(fsim.grade(std::span<const Pattern>(&p, 1),
                         std::span<const TdfFault>(&fault, 1))[0],
              FaultSimulator::kUndetected)
        << describe_fault(rig.nl, fault);
  }
  EXPECT_GT(detected, 50);
}

TEST(LosEngine, EndToEndRun) {
  LosRig rig;
  AtpgEngine engine(rig.nl, rig.los);
  AtpgOptions opt;
  const AtpgResult res = engine.run(rig.faults, opt);
  EXPECT_GT(res.patterns.size(), 0u);
  EXPECT_GT(res.stats.fault_coverage(), 0.40);
  for (const Pattern& p : res.patterns.patterns) {
    EXPECT_EQ(p.s1.size(), rig.los.num_vars());
  }
}

TEST(LosEngine, PerBlockQuietFillRuns) {
  // Per-block fill covers the flop bits with a quiet state sized for every
  // test variable, scan-in bits included: the longer state must be accepted.
  LosRig rig;
  AtpgEngine engine(rig.nl, rig.los);
  AtpgOptions opt;
  opt.per_block_fill.assign(rig.nl.block_count(), FillMode::kQuiet);
  const AtpgResult res = engine.run(rig.faults, opt);
  EXPECT_GT(res.patterns.size(), 0u);
  EXPECT_GT(res.stats.fault_coverage(), 0.40);
  for (const Pattern& p : res.patterns.patterns) {
    ASSERT_EQ(p.s1.size(), rig.los.num_vars());
    for (const std::uint8_t b : p.s1) EXPECT_LT(b, 2);
  }
}

TEST(LosEngine, PerBlockQuietFillMatchesUniformQuiet) {
  // A launch variable (LOS scan-in, enhanced-scan V2) takes the fill mode of
  // the block of the flop it launches, so quiet fill in every block is
  // uniform quiet fill, launch variables included, bit for bit.
  LosRig rig;
  const TestContext enh = TestContext::for_domain_enhanced(rig.nl, 0);
  const TestContext* contexts[] = {&rig.los, &enh};
  for (const TestContext* ctx : contexts) {
    AtpgEngine engine(rig.nl, *ctx);
    AtpgOptions uniform;
    uniform.fill = FillMode::kQuiet;
    AtpgOptions per_block;
    per_block.per_block_fill.assign(rig.nl.block_count(), FillMode::kQuiet);
    const AtpgResult a = engine.run(rig.faults, uniform);
    const AtpgResult b = engine.run(rig.faults, per_block);
    ASSERT_EQ(a.patterns.size(), b.patterns.size())
        << "scheme " << static_cast<int>(ctx->scheme);
    for (std::size_t i = 0; i < a.patterns.size(); ++i) {
      ASSERT_EQ(a.patterns.patterns[i].s1, b.patterns.patterns[i].s1)
          << "scheme " << static_cast<int>(ctx->scheme) << " pattern " << i;
    }
  }
}

TEST(LosVsLoc, LosCoversAtLeastComparably) {
  // With a fully controllable S2, LOS usually detects more TDFs than LOC
  // (some LOC-testable faults need functional states LOS can't shift in, so
  // allow a small deficit).
  LosRig rig;
  AtpgEngine engine(rig.nl, rig.los);
  AtpgEngine engine_loc(rig.nl, rig.loc);
  AtpgOptions opt;
  const AtpgResult los = engine.run(rig.faults, opt);
  const AtpgResult loc = engine_loc.run(rig.faults, opt);
  EXPECT_GT(los.stats.fault_coverage(), loc.stats.fault_coverage() - 0.03);
}

TEST(LosVsLoc, LosLaunchesMoreAndBurnsMore) {
  // The well-known LOS cost: the launch shift toggles every chain, so launch
  // switching (and SCAP) exceeds broadside's on average.
  LosRig rig;
  PatternAnalyzer analyzer(rig.soc, TechLibrary::generic180());
  Rng rng(8);
  double los_launches = 0.0, loc_launches = 0.0;
  double los_scap = 0.0, loc_scap = 0.0;
  const int kTrials = 6;
  for (int t = 0; t < kTrials; ++t) {
    Pattern p_los;
    p_los.s1.resize(rig.los.num_vars());
    for (auto& b : p_los.s1) b = static_cast<std::uint8_t>(rng.below(2));
    Pattern p_loc;
    p_loc.s1.assign(p_los.s1.begin(),
                    p_los.s1.begin() + static_cast<std::ptrdiff_t>(
                                           rig.nl.num_flops()));
    const auto a_los = analyzer.analyze(rig.los, p_los);
    const auto a_loc = analyzer.analyze(rig.loc, p_loc);
    los_launches += static_cast<double>(a_los.launched_flops);
    loc_launches += static_cast<double>(a_loc.launched_flops);
    los_scap += a_los.scap.scap_mw(Rail::kVdd) + a_los.scap.scap_mw(Rail::kVss);
    loc_scap += a_loc.scap.scap_mw(Rail::kVdd) + a_loc.scap.scap_mw(Rail::kVss);
  }
  EXPECT_GT(los_launches, loc_launches);
  EXPECT_GT(los_scap, loc_scap);
}

TEST(LosPattern, HeldDomainsStillShift) {
  // Unlike LOC (held flops keep S1), the launch shift moves *every* scan
  // flop, including other domains' -- one reason LOS burns more power.
  LosRig rig;
  PatternAnalyzer analyzer(rig.soc, TechLibrary::generic180());
  Rng rng(9);
  Pattern p;
  p.s1.resize(rig.los.num_vars());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  const ref::SimTrace trace = test::record_trace(analyzer, rig.los, p);
  bool inactive_launched = false;
  // Verify via toggles on an inactive flop's Q net.
  for (const ref::ToggleEvent& t : trace.toggles) {
    const Net& nr = rig.nl.net(t.net);
    if (nr.driver_kind == DriverKind::kFlop && !rig.los.active[nr.driver]) {
      inactive_launched = true;
      break;
    }
  }
  EXPECT_TRUE(inactive_launched);
}

TEST(EnhancedScan, FullControlBeatsOrMatchesBothSchemes) {
  LosRig rig;
  const TestContext enh =
      TestContext::for_domain_enhanced(rig.nl, 0);
  EXPECT_EQ(enh.num_vars(), 2 * rig.nl.num_flops());
  AtpgOptions opt;
  AtpgEngine e_enh(rig.nl, enh);
  AtpgEngine e_los(rig.nl, rig.los);
  AtpgEngine e_loc(rig.nl, rig.loc);
  const AtpgResult r_enh = e_enh.run(rig.faults, opt);
  const AtpgResult r_los = e_los.run(rig.faults, opt);
  const AtpgResult r_loc = e_loc.run(rig.faults, opt);
  // Enhanced scan subsumes both launch mechanisms (V1, V2 arbitrary).
  EXPECT_GE(r_enh.stats.fault_coverage() + 1e-9,
            r_los.stats.fault_coverage());
  EXPECT_GE(r_enh.stats.fault_coverage() + 1e-9,
            r_loc.stats.fault_coverage());
}

TEST(EnhancedScan, ProbeAgreesWithFaultSim) {
  LosRig rig;
  const TestContext enh = TestContext::for_domain_enhanced(rig.nl, 0);
  Podem podem(rig.nl, enh);
  FaultSimulator fsim(rig.nl, enh);
  Rng rng(12);
  std::vector<Pattern> pats(8);
  for (auto& p : pats) {
    p.s1.resize(enh.num_vars());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 40; ++trial) {
    sample.push_back(rig.faults[rng.below(rig.faults.size())]);
  }
  const auto masks = test::detection_masks(fsim, pats, sample);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (std::size_t lane = 0; lane < pats.size(); ++lane) {
      ASSERT_EQ(podem.probe(sample[k], pats[lane].s1),
                ((masks[k] >> lane) & 1) != 0)
          << describe_fault(rig.nl, sample[k]) << " lane " << lane;
    }
  }
}

TEST(EnhancedScan, EveryLaunchValueIndependent) {
  // Setting only the V2 tail leaves S1 free and vice versa: a launch
  // transition can be forced on any single flop.
  LosRig rig;
  const TestContext enh = TestContext::for_domain_enhanced(rig.nl, 0);
  PatternAnalyzer analyzer(rig.soc, TechLibrary::generic180());
  Pattern p;
  p.s1.assign(enh.num_vars(), 0);
  const FlopId target = 3;
  p.s1[rig.nl.num_flops() + target] = 1;  // V2 of one flop differs
  ref::TraceRecorder rec;
  EXPECT_GE(analyzer.analyze_into(enh, p, rec), 1u);
  bool target_toggled = false;
  for (const ref::ToggleEvent& t : rec.trace().toggles) {
    const Net& nr = rig.nl.net(t.net);
    if (nr.driver_kind == DriverKind::kFlop && nr.driver == target) {
      target_toggled = true;
    }
  }
  EXPECT_TRUE(target_toggled);
}

}  // namespace
}  // namespace scap
