#include <gtest/gtest.h>

#include <bit>

#include "atpg/engine.h"
#include "atpg/fault_sim.h"
#include "obs/metrics.h"
#include "ref/ref_models.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

struct EngineRig {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  TestContext ctx = TestContext::for_domain(nl, 0);
  std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));
};

TEST(AtpgEngine, ReachesReasonableCoverage) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  const AtpgResult res = engine.run(rig.faults, opt);
  EXPECT_GT(res.patterns.size(), 0u);
  EXPECT_GT(res.stats.fault_coverage(), 0.40);
  EXPECT_GE(res.stats.test_coverage(), res.stats.fault_coverage());
  EXPECT_EQ(res.stats.total_faults, rig.faults.size());
}

TEST(AtpgEngine, CoverageCreditsSumToDetected) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  const AtpgResult res = engine.run(rig.faults, opt);
  std::size_t credited = 0;
  for (auto c : res.new_detects_per_pattern) credited += c;
  EXPECT_EQ(credited, res.stats.detected);
  EXPECT_EQ(res.new_detects_per_pattern.size(), res.patterns.size());
  EXPECT_EQ(res.care_bits_per_pattern.size(), res.patterns.size());
}

TEST(AtpgEngine, RegradeConfirmsDetections) {
  // Independent regrade of the produced pattern set must detect at least the
  // engine's detected count (statuses came from the same simulator).
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  const AtpgResult res = engine.run(rig.faults, opt);
  FaultSimulator fsim(rig.nl, rig.ctx);
  const auto first = fsim.grade(res.patterns.patterns, rig.faults, nullptr);
  std::size_t detected = 0;
  for (auto i : first) detected += (i != FaultSimulator::kUndetected);
  EXPECT_EQ(detected, res.stats.detected);
}

TEST(AtpgEngine, DeterministicForSeed) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  opt.seed = 12345;
  const AtpgResult a = engine.run(rig.faults, opt);
  const AtpgResult b = engine.run(rig.faults, opt);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns.patterns[i].s1, b.patterns.patterns[i].s1);
  }
}

TEST(AtpgEngine, FillModeChangesPatterns) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions r;
  r.fill = FillMode::kRandom;
  AtpgOptions z;
  z.fill = FillMode::kFill0;
  const AtpgResult pr = engine.run(rig.faults, r);
  const AtpgResult pz = engine.run(rig.faults, z);
  // fill-0 patterns carry far fewer 1s than random-fill patterns.
  auto ones = [](const PatternSet& ps) {
    std::size_t n = 0;
    for (const auto& p : ps.patterns) {
      for (auto b : p.s1) n += b;
    }
    return n;
  };
  EXPECT_LT(ones(pz.patterns), ones(pr.patterns));
}

TEST(AtpgEngine, TargetBlockRestrictionHonored) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  opt.target_blocks.assign(rig.nl.block_count(), 0);
  opt.target_blocks[0] = 1;  // only B1
  std::vector<FaultStatus> status;
  const AtpgResult res = engine.run(rig.faults, opt, &status);
  // Untestable marks may only appear on B1 faults (only they were targeted).
  for (std::size_t i = 0; i < rig.faults.size(); ++i) {
    if (status[i] == FaultStatus::kUntestable ||
        status[i] == FaultStatus::kAborted) {
      EXPECT_EQ(fault_block(rig.nl, rig.faults[i]), 0);
    }
  }
  // And B1 coverage should be decent while the engine never targeted B5.
  std::size_t b1_detected = 0, b1_total = 0;
  for (std::size_t i = 0; i < rig.faults.size(); ++i) {
    if (fault_block(rig.nl, rig.faults[i]) != 0) continue;
    ++b1_total;
    b1_detected += (status[i] == FaultStatus::kDetected);
  }
  EXPECT_GT(b1_detected, b1_total / 4);
}

TEST(AtpgEngine, StaticUntestablesUndetectedByReferenceGrader) {
  // The engine marks statically unobservable faults untestable without
  // search. The reference grader shares no code with either engine and
  // must detect none of them, under every launch scheme.
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  const TestContext contexts[] = {
      TestContext::for_domain(nl, 0),
      TestContext::for_domain_los(nl, 0, soc.scan.chains),
      TestContext::for_domain_enhanced(nl, 0)};
  // The classification runs before any search, so a small backtrack budget
  // only keeps the runs quick.
  AtpgOptions opt;
  opt.backtrack_limit = 8;
  obs::Counter& counted =
      obs::Registry::global().counter("atpg.static_untestable");
  for (const TestContext& ctx : contexts) {
    const int scheme = static_cast<int>(ctx.scheme);
    const std::uint64_t counted0 = counted.value();
    std::vector<FaultStatus> status;
    AtpgEngine(nl, ctx).run(faults, opt, &status);
    const auto observable = observable_nets(nl, ctx);
    std::vector<TdfFault> classified;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!statically_unobservable(nl, ctx, observable, faults[i])) continue;
      EXPECT_EQ(status[i], FaultStatus::kUntestable)
          << describe_fault(nl, faults[i]) << " scheme " << scheme;
      classified.push_back(faults[i]);
    }
    ASSERT_FALSE(classified.empty()) << "scheme " << scheme;
    if (obs::metrics_enabled()) {
      EXPECT_EQ(counted.value() - counted0, classified.size())
          << "scheme " << scheme;
    }
    Rng rng(77);
    std::vector<Pattern> pats(256);
    for (auto& p : pats) {
      p.s1.resize(ctx.num_vars());
      for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    }
    const auto first = ref::fault_grade_ref(nl, ctx, pats, classified);
    for (std::size_t k = 0; k < classified.size(); ++k) {
      EXPECT_EQ(first[k], ref::kRefUndetected)
          << describe_fault(nl, classified[k]) << " scheme " << scheme
          << " classified untestable but the reference grader detects it";
    }
  }
}

TEST(AtpgEngine, StatusThreadsAcrossRuns) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  std::vector<FaultStatus> status;

  AtpgOptions step1;
  step1.target_blocks.assign(rig.nl.block_count(), 0);
  step1.target_blocks[0] = 1;
  const AtpgResult r1 = engine.run(rig.faults, step1, &status);
  const std::size_t detected_after_1 = r1.stats.detected;

  AtpgOptions step2;
  step2.target_blocks.assign(rig.nl.block_count(), 0);
  step2.target_blocks[4] = 1;  // B5
  const AtpgResult r2 = engine.run(rig.faults, step2, &status);
  EXPECT_GE(r2.stats.detected, detected_after_1);
  // Step 2 must not re-credit step-1 detections.
  std::size_t credited2 = 0;
  for (auto c : r2.new_detects_per_pattern) credited2 += c;
  EXPECT_EQ(r2.stats.detected - detected_after_1, credited2);
}

TEST(AtpgEngine, PerBlockFillApplied) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  opt.per_block_fill.assign(rig.nl.block_count(), FillMode::kFill0);
  opt.per_block_fill[1] = FillMode::kFill1;  // B2 filled with 1s
  opt.target_blocks.assign(rig.nl.block_count(), 0);
  opt.target_blocks[0] = 1;  // target B1 only -> B2 bits are all X -> fill-1
  const AtpgResult res = engine.run(rig.faults, opt);
  ASSERT_GT(res.patterns.size(), 0u);
  // Count fill values in untargeted blocks: B2 flops should be mostly 1.
  std::size_t b2_ones = 0, b2_bits = 0;
  for (const auto& p : res.patterns.patterns) {
    for (FlopId f = 0; f < rig.nl.num_flops(); ++f) {
      if (rig.nl.flop(f).block == 1) {
        ++b2_bits;
        b2_ones += p.s1[f];
      }
    }
  }
  EXPECT_GT(b2_ones, (9 * b2_bits) / 10);
}

TEST(AtpgEngine, CompactionReducesPatternCount) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions with;
  with.compaction_limit = 16;
  AtpgOptions without;
  without.compaction_limit = 0;
  const AtpgResult a = engine.run(rig.faults, with);
  const AtpgResult b = engine.run(rig.faults, without);
  EXPECT_LT(a.patterns.size(), b.patterns.size());
}

TEST(AtpgEngine, CubesLeaveDontCareBitsToFill) {
  // The paper's Section 3.1 leverage: ATPG cubes specify only a fraction of
  // the scan cells, so the fill policy controls most of the switching. Check
  // that X density is substantial overall and varies across the set (greedy
  // compaction makes some patterns far denser than others).
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  const AtpgResult res = engine.run(rig.faults, opt);
  ASSERT_GT(res.patterns.size(), 10u);
  std::size_t total_care = 0, densest = 0, sparsest = SIZE_MAX;
  for (std::size_t c : res.care_bits_per_pattern) {
    total_care += c;
    densest = std::max(densest, c);
    sparsest = std::min(sparsest, c);
  }
  const std::size_t total_bits = res.patterns.size() * rig.nl.num_flops();
  EXPECT_LT(total_care, total_bits / 2) << "most scan bits should be X";
  EXPECT_GT(densest, 2 * std::max<std::size_t>(sparsest, 1));
}

TEST(AtpgEngine, NDetectRaisesDetectionMultiplicity) {
  EngineRig rig;
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions once;
  once.n_detect = 1;
  AtpgOptions thrice;
  thrice.n_detect = 3;
  const AtpgResult r1 = engine.run(rig.faults, once);
  const AtpgResult r3 = engine.run(rig.faults, thrice);
  EXPECT_GT(r3.patterns.size(), r1.patterns.size());
  // Coverage (>= 1 detection) must not drop.
  EXPECT_GE(r3.stats.detected + 5, r1.stats.detected);

  // Count detections per fault across the n=3 set.
  FaultSimulator fsim(rig.nl, rig.ctx);
  std::vector<std::uint32_t> count(rig.faults.size(), 0);
  const auto& pats = r3.patterns.patterns;
  for (std::size_t base = 0; base < pats.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, pats.size() - base);
    fsim.load_batch(std::span<const Pattern>(pats.data() + base, n));
    for (std::size_t i = 0; i < rig.faults.size(); ++i) {
      count[i] += static_cast<std::uint32_t>(
          std::popcount(fsim.detect_mask(rig.faults[i])));
    }
  }
  std::size_t detected = 0, satisfied = 0;
  for (std::size_t i = 0; i < rig.faults.size(); ++i) {
    if (count[i] == 0) continue;
    ++detected;
    satisfied += (count[i] >= 3);
  }
  ASSERT_GT(detected, 0u);
  EXPECT_GT(satisfied * 10, detected * 7)
      << "most detected faults should reach 3 detections";
}

}  // namespace
}  // namespace scap
