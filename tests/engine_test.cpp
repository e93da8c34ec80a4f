#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "atpg/engine.h"
#include "atpg/fault_sim.h"
#include "atpg/quiet_state.h"
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

TEST(AtpgEngine, RejectsShortPerBlockFill) {
  EngineRig rig;
  ASSERT_GT(rig.nl.block_count(), 1u);
  AtpgEngine engine(rig.nl, rig.ctx);
  AtpgOptions opt;
  opt.per_block_fill.assign(rig.nl.block_count() - 1u, FillMode::kFill0);
  EXPECT_THROW(engine.run(rig.faults, opt), std::invalid_argument);
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

/// Active flops whose captured D differs from `s1`, recounted with the
/// reference evaluator.
std::size_t reference_launches(const Netlist& nl, const TestContext& ctx,
                               const std::vector<std::uint8_t>& s1) {
  const std::vector<std::uint8_t> nets =
      ref::eval_frame_ref(nl, s1, ctx.pi_values);
  std::size_t launches = 0;
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    launches += ctx.active[f] && nets[nl.flop(f).d] != s1[f];
  }
  return launches;
}

/// s1 as hex, four flops per digit, flop 4k + i in bit i of digit k.
std::string to_hex(const std::vector<std::uint8_t>& s1) {
  std::string hex;
  for (std::size_t k = 0; k < s1.size(); k += 4) {
    unsigned nibble = 0;
    for (std::size_t i = 0; i < 4 && k + i < s1.size(); ++i) {
      nibble |= (s1[k + i] & 1u) << i;
    }
    hex += "0123456789abcdef"[nibble];
  }
  return hex;
}

TEST(QuietState, ResidualMatchesReferenceAndRecordedValues) {
  const Netlist& nl = test::small_soc().netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const std::size_t zero_launches =
      reference_launches(nl, ctx, std::vector<std::uint8_t>(nl.num_flops(), 0));
  // One orbit step leaves the greedy bit descent to do the work; the default
  // budget reaches a true fixed point. The recorded states pin the
  // acceptance order of both phases.
  struct Case {
    int iterations;
    std::size_t residual;
    const char* s1_hex;
  };
  const Case cases[] = {
      {24, 0, "8c5ca0adab5ac976276dd17db51290c3b1cc4dc02691e0000000000000"},
      {1, 13, "f5040089201ad8660105c194940290c9f0e82508521040000000000080"},
  };
  for (const Case& c : cases) {
    const QuietState q = compute_quiet_state(nl, ctx, c.iterations);
    ASSERT_EQ(q.s1.size(), nl.num_flops());
    EXPECT_EQ(q.residual_launches, reference_launches(nl, ctx, q.s1))
        << "iterations " << c.iterations;
    EXPECT_LE(q.residual_launches, zero_launches);
    EXPECT_EQ(q.residual_launches, c.residual) << "iterations " << c.iterations;
    EXPECT_EQ(to_hex(q.s1), c.s1_hex) << "iterations " << c.iterations;
  }
}

}  // namespace
}  // namespace scap
