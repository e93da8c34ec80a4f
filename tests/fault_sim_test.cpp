#include <gtest/gtest.h>

#include "atpg/fault_sim.h"
#include "ref/ref_models.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

/// Slow, obviously-correct reference: one pattern, one fault through the
/// reference grader (scalar fixpoint frames, stuck value forced).
bool reference_detects(const Netlist& nl, const TestContext& ctx,
                       const Pattern& p, const TdfFault& fault) {
  return ref::fault_grade_ref(nl, ctx, std::span<const Pattern>(&p, 1),
                              std::span<const TdfFault>(&fault, 1))[0] !=
         ref::kRefUndetected;
}

struct SimRig {
  const Netlist& nl = test::tiny_soc().netlist;
  TestContext ctx = TestContext::for_domain(nl, 0);
  std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));

  std::vector<Pattern> random_patterns(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Pattern> pats(n);
    for (auto& p : pats) {
      p.s1.resize(nl.num_flops());
      for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    }
    return pats;
  }
};

TEST(FaultSim, MatchesScalarReference) {
  SimRig rig;
  const auto pats = rig.random_patterns(64, 77);
  FaultSimulator fsim(rig.nl, rig.ctx);
  Rng rng(5);
  // Sample faults across the whole list.
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 120; ++trial) {
    sample.push_back(rig.faults[rng.below(rig.faults.size())]);
  }
  const std::size_t lanes[] = {0, 13, 40, 63};
  std::vector<Pattern> lane_pats;
  for (std::size_t lane : lanes) lane_pats.push_back(pats[lane]);
  const auto masks = test::detection_masks(fsim, lane_pats, sample);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (std::size_t j = 0; j < lane_pats.size(); ++j) {
      const bool expected =
          reference_detects(rig.nl, rig.ctx, lane_pats[j], sample[k]);
      ASSERT_EQ((masks[k] >> j) & 1, expected ? 1u : 0u)
          << describe_fault(rig.nl, sample[k]) << " lane " << lanes[j];
    }
  }
}

TEST(FaultSim, NoLaunchNoDetection) {
  SimRig rig;
  // A fault whose site holds the same value in both frames cannot launch.
  const auto pats = rig.random_patterns(1, 3);
  FaultSimulator fsim(rig.nl, rig.ctx);
  const std::vector<std::uint8_t> f1 =
      ref::eval_frame_ref(rig.nl, pats[0].s1, rig.ctx.pi_values);
  std::vector<std::uint8_t> s2(rig.nl.num_flops());
  for (FlopId f = 0; f < rig.nl.num_flops(); ++f) {
    s2[f] = rig.ctx.active[f] ? f1[rig.nl.flop(f).d] : pats[0].s1[f];
  }
  const std::vector<std::uint8_t> g2 =
      ref::eval_frame_ref(rig.nl, s2, rig.ctx.pi_values);
  std::vector<TdfFault> quiet;
  for (const auto& fault : rig.faults) {
    if (f1[fault.net] == g2[fault.net]) {  // no transition at the site
      quiet.push_back(fault);
      if (quiet.size() > 200) break;
    }
  }
  ASSERT_FALSE(quiet.empty());
  const auto first = fsim.grade(pats, quiet);
  for (std::size_t k = 0; k < quiet.size(); ++k) {
    EXPECT_EQ(first[k], FaultSimulator::kUndetected)
        << describe_fault(rig.nl, quiet[k]);
  }
}

TEST(FaultSim, FlopBranchDetectedOnLaunchAlone) {
  SimRig rig;
  const auto pats = rig.random_patterns(64, 9);
  FaultSimulator fsim(rig.nl, rig.ctx);
  int found = 0;
  // Collapsing folds most flop-branch faults into their stems; check the
  // uncollapsed universe.
  const auto universe = enumerate_faults(rig.nl);
  for (const auto& fault : universe) {
    if (fault.site != FaultSite::kFlopBranch) continue;
    const std::uint64_t mask = test::detection_mask(fsim, pats, fault);
    for (int lane = 0; lane < 64 && found < 50; ++lane) {
      const bool expected = reference_detects(rig.nl, rig.ctx, pats[lane], fault);
      ASSERT_EQ((mask >> lane) & 1, expected ? 1u : 0u);
      ++found;
    }
    if (found >= 50) break;
  }
  EXPECT_GT(found, 0);
}

TEST(FaultSim, InactiveDomainFlopsDoNotObserve) {
  SimRig rig;
  // Test context for domain 1 (the tiny SOC's second domain).
  const TestContext ctx1 = TestContext::for_domain(rig.nl, 1);
  FaultSimulator fsim(rig.nl, ctx1);
  const auto pats = rig.random_patterns(64, 10);
  // A flop-branch fault on a domain-0 flop cannot be observed in a domain-1
  // test session.
  for (const auto& fault : rig.faults) {
    if (fault.site == FaultSite::kFlopBranch &&
        rig.nl.flop(fault.load).domain == 0) {
      EXPECT_EQ(fsim.grade(pats, std::span<const TdfFault>(&fault, 1))[0],
                FaultSimulator::kUndetected);
      break;
    }
  }
}

TEST(FaultSim, GradeDropsAndCredits) {
  SimRig rig;
  const auto pats = rig.random_patterns(150, 11);  // spans 3 batches
  FaultSimulator fsim(rig.nl, rig.ctx);
  std::vector<std::size_t> per_pattern;
  const auto first = fsim.grade(pats, rig.faults, &per_pattern);

  ASSERT_EQ(per_pattern.size(), pats.size());
  std::size_t detected = 0;
  for (auto idx : first) detected += (idx != FaultSimulator::kUndetected);
  std::size_t credited = 0;
  for (auto c : per_pattern) credited += c;
  EXPECT_EQ(detected, credited);
  EXPECT_GT(detected, rig.faults.size() / 4);
  // First-detection indices must be valid pattern indices.
  for (auto idx : first) {
    if (idx != FaultSimulator::kUndetected) EXPECT_LT(idx, pats.size());
  }
}

TEST(FaultSim, GradeIsMonotoneInPatternCount) {
  SimRig rig;
  const auto pats = rig.random_patterns(128, 12);
  FaultSimulator fsim(rig.nl, rig.ctx);
  const auto first64 = fsim.grade(std::span<const Pattern>(pats).first(64),
                                  rig.faults, nullptr);
  const auto first128 = fsim.grade(pats, rig.faults, nullptr);
  std::size_t d64 = 0, d128 = 0;
  for (auto i : first64) d64 += (i != FaultSimulator::kUndetected);
  for (auto i : first128) d128 += (i != FaultSimulator::kUndetected);
  EXPECT_GE(d128, d64);
  // The first 64 patterns give identical first-detect indices in both runs.
  for (std::size_t i = 0; i < rig.faults.size(); ++i) {
    if (first64[i] != FaultSimulator::kUndetected) {
      EXPECT_EQ(first128[i], first64[i]);
    }
  }
}

TEST(FaultSim, PartialBatchMasksHighLanes) {
  SimRig rig;
  const auto pats = rig.random_patterns(5, 13);
  FaultSimulator fsim(rig.nl, rig.ctx);
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 50; ++trial) {
    sample.push_back(rig.faults[static_cast<std::size_t>(trial) * 37 %
                                rig.faults.size()]);
  }
  for (const std::size_t W : {std::size_t{1}, std::size_t{4}}) {
    fsim.set_batch_words(W);
    for (const std::size_t idx : fsim.grade(pats, sample)) {
      if (idx == FaultSimulator::kUndetected) continue;
      EXPECT_LT(idx, pats.size()) << "lanes beyond the batch must stay clear";
    }
  }
}

TEST(FaultSim, GradeRejectsPatternShorterThanTheContext) {
  SimRig rig;
  FaultSimulator fsim(rig.nl, rig.ctx);
  auto pats = rig.random_patterns(4, 14);
  pats[2].s1.resize(3);
  EXPECT_THROW(fsim.grade(pats, rig.faults), std::invalid_argument);
}

}  // namespace
}  // namespace scap
