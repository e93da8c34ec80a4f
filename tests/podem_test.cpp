#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atpg/fault_sim.h"
#include "atpg/podem.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

/// Confirm a generated cube really detects the fault (fill X with 0s and run
/// the fault simulator).
bool cube_detects(const Netlist& nl, const TestContext& ctx,
                  const TestCube& cube, const TdfFault& fault) {
  Pattern p;
  p.s1 = cube.s1;
  for (auto& b : p.s1) {
    if (b == kBitX) b = 0;
  }
  FaultSimulator fsim(nl, ctx);
  return fsim.grade(std::span<const Pattern>(&p, 1),
                    std::span<const TdfFault>(&fault, 1))[0] !=
         FaultSimulator::kUndetected;
}

TEST(Podem, DetectsSimpleStemFault) {
  Netlist nl = test::tiny_netlist();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  Podem podem(nl, ctx);
  // Slow-to-fall on n1 (output of gate 0): frame1 n1=1, frame2 n1=0,
  // stuck-at-1 must reach a flop.
  const TdfFault fault{nl.gate(0).out, FaultSite::kStem, kNullId, 0,
                       TdfType::kSlowToFall};
  TestCube cube;
  ASSERT_EQ(podem.generate(fault, cube), PodemStatus::kDetected);
  EXPECT_TRUE(cube_detects(nl, ctx, cube, fault));
  EXPECT_GT(cube.care_bits(), 0u);
}

TEST(Podem, PiConeFaultUntestable) {
  // PIs are held constant during test: a fault on a PI-driven net can never
  // launch a transition.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.add_net("q");
  const NetId n1 = nl.add_net("n1");
  const NetId d = nl.add_net("d");
  const NetId ins[] = {a};
  nl.add_gate(CellType::kInv, ins, n1);
  const NetId ins2[] = {n1, q};
  nl.add_gate(CellType::kAnd2, ins2, d);
  nl.add_flop(d, q, 0, 0);
  nl.finalize();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  Podem podem(nl, ctx);
  const TdfFault fault{n1, FaultSite::kStem, kNullId, 0, TdfType::kSlowToRise};
  TestCube cube;
  EXPECT_EQ(podem.generate(fault, cube), PodemStatus::kUntestable);
}

TEST(Podem, UnobservableFaultUntestable) {
  // A fault whose only path of effect leads to a PO (not strobed) and to no
  // flop is untestable.
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId n1 = nl.add_net("n1");
  const NetId d = nl.add_net("d");
  const NetId po = nl.add_net("po");
  const NetId ins[] = {q};
  nl.add_gate(CellType::kInv, ins, n1);
  const NetId ins2[] = {n1};
  nl.add_gate(CellType::kBuf, ins2, po);
  nl.mark_output(po);
  const NetId ins3[] = {q};
  nl.add_gate(CellType::kBuf, ins3, d);
  nl.add_flop(d, q, 0, 0);
  nl.finalize();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  Podem podem(nl, ctx);
  const TdfFault fault{po, FaultSite::kStem, kNullId, 0, TdfType::kSlowToRise};
  TestCube cube;
  EXPECT_EQ(podem.generate(fault, cube), PodemStatus::kUntestable);
}

TEST(Podem, HeldDomainFaultUntestableInOtherSession) {
  // tiny_soc has domains 0 and 1. In a domain-0 session, logic fed solely by
  // held domain-1 flops cannot launch.
  const Netlist& nl = test::tiny_soc().netlist;
  const TestContext ctx0 = TestContext::for_domain(nl, 0);
  Podem podem(nl, ctx0);
  // Find a domain-1 flop's Q stem fault whose value cannot change between
  // frames (held). It may still be untestable or testable through domain-0
  // cones; just assert PODEM terminates with a definite status.
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (nl.flop(f).domain != 1) continue;
    const TdfFault fault{nl.flop(f).q, FaultSite::kStem, kNullId, 0,
                         TdfType::kSlowToRise};
    TestCube cube;
    EXPECT_EQ(podem.generate(fault, cube), PodemStatus::kUntestable)
        << "held flop cannot launch a transition on its own Q";
    break;
  }
}

struct PodemRig {
  const Netlist& nl = test::tiny_soc().netlist;
  TestContext ctx = TestContext::for_domain(nl, 0);
  std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));
};

TEST(Podem, GeneratedCubesAlwaysDetectTheirTarget) {
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx, PodemOptions{48});
  Rng rng(21);
  int detected = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const auto& fault = rig.faults[rng.below(rig.faults.size())];
    TestCube cube;
    if (podem.generate(fault, cube) == PodemStatus::kDetected) {
      ++detected;
      ASSERT_TRUE(cube_detects(rig.nl, rig.ctx, cube, fault))
          << describe_fault(rig.nl, fault);
    }
  }
  EXPECT_GT(detected, 40);
}

TEST(Podem, ProbeAgreesWithFaultSimulator) {
  // Under full assignments the 3-valued implication is exact, so probe()
  // must agree with the bit-parallel fault simulator on every fault/pattern.
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx);
  FaultSimulator fsim(rig.nl, rig.ctx);
  Rng rng(31);
  std::vector<Pattern> pats(8);
  for (auto& p : pats) {
    p.s1.resize(rig.nl.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 60; ++trial) {
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

/// Any fault PODEM calls untestable must indeed be undetected by a big
/// random pattern sample. Every fault is tried, so the X-path pruning is
/// checked wherever PODEM proves a fault untestable. (The fault simulator
/// shares the static classification; engine_test checks that against the
/// reference grader.)
void expect_no_false_untestables(const Netlist& nl, const TestContext& ctx,
                                 const std::vector<TdfFault>& faults) {
  Podem podem(nl, ctx, PodemOptions{48});
  FaultSimulator fsim(nl, ctx);
  Rng rng(41);
  std::vector<Pattern> pats(512);
  for (auto& p : pats) {
    p.s1.resize(ctx.num_vars());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  const auto first = fsim.grade(pats, faults, nullptr);
  int unt = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    TestCube cube;
    if (podem.generate(faults[i], cube) == PodemStatus::kUntestable) {
      ++unt;
      EXPECT_EQ(first[i], FaultSimulator::kUndetected)
          << describe_fault(nl, faults[i])
          << " claimed untestable but a random pattern detects it";
    }
  }
  EXPECT_GT(unt, 0) << "sample should contain some untestable faults";
}

TEST(Podem, NoFalseUntestables) {
  PodemRig rig;
  expect_no_false_untestables(rig.nl, rig.ctx, rig.faults);
}

TEST(Podem, NoFalseUntestablesLos) {
  PodemRig rig;
  const TestContext los =
      TestContext::for_domain_los(rig.nl, 0, test::tiny_soc().scan.chains);
  expect_no_false_untestables(rig.nl, los, rig.faults);
}

TEST(Podem, StaticallyUnobservableFaultsSkipSearch) {
  // A fault with no combinational path to a capturing flop is untestable
  // without a single implication.
  PodemRig rig;
  const auto observable = observable_nets(rig.nl, rig.ctx);
  std::vector<TdfFault> unobservable;
  for (const auto& f : rig.faults) {
    if (statically_unobservable(rig.nl, rig.ctx, observable, f)) {
      unobservable.push_back(f);
    }
  }
  ASSERT_FALSE(unobservable.empty())
      << "the held domain-1 cones are unobservable";

  Podem podem(rig.nl, rig.ctx);
  for (const auto& f : unobservable) {
    const std::uint64_t impl0 = podem.implications();
    const std::uint64_t bt0 = podem.backtracks();
    TestCube cube;
    EXPECT_EQ(podem.generate(f, cube), PodemStatus::kUntestable)
        << describe_fault(rig.nl, f);
    EXPECT_EQ(podem.implications(), impl0) << describe_fault(rig.nl, f);
    EXPECT_EQ(podem.backtracks(), bt0) << describe_fault(rig.nl, f);
  }
}

TEST(Podem, ExtendMergesCompatibleFaults) {
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx);
  Rng rng(51);
  int merged_trials = 0;
  for (int trial = 0; trial < 20 && merged_trials < 5; ++trial) {
    const auto& f1 = rig.faults[rng.below(rig.faults.size())];
    const auto& f2 = rig.faults[rng.below(rig.faults.size())];
    TestCube c1, c2;
    if (podem.generate(f1, c1) != PodemStatus::kDetected) continue;
    if (podem.extend(f2, c2) != PodemStatus::kDetected) continue;
    ++merged_trials;
    // The merged cube detects BOTH faults.
    EXPECT_TRUE(cube_detects(rig.nl, rig.ctx, c2, f1));
    EXPECT_TRUE(cube_detects(rig.nl, rig.ctx, c2, f2));
    // The merge only adds assignments, never changes existing care bits.
    for (std::size_t b = 0; b < c1.s1.size(); ++b) {
      if (c1.s1[b] != kBitX) {
        EXPECT_EQ(c2.s1[b], c1.s1[b]);
      }
    }
  }
  EXPECT_GE(merged_trials, 3);
}

TEST(Podem, ExtendFailureRestoresState) {
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx);
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const auto& f1 = rig.faults[rng.below(rig.faults.size())];
    TestCube c1;
    if (podem.generate(f1, c1) != PodemStatus::kDetected) continue;
    // Try to extend with faults until one fails; the cube must be unchanged.
    for (int k = 0; k < 20; ++k) {
      const auto& f2 = rig.faults[rng.below(rig.faults.size())];
      TestCube c2;
      const PodemStatus st = podem.extend(f2, c2);
      if (st != PodemStatus::kDetected) {
        EXPECT_EQ(podem.cube().s1, c1.s1);
        return;
      }
      c1 = c2;  // extended; new baseline
    }
  }
  GTEST_SKIP() << "no failing extension found in sample";
}

TEST(Podem, ClearAssignmentsResets) {
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx);
  TestCube cube;
  for (const auto& f : rig.faults) {
    if (podem.generate(f, cube) == PodemStatus::kDetected) break;
  }
  podem.clear_assignments();
  const TestCube after = podem.cube();
  for (auto b : after.s1) EXPECT_EQ(b, kBitX);
}

/// One call's observable outcome: status, cube (when detected) and the
/// work it took.
struct CallResult {
  PodemStatus status;
  std::vector<std::uint8_t> cube;
  std::uint64_t implications;
  std::uint64_t backtracks;

  friend bool operator==(const CallResult&, const CallResult&) = default;
};

CallResult observe(Podem& podem, const TdfFault& f, bool extend) {
  const std::uint64_t impl0 = podem.implications();
  const std::uint64_t bt0 = podem.backtracks();
  TestCube out;
  const PodemStatus st =
      extend ? podem.extend(f, out) : podem.generate(f, out);
  CallResult r{st, {}, podem.implications() - impl0, podem.backtracks() - bt0};
  if (st == PodemStatus::kDetected) r.cube = out.s1;
  return r;
}

/// A call must depend on nothing but the assignment it starts from, the
/// fault and the options -- not on the calls a Podem ran before -- under
/// `ctx`. Replicas synced by adopt() and a busy Podem whose generate()
/// restores the all-X planes must match a fresh one call for call.
void expect_calls_pure(const Netlist& nl, const TestContext& ctx,
                       const std::vector<TdfFault>& faults) {
  const PodemOptions opt{16, /*seed=*/7};
  Podem busy(nl, ctx, opt);
  Rng rng(81);
  auto random_fault = [&] { return faults[rng.below(faults.size())]; };
  int backtracking_calls = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const TdfFault f = random_fault();
    // Leave `busy` in an arbitrary state: other targets and merges.
    for (int k = 0; k < 3; ++k) {
      TestCube scratch;
      busy.generate(random_fault(), scratch);
      busy.extend(random_fault(), scratch);
    }
    Podem fresh(nl, ctx, opt);
    const CallResult a = observe(fresh, f, /*extend=*/false);
    ASSERT_EQ(a, observe(busy, f, /*extend=*/false)) << describe_fault(nl, f);
    backtracking_calls += a.backtracks > 0;
    if (a.status != PodemStatus::kDetected) continue;

    // extend() on a replica that adopted the cube -- growing from a subset,
    // or moving from an unrelated cube -- matches extend() on the Podem that
    // built it.
    TestCube cube;
    cube.s1 = a.cube;
    Podem from_empty(nl, ctx, opt);
    from_empty.adopt(cube);
    TestCube other;
    while (busy.generate(random_fault(), other) != PodemStatus::kDetected) {
    }
    busy.adopt(cube);
    ASSERT_EQ(from_empty.cube().s1, cube.s1);
    ASSERT_EQ(busy.cube().s1, cube.s1);
    for (int k = 0; k < 4; ++k) {
      const TdfFault g = random_fault();
      const CallResult built = observe(fresh, g, /*extend=*/true);
      ASSERT_EQ(built, observe(from_empty, g, /*extend=*/true))
          << describe_fault(nl, g);
      ASSERT_EQ(built, observe(busy, g, /*extend=*/true))
          << describe_fault(nl, g);
      backtracking_calls += built.backtracks > 0;
    }
  }
  EXPECT_GT(backtracking_calls, 0) << "the salt only matters on backtracks";
}

TEST(Podem, CallsArePureInAssignmentAndFault) {
  // The engine searches speculatively on replicas; the launch schemes differ
  // in how S2 is implied (captured, shifted, or held variables).
  PodemRig rig;
  const TestContext contexts[] = {
      rig.ctx,
      TestContext::for_domain_los(rig.nl, 0, test::tiny_soc().scan.chains),
      TestContext::for_domain_enhanced(rig.nl, 0)};
  for (const TestContext& ctx : contexts) {
    SCOPED_TRACE(static_cast<int>(ctx.scheme));
    expect_calls_pure(rig.nl, ctx, rig.faults);
  }
}

/// A sequence of PODEM calls folded into one digest: each call's status,
/// its cube when detected, its implications and backtracks, and the
/// assignment it leaves behind, in call order.
struct SearchDigest {
  std::uint64_t hash = test::kFnvBasis;
  std::uint64_t implications = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t detected = 0;
  std::uint64_t aborted = 0;
  std::uint64_t untestable = 0;

  /// Run one call, fold it in, and return its status.
  PodemStatus add(Podem& podem, const TdfFault& f, bool extend) {
    const CallResult r = observe(podem, f, extend);
    hash = test::fnv1a(static_cast<std::uint64_t>(r.status), hash);
    hash = test::fnv1a(r.cube, hash);
    hash = test::fnv1a(r.implications, hash);
    hash = test::fnv1a(r.backtracks, hash);
    hash = test::fnv1a(podem.cube().s1, hash);
    implications += r.implications;
    backtracks += r.backtracks;
    detected += r.status == PodemStatus::kDetected;
    aborted += r.status == PodemStatus::kAborted;
    untestable += r.status == PodemStatus::kUntestable;
    return r.status;
  }

  friend bool operator==(const SearchDigest&, const SearchDigest&) = default;
};

std::ostream& operator<<(std::ostream& os, const SearchDigest& d) {
  return os << "{0x" << std::hex << d.hash << std::dec << "ull, "
            << d.implications << ", " << d.backtracks << ", " << d.detected
            << ", " << d.aborted << ", " << d.untestable << "}";
}

TEST(Podem, GoldenSearchesBitForBit) {
  // Pins every search of a fixed fault sample bit for bit: a faster
  // implication must leave each generate() and extend() call's status, cube,
  // implications and backtracks -- and the assignment it leaves behind --
  // exactly as they were. Re-baseline only in a change that alters the
  // search on purpose (a new heuristic), never for a speed-up.
  const SocDesign& soc = test::small_soc();
  const Netlist& nl = soc.netlist;
  const std::vector<TdfFault> all = collapse_faults(nl, enumerate_faults(nl));
  // Every k-th fault of each site kind, kept in fault-list order.
  std::vector<TdfFault> sample;
  const std::pair<FaultSite, std::size_t> quota[] = {
      {FaultSite::kStem, 16}, {FaultSite::kGateBranch, 16},
      {FaultSite::kFlopBranch, 8}};
  std::vector<std::size_t> picked;
  for (const auto& [site, want] : quota) {
    std::vector<std::size_t> of_site;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].site == site) of_site.push_back(i);
    }
    ASSERT_GE(of_site.size(), want);
    const std::size_t stride = of_site.size() / want;
    for (std::size_t k = 0; k < want; ++k) picked.push_back(of_site[k * stride]);
  }
  std::sort(picked.begin(), picked.end());
  for (std::size_t i : picked) sample.push_back(all[i]);

  struct Case {
    const char* name;
    TestContext ctx;
    SearchDigest expected;
  };
  const Case cases[] = {
      {"loc",
       TestContext::for_domain(nl, 0),
       {0xa3df13e3a0227f85ull, 4714, 1072, 50, 56, 14}},
      {"los",
       TestContext::for_domain_los(nl, 0, soc.scan.chains),
       {0x5318b59ecb837936ull, 3531, 856, 77, 54, 13}},
      {"enhanced",
       TestContext::for_domain_enhanced(nl, 0),
       {0xcc1372ca0864120aull, 4016, 941, 85, 51, 12}},
  };
  for (const Case& c : cases) {
    Podem podem(nl, c.ctx, PodemOptions{32, /*seed=*/2007});
    SearchDigest got;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (got.add(podem, sample[i], /*extend=*/false) !=
          PodemStatus::kDetected) {
        continue;
      }
      // A chain of merges onto the cube, as dynamic compaction runs them.
      for (std::size_t j = 1; j <= 4; ++j) {
        got.add(podem, sample[(i + 7 * j) % sample.size()], /*extend=*/true);
      }
    }
    EXPECT_EQ(got, c.expected) << c.name;
  }
}

TEST(Podem, ProbeRejectsMissizedAssignment) {
  PodemRig rig;
  Podem podem(rig.nl, rig.ctx);
  TestCube cube;
  for (const auto& f : rig.faults) {
    if (podem.generate(f, cube) == PodemStatus::kDetected) break;
  }
  const std::vector<std::uint8_t> before = podem.cube().s1;
  const std::vector<std::uint8_t> shorter(rig.ctx.num_vars() - 1, 0);
  const std::vector<std::uint8_t> longer(rig.ctx.num_vars() + 3, 1);
  EXPECT_THROW(podem.probe(rig.faults[0], shorter), std::invalid_argument);
  EXPECT_THROW(podem.probe(rig.faults[0], longer), std::invalid_argument);
  EXPECT_EQ(podem.cube().s1, before) << "a rejected probe changes nothing";
  TestCube bad;
  bad.s1.assign(rig.ctx.num_vars() + 1, kBitX);
  EXPECT_THROW(podem.adopt(bad), std::invalid_argument);
  EXPECT_EQ(podem.cube().s1, before);
}

TEST(Podem, AbortedOnTinyBacktrackLimit) {
  PodemRig rig;
  Podem strict(rig.nl, rig.ctx, PodemOptions{0});
  Rng rng(71);
  int aborted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto& fault = rig.faults[rng.below(rig.faults.size())];
    TestCube cube;
    if (strict.generate(fault, cube) == PodemStatus::kAborted) ++aborted;
  }
  EXPECT_GT(aborted, 0) << "a zero-backtrack budget must abort hard faults";
}

}  // namespace
}  // namespace scap
