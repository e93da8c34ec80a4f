// Parameterized property suites: invariants that must hold for every seed,
// every mesh size, every chain count and every fill mode -- the randomized
// backbone of the test suite.
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "atpg/fault_sim.h"
#include "atpg/podem.h"
#include "core/pattern_sim.h"
#include "netlist/verilog.h"
#include "power/power_grid.h"
#include "ref/ref_models.h"
#include "sim/batch_sim.h"
#include "soc/generator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

// ---------------------------------------------------------------------------
// Generator invariants across seeds.
// ---------------------------------------------------------------------------
class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  const SocConfig cfg = SocConfig::tiny(GetParam());
  const Netlist nl = generate_soc_netlist(cfg);
  EXPECT_EQ(nl.num_flops(), cfg.total_flops());
  EXPECT_TRUE(nl.finalized());
  // No dangling gate outputs.
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Net& nr = nl.net(nl.gate(g).out);
    EXPECT_TRUE(nr.fo_count > 0 || nr.ffo_count > 0 || nr.is_po);
  }
  // Depth stays in a simulable band.
  EXPECT_GE(nl.max_level(), 3u);
  EXPECT_LE(nl.max_level(), 80u);
}

TEST_P(GeneratorProperty, VerilogRoundTripFunctionalEquivalence) {
  const SocConfig cfg = SocConfig::tiny(GetParam());
  const Netlist orig = generate_soc_netlist(cfg);
  const Netlist back = parse_verilog(to_verilog(orig));
  ASSERT_EQ(back.num_flops(), orig.num_flops());
  const BatchSim sa(orig.levelized_view(), 1), sb(back.levelized_view(), 1);
  Rng rng(GetParam() * 31 + 7);
  std::vector<std::uint64_t> s1(orig.num_flops());
  for (auto& w : s1) w = rng.word();
  std::vector<std::uint64_t> pi(orig.primary_inputs().size(), 0);
  std::vector<std::uint64_t> f1a, f1b, s2a, s2b, f2a, f2b;
  sa.broadside(s1, pi, f1a, s2a, f2a);
  sb.broadside(s1, pi, f1b, s2b, f2b);
  EXPECT_EQ(s2a, s2b);
  for (FlopId f = 0; f < orig.num_flops(); ++f) {
    EXPECT_EQ(f2a[sa.view().compact_net(orig.flop(f).d)],
              f2b[sb.view().compact_net(back.flop(f).d)]);
  }
}

TEST_P(GeneratorProperty, PodemSoundAgainstFaultSim) {
  const SocConfig cfg = SocConfig::tiny(GetParam());
  const Netlist nl = generate_soc_netlist(cfg);
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Podem podem(nl, ctx);
  FaultSimulator fsim(nl, ctx);
  Rng rng(GetParam() * 17 + 3);
  std::vector<Pattern> pats(4);
  for (auto& p : pats) {
    p.s1.resize(nl.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  std::vector<TdfFault> sample;
  for (int trial = 0; trial < 25; ++trial) {
    sample.push_back(faults[rng.below(faults.size())]);
  }
  const auto masks = test::detection_masks(fsim, pats, sample);
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (std::size_t lane = 0; lane < pats.size(); ++lane) {
      ASSERT_EQ(podem.probe(sample[k], pats[lane].s1),
                ((masks[k] >> lane) & 1) != 0)
          << describe_fault(nl, sample[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ---------------------------------------------------------------------------
// Event-simulation consistency across seeds (shared physical design).
// ---------------------------------------------------------------------------
class EventSimProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventSimProperty, FinalValuesMatchZeroDelay) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  Rng rng(GetParam());
  Pattern p;
  p.s1.resize(nl.num_flops());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  const ref::SimTrace trace = test::record_trace(analyzer, ctx, p);
  const std::vector<std::uint8_t> frame1(analyzer.frame1().begin(),
                                         analyzer.frame1().end());

  std::vector<std::uint8_t> final_vals = frame1;
  for (const ref::ToggleEvent& t : trace.toggles) {
    final_vals[t.net] = t.rising ? 1 : 0;
  }
  std::vector<std::uint8_t> s2(nl.num_flops());
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    s2[f] = ctx.active[f] ? frame1[nl.flop(f).d] : p.s1[f];
  }
  const std::vector<std::uint8_t> f2 =
      ref::eval_frame_ref(nl, s2, ctx.pi_values);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    ASSERT_EQ(final_vals[n], f2[n]) << "net " << n;
  }
}

TEST_P(EventSimProperty, ToggleCountEvenPerNetWhenValueUnchanged) {
  // A net whose final value equals its initial value toggles an even number
  // of times (pulses come in pairs).
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  Rng rng(GetParam() ^ 0xabcd);
  Pattern p;
  p.s1.resize(nl.num_flops());
  for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  const ref::SimTrace trace = test::record_trace(analyzer, ctx, p);
  const std::vector<std::uint8_t> frame1(analyzer.frame1().begin(),
                                         analyzer.frame1().end());

  std::vector<std::size_t> counts(nl.num_nets(), 0);
  std::vector<std::uint8_t> final_vals = frame1;
  for (const ref::ToggleEvent& t : trace.toggles) {
    ++counts[t.net];
    final_vals[t.net] = t.rising ? 1 : 0;
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (final_vals[n] == frame1[n]) {
      EXPECT_EQ(counts[n] % 2, 0u) << "net " << n;
    } else {
      EXPECT_EQ(counts[n] % 2, 1u) << "net " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventSimProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Grid solver across mesh resolutions.
// ---------------------------------------------------------------------------
class GridProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GridProperty, CenterLoadInvariants) {
  const Floorplan fp = Floorplan::turbo_eagle_like(1000.0, 8);
  PowerGridOptions opt;
  opt.nx = GetParam();
  opt.ny = GetParam();
  PowerGrid grid(fp, opt);
  const Point p{500.0, 500.0};
  const double amps = 0.1;
  const GridSolution sol = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), true);
  EXPECT_TRUE(sol.converged);
  EXPECT_GT(sol.worst(), 0.0);
  // Every node drop is non-negative and bounded by the worst.
  for (double d : sol.drop_v) {
    EXPECT_GE(d, -1e-12);
    EXPECT_LE(d, sol.worst() + 1e-12);
  }
  // The center region is the hottest.
  EXPECT_GT(sol.average_in(Rect{400, 400, 600, 600}),
            sol.average_in(Rect{0, 0, 200, 200}));
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, GridProperty,
                         ::testing::Values(8, 16, 24, 48, 64));

TEST_P(GridProperty, SolutionInvariantUnderInjectionPermutation) {
  // The solved drop map is a function of the aggregated injection vector,
  // not of source ordering: permuting the point-load list leaves every node
  // bit-identical. Sources sit on distinct grid nodes so the per-node
  // accumulation is a single add either way.
  const std::uint32_t mesh = GetParam();
  const Floorplan fp = Floorplan::turbo_eagle_like(1000.0, 8);
  PowerGridOptions opt;
  opt.nx = mesh;
  opt.ny = mesh;
  Rng rng(mesh * 997 + 5);
  std::vector<Point> where;
  std::vector<double> amps;
  std::vector<std::uint8_t> used(mesh * mesh, 0);
  const Rect die = fp.die();
  while (where.size() < 7) {
    const auto ix = static_cast<std::uint32_t>(rng.below(mesh));
    const auto iy = static_cast<std::uint32_t>(rng.below(mesh));
    if (used[iy * mesh + ix]) continue;
    used[iy * mesh + ix] = 1;
    where.push_back({die.x0 + die.width() * ix / (mesh - 1),
                     die.y0 + die.height() * iy / (mesh - 1)});
    amps.push_back(rng.uniform(1e-3, 2e-2));
  }
  std::vector<Point> rwhere(where.rbegin(), where.rend());
  std::vector<double> ramps(amps.rbegin(), amps.rend());
  const PowerGrid grid(fp, opt);
  const GridSolution a = grid.solve(where, amps, true);
  const GridSolution b = grid.solve(rwhere, ramps, true);
  ASSERT_EQ(a.drop_v.size(), b.drop_v.size());
  for (std::size_t i = 0; i < a.drop_v.size(); ++i) {
    ASSERT_EQ(a.drop_v[i], b.drop_v[i]) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Scan chains across chain counts.
// ---------------------------------------------------------------------------
class ChainProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainProperty, PartitionInvariants) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains sc =
      ScanChains::build(soc.netlist, soc.placement, GetParam());
  EXPECT_EQ(sc.chains.size(), GetParam());
  std::vector<int> seen(soc.netlist.num_flops(), 0);
  for (const auto& chain : sc.chains) {
    for (FlopId f : chain) ++seen[f];
  }
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) EXPECT_EQ(seen[f], 1);
}

INSTANTIATE_TEST_SUITE_P(ChainCounts, ChainProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Fill modes.
// ---------------------------------------------------------------------------
class FillProperty : public ::testing::TestWithParam<FillMode> {};

TEST_P(FillProperty, CareBitsNeverChange) {
  const SocDesign& soc = test::tiny_soc();
  Rng care_rng(5);
  TestCube cube;
  cube.s1.assign(soc.netlist.num_flops(), kBitX);
  std::vector<std::pair<FlopId, std::uint8_t>> cares;
  for (int i = 0; i < 30; ++i) {
    const FlopId f = static_cast<FlopId>(care_rng.below(cube.s1.size()));
    const auto v = static_cast<std::uint8_t>(care_rng.below(2));
    cube.s1[f] = v;
    cares.emplace_back(f, v);
  }
  Rng rng(6);
  std::vector<std::uint8_t> quiet(soc.netlist.num_flops(), 0);
  const Pattern p =
      apply_fill(cube, GetParam(), rng, soc.scan.chains, quiet);
  for (auto [f, v] : cares) EXPECT_EQ(p.s1[f], v);
  for (auto b : p.s1) EXPECT_LT(b, 2) << "X must be gone after fill";
}

TEST_P(FillProperty, FullySpecifiedCubeIsFixpoint) {
  const SocDesign& soc = test::tiny_soc();
  Rng rng(7);
  TestCube cube;
  cube.s1.resize(soc.netlist.num_flops());
  for (auto& b : cube.s1) b = static_cast<std::uint8_t>(rng.below(2));
  std::vector<std::uint8_t> quiet(soc.netlist.num_flops(), 1);
  Rng fill_rng(8);
  const Pattern p =
      apply_fill(cube, GetParam(), fill_rng, soc.scan.chains, quiet);
  EXPECT_EQ(p.s1, cube.s1);
}

INSTANTIATE_TEST_SUITE_P(Modes, FillProperty,
                         ::testing::Values(FillMode::kRandom, FillMode::kFill0,
                                           FillMode::kFill1,
                                           FillMode::kAdjacent,
                                           FillMode::kQuiet),
                         [](const auto& info) {
                           std::string n = fill_mode_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Fault grading across seeds: coverage is monotonic in pattern-prefix order.
// ---------------------------------------------------------------------------
class FaultGradeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultGradeProperty, CoverageMonotonicInPatternPrefix) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  FaultSimulator fsim(nl, ctx);
  Rng rng(GetParam() * 101 + 13);
  std::vector<Pattern> pats(6);
  for (auto& p : pats) {
    p.s1.resize(nl.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
  }
  const auto full = fsim.grade(pats, faults, nullptr);
  std::size_t prev_detected = 0;
  for (std::size_t k = 1; k <= pats.size(); ++k) {
    const std::vector<Pattern> prefix(pats.begin(), pats.begin() + k);
    const auto first = fsim.grade(prefix, faults, nullptr);
    ASSERT_EQ(first.size(), full.size());
    std::size_t detected = 0;
    for (std::size_t i = 0; i < first.size(); ++i) {
      // A prefix grade must agree with the full grade wherever the full
      // first-detect index falls inside the prefix, and report undetected
      // where it does not: adding patterns never loses a detection and
      // never changes an earlier first-detect index.
      if (full[i] != FaultSimulator::kUndetected && full[i] < k) {
        ASSERT_EQ(first[i], full[i]) << "fault " << i << " prefix " << k;
      } else {
        ASSERT_EQ(first[i], FaultSimulator::kUndetected)
            << "fault " << i << " prefix " << k;
      }
      detected += (first[i] != FaultSimulator::kUndetected);
    }
    EXPECT_GE(detected, prev_detected) << "prefix " << k;
    prev_detected = detected;
  }
  EXPECT_GT(prev_detected, 0u);  // six random patterns must detect something
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultGradeProperty,
                         ::testing::Values(1, 7, 19, 42, 2007));

// ---------------------------------------------------------------------------
// ATPG determinism across schemes.
// ---------------------------------------------------------------------------
class SchemeProperty : public ::testing::TestWithParam<LaunchScheme> {};

TEST_P(SchemeProperty, EngineDeterministicAndSound) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  TestContext ctx;
  switch (GetParam()) {
    case LaunchScheme::kLoc:
      ctx = TestContext::for_domain(nl, 0);
      break;
    case LaunchScheme::kLos:
      ctx = TestContext::for_domain_los(nl, 0, soc.scan.chains);
      break;
    case LaunchScheme::kEnhanced:
      ctx = TestContext::for_domain_enhanced(nl, 0);
      break;
  }
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgEngine engine(nl, ctx);
  AtpgOptions opt;
  opt.seed = 77;
  const AtpgResult a = engine.run(faults, opt);
  const AtpgResult b = engine.run(faults, opt);
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    ASSERT_EQ(a.patterns.patterns[i].s1, b.patterns.patterns[i].s1);
  }
  // Regrade confirms the engine's accounting.
  FaultSimulator fsim(nl, ctx);
  const auto first = fsim.grade(a.patterns.patterns, faults, nullptr);
  std::size_t detected = 0;
  for (auto idx : first) detected += (idx != FaultSimulator::kUndetected);
  EXPECT_EQ(detected, a.stats.detected);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeProperty,
                         ::testing::Values(LaunchScheme::kLoc,
                                           LaunchScheme::kLos,
                                           LaunchScheme::kEnhanced),
                         [](const auto& info) {
                           switch (info.param) {
                             case LaunchScheme::kLoc:
                               return "LOC";
                             case LaunchScheme::kLos:
                               return "LOS";
                             case LaunchScheme::kEnhanced:
                               return "Enhanced";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace scap
