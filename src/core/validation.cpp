#include "core/validation.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "atpg/fault_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/parallel.h"

namespace scap {
namespace {

/// Patterns a lane claims at a time.
constexpr std::size_t kPatternBlock = 8;

/// Run fn(analyzer, i) for every pattern index i in [0, n). On the rt pool
/// each lane builds one PatternAnalyzer over the shared per-design tables on
/// its first claim, then claims blocks of kPatternBlock indices from a
/// shared counter in index order, so a slow stretch of the set spreads over
/// every lane instead of landing on one. fn must write only index-i state;
/// the result then does not depend on which lane ran what. A serial pool,
/// fewer than two patterns or a nested call runs one analyzer over all of
/// them in order.
template <typename Fn>
void for_each_pattern(const SocDesign& soc, const TechLibrary& lib,
                      std::size_t n, const Fn& fn) {
  const auto pool = rt::ThreadPool::global();
  if (pool->concurrency() <= 1 || n < 2 ||
      rt::ThreadPool::on_worker_thread()) {
    PatternAnalyzer analyzer(soc, lib);
    for (std::size_t i = 0; i < n; ++i) fn(analyzer, i);
    return;
  }
  const auto tables = PatternAnalyzer::SharedTables::build(soc, lib);
  const std::size_t blocks = (n + kPatternBlock - 1) / kPatternBlock;
  std::atomic<std::size_t> next{0};
  pool->run_chunked(std::min(pool->concurrency(), blocks), [&](std::size_t) {
    std::optional<PatternAnalyzer> analyzer;
    for (;;) {
      const std::size_t b = next.fetch_add(kPatternBlock);
      if (b >= n) return;
      if (!analyzer) analyzer.emplace(soc, lib, tables);
      const std::size_t e = std::min(n, b + kPatternBlock);
      for (std::size_t i = b; i < e; ++i) fn(*analyzer, i);
    }
  });
}

}  // namespace

std::vector<ScapReport> scap_profile_patterns(
    const SocDesign& soc, const TechLibrary& lib, const TestContext& ctx,
    std::span<const Pattern> patterns) {
  SCAP_TRACE_SCOPE("scap.profile");
  obs::count("scap.profiles");
  obs::count("scap.profile_patterns", patterns.size());
  std::vector<ScapReport> out(patterns.size());
  for_each_pattern(soc, lib, patterns.size(),
                   [&](const PatternAnalyzer& analyzer, std::size_t i) {
                     out[i] = analyzer.analyze_scap(ctx, patterns[i]);
                   });
  return out;
}

std::vector<ScapReport> scap_profile(const SocDesign& soc,
                                     const TechLibrary& lib,
                                     const TestContext& ctx,
                                     const PatternSet& patterns) {
  return scap_profile_patterns(soc, lib, ctx, patterns.patterns);
}

ScapScreenResult scap_screen_patterns(const SocDesign& soc,
                                      const TechLibrary& lib,
                                      const TestContext& ctx,
                                      std::span<const Pattern> patterns,
                                      const ScapThresholds& thresholds,
                                      std::size_t hot_block) {
  if (hot_block >= thresholds.block_mw.size() ||
      hot_block >= soc.netlist.block_count()) {
    throw std::invalid_argument(
        "scap_screen_patterns: hot_block has no threshold or no block");
  }
  SCAP_TRACE_SCOPE("scap.screen");
  obs::count("screen.runs");
  obs::count("screen.patterns", patterns.size());
  ScapScreenResult out;
  out.violates.assign(patterns.size(), 0);
  for_each_pattern(soc, lib, patterns.size(),
                   [&](const PatternAnalyzer& analyzer, std::size_t i) {
                     out.violates[i] = thresholds.violates(
                         analyzer.analyze_scap(ctx, patterns[i]), hot_block);
                   });
  obs::count("screen.eventsim", patterns.size());
  return out;
}

IrValidationResult validate_pattern_ir(const SocDesign& soc,
                                       const TechLibrary& lib,
                                       const PowerGrid& grid,
                                       const TestContext& ctx,
                                       const Pattern& pattern) {
  SCAP_TRACE_SCOPE("flow.validate_pattern_ir");
  IrValidationResult out;
  PatternAnalyzer analyzer(soc, lib);

  // Simulation 1: nominal timing. One streaming pass feeds the SCAP
  // accounting, the rail-charge bins and the settle times all at once (the
  // paper's Figure-5 PLI tap instead of its VCD -> SOC Encounter step).
  ScapAccumulator scap_acc(analyzer.scap_calculator(),
                           soc.config.tester_period_ns);
  DynamicIrBinner binner(soc.netlist, soc.parasitics, lib);
  SettleTimeTracker settle;
  FanoutSink nominal_sinks{&scap_acc, &binner, &settle};
  out.nominal.launched_flops =
      analyzer.analyze_into(ctx, pattern, nominal_sinks);
  out.nominal.scap = scap_acc.report();
  out.ir = analyze_pattern_ir(soc.netlist, soc.placement, lib, soc.floorplan,
                              grid, binner.charges(), &soc.clock_tree,
                              ctx.domain);

  out.nominal_arrival_ns.resize(soc.netlist.num_flops());
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    out.nominal_arrival_ns[f] = soc.clock_tree.nominal_arrival_ns(f);
  }
  out.nominal_endpoint_ns = analyzer.endpoint_delays_from_settle(
      settle.settle(), out.nominal_arrival_ns);

  // Simulation 2: cell and clock-buffer delays derated by the local droop.
  // The sinks reset themselves in on_begin, so the same instances serve the
  // scaled pass (no IR binning needed the second time).
  DelayModel scaled_dm = analyzer.nominal_delays();
  scaled_dm.set_droop(lib, out.ir.gate_droop_v);
  out.scaled_arrival_ns = soc.clock_tree.arrivals_with_droop(
      lib, [&](Point p) { return out.ir.droop_at(p); });

  FanoutSink scaled_sinks{&scap_acc, &settle};
  out.scaled.launched_flops = analyzer.analyze_into(
      ctx, pattern, scaled_sinks, &scaled_dm, out.scaled_arrival_ns);
  out.scaled.scap = scap_acc.report();
  out.scaled_endpoint_ns = analyzer.endpoint_delays_from_settle(
      settle.settle(), out.scaled_arrival_ns);
  return out;
}

RepairResult repair_scap_violations(const SocDesign& soc,
                                    const TechLibrary& lib,
                                    const TestContext& ctx,
                                    std::span<const TdfFault> faults,
                                    const PatternSet& patterns,
                                    const ScapThresholds& thresholds,
                                    std::size_t hot_block, AtpgOptions opt,
                                    std::size_t max_rounds) {
  SCAP_TRACE_SCOPE("flow.repair");
  RepairResult out;
  out.patterns.domain = patterns.domain;
  out.patterns_before = patterns.size();

  FaultSimulator fsim(soc.netlist, ctx);
  {
    const auto before = fsim.grade(patterns.patterns, faults, nullptr);
    for (auto idx : before) {
      out.detected_before += (idx != FaultSimulator::kUndetected);
    }
  }

  std::vector<Pattern> kept;
  {
    const auto screen = scap_screen_patterns(soc, lib, ctx, patterns.patterns,
                                             thresholds, hot_block);
    for (std::size_t i = 0; i < patterns.patterns.size(); ++i) {
      if (screen.violates[i]) {
        ++out.violations_before;
      } else {
        kept.push_back(patterns.patterns[i]);
      }
    }
  }

  AtpgEngine engine(soc.netlist, ctx);
  double care_budget = std::min(opt.max_block_care_fraction, 0.08);
  for (out.rounds = 0; out.rounds < max_rounds; ++out.rounds) {
    // Coverage holes left by the dropped / not-yet-generated patterns.
    std::vector<FaultStatus> status(faults.size(), FaultStatus::kUndetected);
    const auto first = fsim.grade(kept, faults, nullptr);
    std::size_t missing = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (first[i] != FaultSimulator::kUndetected) {
        status[i] = FaultStatus::kDetected;
      } else {
        ++missing;
      }
    }
    if (missing == 0) break;

    AtpgOptions round_opt = opt;
    round_opt.fill = FillMode::kQuiet;
    round_opt.max_block_care_fraction = care_budget;
    round_opt.seed = opt.seed + out.rounds + 1;
    const AtpgResult res = engine.run(faults, round_opt, &status);

    bool any_clean = false;
    const auto screen = scap_screen_patterns(soc, lib, ctx,
                                             res.patterns.patterns, thresholds,
                                             hot_block);
    for (std::size_t i = 0; i < res.patterns.patterns.size(); ++i) {
      if (!screen.violates[i]) {
        kept.push_back(res.patterns.patterns[i]);
        any_clean = true;
      }
    }
    care_budget *= 0.5;  // tighten for the next round
    if (!any_clean) break;
  }

  out.patterns.patterns = std::move(kept);
  out.patterns_after = out.patterns.patterns.size();
  const auto after = fsim.grade(out.patterns.patterns, faults, nullptr);
  for (auto idx : after) {
    out.detected_after += (idx != FaultSimulator::kUndetected);
  }
  out.violations_after =
      scap_screen_patterns(soc, lib, ctx, out.patterns.patterns, thresholds,
                           hot_block)
          .count_violations();
  return out;
}

}  // namespace scap
