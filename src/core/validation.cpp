#include "core/validation.h"

#include "atpg/fault_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/parallel.h"

namespace scap {

std::vector<ScapReport> scap_profile_patterns(
    const SocDesign& soc, const TechLibrary& lib, const TestContext& ctx,
    std::span<const Pattern> patterns) {
  SCAP_TRACE_SCOPE("scap.profile");
  obs::count("scap.profiles");
  obs::count("scap.profile_patterns", patterns.size());
  std::vector<ScapReport> out(patterns.size());
  const std::size_t threads = rt::concurrency();
  if (threads <= 1 || patterns.size() < 2 ||
      rt::ThreadPool::on_worker_thread()) {
    PatternAnalyzer analyzer(soc, lib);
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      out[i] = analyzer.analyze_scap(ctx, patterns[i]);
    }
    return out;
  }
  // One contiguous pattern shard per thread. The expensive per-design tables
  // (delay model, SCAP calculator) are built once and shared read-only; each
  // shard-private analyzer owns only its warm event workspace, which makes
  // every pattern after its first allocation-free. Shards write only their
  // own slots of `out`, so the result is chunking-independent.
  const auto tables = PatternAnalyzer::SharedTables::build(soc, lib);
  const std::size_t n_shards = std::min(patterns.size(), threads);
  const std::size_t per = (patterns.size() + n_shards - 1) / n_shards;
  rt::ThreadPool::global()->run_chunked(n_shards, [&](std::size_t s) {
    const std::size_t b = s * per;
    const std::size_t e = std::min(patterns.size(), b + per);
    if (b >= e) return;
    PatternAnalyzer analyzer(soc, lib, tables);
    for (std::size_t i = b; i < e; ++i) {
      out[i] = analyzer.analyze_scap(ctx, patterns[i]);
    }
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
  SCAP_TRACE_SCOPE("scap.screen");
  obs::count("screen.runs");
  obs::count("screen.patterns", patterns.size());
  ScapScreenResult out;
  out.violates.assign(patterns.size(), 0);
  std::vector<std::uint8_t> simmed(patterns.size(), 0);

  const auto screen_range = [&](const PatternAnalyzer& analyzer, std::size_t b,
                                std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const lint::StaticScapBound& bound =
          analyzer.screen_static(ctx, patterns[i]);
      if (bound.block_scap_mw(hot_block) <= thresholds.block_mw[hot_block]) {
        continue;  // bound clears the threshold: provably not a violation
      }
      simmed[i] = 1;
      out.violates[i] = thresholds.violates(
                            analyzer.analyze_scap(ctx, patterns[i]), hot_block)
                            ? 1
                            : 0;
    }
  };

  const std::size_t threads = rt::concurrency();
  if (threads <= 1 || patterns.size() < 2 ||
      rt::ThreadPool::on_worker_thread()) {
    PatternAnalyzer analyzer(soc, lib);
    screen_range(analyzer, 0, patterns.size());
  } else {
    const auto tables = PatternAnalyzer::SharedTables::build(soc, lib);
    const std::size_t n_shards = std::min(patterns.size(), threads);
    const std::size_t per = (patterns.size() + n_shards - 1) / n_shards;
    rt::ThreadPool::global()->run_chunked(n_shards, [&](std::size_t s) {
      const std::size_t b = s * per;
      const std::size_t e = std::min(patterns.size(), b + per);
      if (b >= e) return;
      PatternAnalyzer analyzer(soc, lib, tables);
      screen_range(analyzer, b, e);
    });
  }

  for (auto s : simmed) out.event_simmed += s;
  out.statically_clean = patterns.size() - out.event_simmed;
  obs::count("screen.static.clean", out.statically_clean);
  obs::count("screen.eventsim", out.event_simmed);
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

  // Keep only the clean patterns (two-tier screen: most patterns are cleared
  // by the static bound and never event-simulated).
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
