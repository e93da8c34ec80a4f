// scap_prof: the rt thread pool's scheduler profiler, run on one kernel.
//
// Runs one rt-parallelized kernel (the same bodies the bench_kernels
// thread-scaling sweep times) with the profiler forced on, prints the
// per-lane pool report (obs/prof.h: tasks, parks, busy/park/sched shares,
// and the events the rings dropped), and writes the rt.prof.* metrics as a
// JSON artifact. With --overhead it instead runs the kernel --repeat times
// with the profiler off and as often with it on, one of each per
// repetition and alternating which goes first, so a drift in the host's
// speed lands on both sides; it prints each side's median and quartiles
// and the median's relative cost of recording.
//
// Usage:
//   scap_prof [--kernel faultsim|scap|atpg] [--threads N] [--repeat N]
//             [--scale S] [--out DIR] [--overhead]
//
// `--kernel atpg` runs conventional random-fill ATPG at backtrack limit 32,
// the body of the sweep's atpg_conventional kernel (which uses --scale
// 0.012). One such run submits thousands of 2-4 chunk jobs; at 4 threads
// and --repeat 1 the rings hold all of its events up to --scale 0.32
// ("dropped 0", a window equal to the run's wall time).
//
// Artifacts (scap_prof_metrics.json, and scap_prof_trace.json when
// SCAP_TRACE is on) land next to the executable by default, or under --out
// DIR -- never the current working directory (same policy as
// examples/irdrop_debug).
//
// Exit codes: 0 = ok, 2 = usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "atpg/fault_sim.h"
#include "atpg/pattern.h"
#include "core/experiment.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "rt/parallel.h"
#include "util/stats.h"
#include "util/version.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kernel faultsim|scap|atpg] [--threads N]\n"
               "       [--repeat N] [--scale S] [--out DIR] [--overhead]\n",
               argv0);
  return 2;
}

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernel = "faultsim";
  std::size_t threads = 4;
  int repeat = 3;
  double scale = 0.04;
  std::string out_dir;
  bool overhead = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--kernel") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      kernel = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      threads = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--repeat") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      repeat = std::atoi(v);
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      scale = std::atof(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_dir = v;
    } else if (arg == "--overhead") {
      overhead = true;
    } else if (arg == "--version") {
      std::printf("scap_prof %s\n", scap::kVersion);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (threads == 0 || repeat <= 0 || scale <= 0.0) return usage(argv[0]);

  const std::filesystem::path out_base =
      out_dir.empty() ? std::filesystem::path(argv[0]).parent_path()
                      : std::filesystem::path(out_dir);

  std::printf("scap_prof: kernel=%s threads=%zu repeat=%d scale=%.3f\n",
              kernel.c_str(), threads, repeat, scale);
  const scap::Experiment exp = scap::Experiment::standard(scale, 2007);
  const scap::PatternSet pats =
      scap::random_pattern_set(192, exp.ctx.num_vars(), 2007);

  std::function<void()> body;
  if (kernel == "faultsim") {
    body = [&exp, &pats] {
      scap::FaultSimulator fsim(exp.soc.netlist, exp.ctx);
      volatile std::size_t n = fsim.grade(pats.patterns, exp.faults).size();
      (void)n;
    };
  } else if (kernel == "scap") {
    body = [&] {
      const std::span<const scap::Pattern> sp =
          std::span<const scap::Pattern>(pats.patterns)
              .first(std::min<std::size_t>(24, pats.size()));
      volatile std::size_t n =
          scap::scap_profile_patterns(exp.soc, *exp.lib, exp.ctx, sp).size();
      (void)n;
    };
  } else if (kernel == "atpg") {
    body = [&exp] {
      scap::AtpgOptions opt;
      opt.seed = 2007;
      opt.backtrack_limit = 32;
      opt.fill = scap::FillMode::kRandom;
      opt.chains = &exp.soc.scan.chains;
      volatile std::size_t n =
          scap::run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults,
                                      opt)
              .patterns.size();
      (void)n;
    };
  } else {
    return usage(argv[0]);
  }

  scap::rt::ThreadPool::set_global_concurrency(threads);
  body();  // warm-up: caches, lazy pools, page-in

  scap::obs::ObsConfig cfg = scap::obs::config();

  if (overhead) {
    std::vector<double> off_ms, on_ms;
    auto timed = [&](bool prof) {
      cfg.prof = prof;
      scap::obs::configure(cfg);
      (prof ? on_ms : off_ms).push_back(wall_ms(body));
    };
    scap::obs::prof_reset();
    for (int r = 0; r < repeat; ++r) {
      const bool on_first = r % 2 == 1;
      timed(on_first);
      timed(!on_first);
    }
    const scap::obs::PoolProfile prof = scap::obs::collect_pool_profile();
    auto summary = [](const std::vector<double>& ms) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "median %.2f ms [%.2f, %.2f]",
                    scap::quantile(ms, 0.5), scap::quantile(ms, 0.25),
                    scap::quantile(ms, 0.75));
      return std::string(buf);
    };
    const double off = scap::quantile(off_ms, 0.5);
    const double on = scap::quantile(on_ms, 0.5);
    std::printf(
        "profiler overhead over %d alternating pairs: off %s, on %s "
        "(%+.2f%% at the median), %llu events recorded\n",
        repeat, summary(off_ms).c_str(), summary(on_ms).c_str(),
        off > 0.0 ? 100.0 * (on - off) / off : 0.0,
        static_cast<unsigned long long>(prof.total_events));
    return 0;
  }

  cfg.prof = true;
  scap::obs::configure(cfg);
  scap::obs::prof_reset();
  double total_ms = 0.0;
  for (int r = 0; r < repeat; ++r) total_ms += wall_ms(body);

  const scap::obs::PoolProfile prof = scap::obs::collect_pool_profile();
  std::printf("\n%zu run(s), %.2f ms avg wall\n%s", static_cast<std::size_t>(repeat),
              total_ms / repeat, scap::obs::format_pool_report(prof).c_str());

  scap::obs::Registry& reg = scap::obs::Registry::global();
  scap::obs::export_pool_profile(prof, reg);
  scap::obs::RunReport rep;
  rep.name = "scap_prof";
  rep.info.emplace_back("kernel", kernel);
  rep.info.emplace_back("threads", std::to_string(threads));
  rep.info.emplace_back("repeat", std::to_string(repeat));
  // One phase: the repetitions' wall time and every metric the process
  // recorded, setup included.
  rep.phases.push_back({"run", total_ms, reg.snapshot_and_reset()});
  const std::string metrics_path =
      (out_base / "scap_prof_metrics.json").string();
  if (scap::obs::write_file(metrics_path, scap::obs::to_json(rep))) {
    std::printf("metrics: wrote %s\n", metrics_path.c_str());
  } else {
    std::fprintf(stderr, "metrics: FAILED to write %s\n", metrics_path.c_str());
  }
  if (scap::obs::trace_enabled()) {
    const std::string trace_path =
        (out_base / "scap_prof_trace.json").string();
    if (scap::obs::dump_chrome_trace(trace_path)) {
      std::printf("trace: wrote %s\n", trace_path.c_str());
    }
  }
  return 0;
}
