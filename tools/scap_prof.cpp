// scap_prof: scheduler-profiler driver for the work-stealing runtime.
//
// Runs one rt-parallelized kernel (the same bodies the bench_kernels
// thread-scaling sweep times) with the profiler forced on, prints the
// per-lane pool report (obs/prof.h), and writes the rt.prof.* metrics as a
// JSON artifact. With --overhead it instead times the kernel with the
// profiler off vs on and reports the relative cost, which is the number the
// "<2% prof-off overhead" acceptance check quotes.
//
// Usage:
//   scap_prof [--kernel faultsim|grid|scap] [--threads N] [--repeat N]
//             [--scale S] [--words 1|2|4] [--out DIR] [--overhead]
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
#include "core/validation.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "power/dynamic_ir.h"
#include "rt/parallel.h"
#include "util/version.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kernel faultsim|grid|scap] [--threads N]\n"
               "       [--repeat N] [--scale S] [--words 1|2|4] [--out DIR]\n"
               "       [--overhead]\n",
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
  std::size_t words = 0;  // 0 = FaultSimulator default
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
    } else if (arg == "--words") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      words = static_cast<std::size_t>(std::atol(v));
      if (!scap::valid_batch_words(words)) return usage(argv[0]);
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
  const scap::Netlist& nl = exp.soc.netlist;
  const scap::PatternSet pats =
      scap::random_pattern_set(192, exp.ctx.num_vars(), 2007);

  std::function<void()> body;
  if (kernel == "faultsim") {
    // `--words` picks the batch width (0 keeps the default).
    body = [&exp, &pats, words] {
      scap::FaultSimulator fsim(exp.soc.netlist, exp.ctx);
      fsim.set_batch_words(words);
      volatile std::size_t n = fsim.grade(pats.patterns, exp.faults).size();
      (void)n;
    };
  } else if (kernel == "grid") {
    scap::PowerGridOptions gopt;
    gopt.nx = 128;
    gopt.ny = 128;
    auto grid = std::make_shared<scap::PowerGrid>(exp.soc.floorplan, gopt);
    auto where = std::make_shared<std::vector<scap::Point>>();
    auto amps = std::make_shared<std::vector<double>>();
    for (scap::GateId g = 0; g < nl.num_gates(); ++g) {
      where->push_back(exp.soc.placement.gate_pos(g));
      amps->push_back(2e-6 * static_cast<double>(1 + g % 5));
    }
    body = [grid, where, amps] {
      volatile int it = grid->solve(*where, *amps, /*vdd_rail=*/true).iterations;
      (void)it;
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
  } else {
    return usage(argv[0]);
  }

  scap::rt::ThreadPool::set_global_concurrency(threads);
  body();  // warm-up: caches, lazy pools, page-in

  scap::obs::ObsConfig cfg = scap::obs::config();

  if (overhead) {
    cfg.prof = false;
    scap::obs::configure(cfg);
    double off_ms = 0.0;
    for (int r = 0; r < repeat; ++r) off_ms += wall_ms(body);
    cfg.prof = true;
    scap::obs::configure(cfg);
    scap::obs::prof_reset();
    double on_ms = 0.0;
    for (int r = 0; r < repeat; ++r) on_ms += wall_ms(body);
    const scap::obs::PoolProfile prof = scap::obs::collect_pool_profile();
    const double pct =
        off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
    std::printf(
        "profiler overhead: off %.2f ms, on %.2f ms (%+.2f%%), "
        "%llu events recorded\n",
        off_ms / repeat, on_ms / repeat, pct,
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
  const std::string metrics_path =
      (out_base / "scap_prof_metrics.json").string();
  if (scap::obs::write_file(metrics_path, scap::obs::to_json(rep, reg))) {
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
