// Shared infrastructure for the bench binaries: bench_paper (every table and
// figure of the paper), bench_kernels and bench_ref_models (micro-benchmarks).
//
// SCAPGEN_BENCH_SCALE overrides the SOC scale (default 0.04 => ~900 flops;
// the paper's Turbo-Eagle would be scale 1.0).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/table.h"

namespace scap::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("SCAPGEN_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 0.04;
}

/// The canonical experiment of the micro-benchmarks, built once per process.
inline const Experiment& experiment() {
  static const Experiment* exp =
      new Experiment(Experiment::standard(bench_scale(), /*seed=*/2007));
  return *exp;
}

inline void print_header(const char* experiment_id, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s -- %s\n", experiment_id, what);
  std::printf("SOC scale %.3f (paper's Turbo-Eagle ~ scale 1.0), seed 2007\n",
              bench_scale());
  std::printf("=============================================================\n");
}

/// Per-process run wrapper for a bench binary: on destruction, writes the
/// machine-readable `BENCH_<slug>.json` metrics artifact (schema in README.md
/// "Observability") -- phase wall times, every obs counter/gauge and
/// per-span timer accumulated during the run -- and names it on stderr, so
/// stdout carries only what the bench prints. Phases are marked with
/// phase(); everything before the first mark is "setup". Each phase boundary
/// captures the registry with snapshot_and_reset, so the artifact reports
/// both per-phase metric windows (under each phase's "metrics" key) and
/// their merged cumulative totals at top level -- a multi-phase bench's rt.*
/// values do not bleed across phases.
class BenchRun {
 public:
  BenchRun(const char* slug, const char* experiment_id) {
    report_.name = slug;
    char scale[32];
    std::snprintf(scale, sizeof scale, "%.3f", bench_scale());
    report_.info.emplace_back("experiment", experiment_id);
    report_.info.emplace_back("scale", scale);
    report_.info.emplace_back("seed", "2007");
    phase_name_ = "setup";
    phase_start_ = Clock::now();
  }

  /// Close the current phase and start `name`.
  void phase(const char* name) {
    close_phase();
    phase_name_ = name;
    phase_start_ = Clock::now();
  }

  ~BenchRun() {
    close_phase();
    const std::string path = obs::bench_artifact_path(report_.name);
    const std::string body = obs::to_json(report_);
    if (obs::write_file(path, body)) {
      std::fprintf(stderr, "metrics: wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "metrics: FAILED to write %s\n", path.c_str());
    }
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  void close_phase() {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - phase_start_)
            .count();
    obs::PhaseTime pt;
    pt.name = phase_name_;
    pt.wall_ms = ms;
    pt.metrics = obs::Registry::global().snapshot_and_reset();
    report_.phases.push_back(std::move(pt));
  }

  obs::RunReport report_;
  std::string phase_name_;
  Clock::time_point phase_start_;
};

}  // namespace scap::bench
