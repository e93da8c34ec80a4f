// Machine-readable export of the metrics registry.
//
// Every bench binary writes a `BENCH_<name>.json` artifact next to its
// human-readable tables (see bench/bench_common.h): run identity, per-phase
// wall times, every counter, gauge distribution and span timer. The schema is
// documented in README.md ("Observability"); tests round-trip it through the
// parser in obs/json.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace scap::obs {

/// Wall-time of one top-level phase of a run (bench setup / table / kernels),
/// plus the registry values observed during that phase only (captured with
/// Registry::snapshot_and_reset at the phase boundary; empty when the runner
/// doesn't scope metrics per phase).
struct PhaseTime {
  std::string name;
  double wall_ms = 0.0;
  Registry::Snapshot metrics;
};

/// Identity + phase breakdown of one instrumented run.
struct RunReport {
  std::string name;
  std::vector<std::pair<std::string, std::string>> info;  ///< free-form k/v
  std::vector<PhaseTime> phases;
};

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Serialize a run report whose phases carry their own metric snapshots:
/// top-level counters/gauges/timers are the merge of every phase, and each
/// phase object additionally embeds its own "metrics" section when
/// non-empty.
std::string to_json(const RunReport& rep);

/// Atomically-ish write `contents` to `path` (truncate). False on I/O error.
bool write_file(const std::string& path, std::string_view contents);

/// `$SCAP_METRICS_DIR/BENCH_<name>.json` (or `./BENCH_<name>.json`).
std::string bench_artifact_path(std::string_view bench_name);

}  // namespace scap::obs
