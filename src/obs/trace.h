// Scoped tracing for the ATPG / simulation / power flow.
//
// Every SCAP_TRACE_SCOPE("podem") feeds an aggregated wall-time Timer in the
// global metrics registry (obs/metrics.h), which is what gives the bench
// artifacts their per-phase wall times; metrics are always on. Two switches
// (see ObsConfig) add more:
//  - tracing: each scope also records a begin/end event pair into a
//    per-thread buffer; the buffers export as Chrome `chrome://tracing` /
//    Perfetto JSON (write_chrome_trace). Off by default.
//  - profiling: the scheduler profiler (obs/prof.h). Off by default.
//
// Environment:
//   SCAP_TRACE=1        enable tracing, dump scap_trace.json next to the
//                       running binary (never the invocation cwd) at exit
//   SCAP_TRACE=<path>   enable tracing, dump to <path> at process exit
//   SCAP_PROF=1         enable the scheduler profiler (obs/prof.h; default off)
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace scap::obs {

/// Process-wide instrumentation configuration.
struct ObsConfig {
  bool trace = false;    ///< record SCAP_TRACE_SCOPE begin/end events
  bool prof = false;     ///< record scheduler profiler events (obs/prof.h)
  bool dump_trace_at_exit = false;
  std::string trace_path = "scap_trace.json";
};

/// Where SCAP_TRACE=1 dumps land: "scap_trace.json" next to the running
/// executable (the build tree), never the invocation cwd, so running a tool
/// from a source checkout does not strand trace files there. Falls back to
/// the bare filename if the executable path cannot be resolved. An explicit
/// SCAP_TRACE=<path> always wins.
std::string default_trace_path();

/// Parse SCAP_TRACE / SCAP_PROF from the environment (applied once at
/// startup by the library itself; exposed for tests).
ObsConfig config_from_env();

void configure(const ObsConfig& cfg);
ObsConfig config();

// Bit flags mirrored into an atomic so the hot-path checks are one relaxed
// load. Do not touch directly; use configure().
inline constexpr unsigned kFlagTrace = 1u;
inline constexpr unsigned kFlagProf = 2u;
extern std::atomic<unsigned> g_obs_flags;

inline bool trace_enabled() noexcept {
  return (g_obs_flags.load(std::memory_order_relaxed) & kFlagTrace) != 0;
}
inline bool prof_enabled() noexcept {
  return (g_obs_flags.load(std::memory_order_relaxed) & kFlagProf) != 0;
}

/// One begin ('B') or end ('E') record. Timestamps are microseconds since
/// process start; `name` must be a string with static storage duration
/// (the macros pass literals).
struct TraceEvent {
  const char* name = nullptr;
  double ts_us = 0.0;
  std::uint32_t tid = 0;  ///< dense per-thread id (0 = first thread seen)
  char phase = 'B';
};

/// Microseconds since the process-wide trace epoch.
double now_us();

/// Low-level event recording (the RAII scope is the intended interface).
void trace_begin(const char* name);
void trace_end(const char* name);

/// All buffered events from every thread (live and exited), time-ordered.
std::vector<TraceEvent> trace_snapshot();
/// Append externally synthesized events (e.g. profiler lanes, obs/prof.h) to
/// the retired buffer so they appear in snapshots and Chrome dumps. Names must
/// have static storage duration; tids at/above kProfLaneBase render as named
/// "rt worker" lanes in the Chrome export.
void trace_inject(const std::vector<TraceEvent>& events);
/// Synthetic-tid base for injected scheduler-profiler lanes (one Chrome lane
/// per pool worker / submitting caller, distinct from real thread tids).
inline constexpr std::uint32_t kProfLaneBase = 1u << 20;
void trace_clear();
/// Events dropped because a per-thread buffer hit its cap.
std::uint64_t trace_dropped();

/// Slow paths behind TraceScope; defined in trace.cpp so the header does not
/// depend on the metrics registry. span_begin returns the start timestamp.
double span_begin(const char* name);
void span_end(const char* name, double start_us);

/// RAII span: an aggregated wall-time Timer observation, plus a begin/end
/// trace-event pair when tracing.
class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : name_(name), start_us_(span_begin(name)) {}
  ~TraceScope() { span_end(name_, start_us_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  double start_us_;
};

// --- Chrome-trace export (trace_export.cpp) --------------------------------

/// Serialize events as Chrome `chrome://tracing` JSON ({"traceEvents":[...]}).
void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events);
/// Convenience: current snapshot.
void write_chrome_trace(std::ostream& os);
/// Dump the current snapshot to a file; returns false on I/O failure.
bool dump_chrome_trace(const std::string& path);

}  // namespace scap::obs

#define SCAP_OBS_CONCAT2(a, b) a##b
#define SCAP_OBS_CONCAT(a, b) SCAP_OBS_CONCAT2(a, b)
#define SCAP_TRACE_SCOPE(name) \
  ::scap::obs::TraceScope SCAP_OBS_CONCAT(scap_trace_scope_, __LINE__)(name)
