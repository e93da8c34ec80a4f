#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "obs/metrics.h"
#include "util/env.h"

namespace scap::obs {

std::atomic<unsigned> g_obs_flags{0};

namespace {

/// Per-thread buffer cap: a runaway trace degrades to dropped events rather
/// than unbounded memory (each event is 24 bytes; 4M events ~ 96 MB).
constexpr std::size_t kMaxEventsPerThread = 4u << 20;

std::mutex g_config_mu;
ObsConfig g_config;

struct ThreadBuffer;
struct TraceState {
  std::mutex mu;  ///< guards live / retired / dropped
  std::vector<ThreadBuffer*> live;
  std::vector<TraceEvent> retired;  ///< events of exited threads
  std::uint32_t next_tid = 0;
  std::uint64_t dropped = 0;
  /// Bumped by trace_clear(); buffers stamped with an older epoch are stale.
  std::atomic<std::uint64_t> clear_epoch{0};
};

TraceState& state() {
  static TraceState* s = new TraceState;  // leaked: threads may outlive main
  return *s;
}

struct ThreadBuffer {
  std::mutex mu;  ///< guards events / dropped / epoch (owner push vs snapshot)
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  std::uint64_t epoch = 0;

  ThreadBuffer() {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    tid = s.next_tid++;
    epoch = s.clear_epoch.load(std::memory_order_relaxed);
    s.live.push_back(this);
  }
  ~ThreadBuffer() {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (epoch == s.clear_epoch.load(std::memory_order_relaxed)) {
      s.retired.insert(s.retired.end(), events.begin(), events.end());
      s.dropped += dropped;
    }
    s.live.erase(std::find(s.live.begin(), s.live.end(), this));
  }

  void push(const char* name, double ts, char phase) {
    std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t now_epoch =
        state().clear_epoch.load(std::memory_order_relaxed);
    if (epoch != now_epoch) {  // a trace_clear() happened since our last event
      events.clear();
      dropped = 0;
      epoch = now_epoch;
    }
    if (events.size() >= kMaxEventsPerThread) {
      ++dropped;
      return;
    }
    events.push_back(TraceEvent{name, ts, tid, phase});
  }
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buf;
  return buf;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

void dump_at_exit() {
  const ObsConfig cfg = config();
  if (!cfg.dump_trace_at_exit || !trace_enabled()) return;
  if (trace_snapshot().empty()) return;
  if (dump_chrome_trace(cfg.trace_path)) {
    std::fprintf(stderr, "[scap-obs] wrote trace to %s\n",
                 cfg.trace_path.c_str());
  } else {
    std::fprintf(stderr, "[scap-obs] failed to write trace to %s\n",
                 cfg.trace_path.c_str());
  }
}

/// Applies the environment configuration as soon as the library is loaded
/// (any TU calling into trace.cpp pulls this in).
struct EnvInit {
  EnvInit() {
    trace_epoch();  // pin t=0 to process start
    configure(config_from_env());
    std::atexit(dump_at_exit);
  }
};
const EnvInit g_env_init;

}  // namespace

std::string default_trace_path() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec || !exe.has_parent_path()) return "scap_trace.json";
  return (exe.parent_path() / "scap_trace.json").string();
}

ObsConfig config_from_env() {
  ObsConfig cfg;
  // Static-init-time reads; nothing mutates the environment.
  if (const char* env = util::env_cstr("SCAP_TRACE")) {
    if (std::strcmp(env, "0") != 0 && env[0] != '\0') {
      cfg.trace = true;
      cfg.dump_trace_at_exit = true;
      // SCAP_TRACE=1 routes next to the binary; an explicit path wins.
      cfg.trace_path =
          std::strcmp(env, "1") == 0 ? default_trace_path() : env;
    }
  }
  if (const char* env = util::env_cstr("SCAP_PROF")) {
    cfg.prof = std::strcmp(env, "0") != 0 && env[0] != '\0';
  }
  return cfg;
}

void configure(const ObsConfig& cfg) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_config = cfg;
  g_obs_flags.store((cfg.trace ? kFlagTrace : 0u) |
                        (cfg.prof ? kFlagProf : 0u),
                    std::memory_order_relaxed);
}

ObsConfig config() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return g_config;
}

double now_us() {
  const auto dt = std::chrono::steady_clock::now() - trace_epoch();
  return std::chrono::duration<double, std::micro>(dt).count();
}

void trace_begin(const char* name) {
  thread_buffer().push(name, now_us(), 'B');
}

void trace_end(const char* name) {
  thread_buffer().push(name, now_us(), 'E');
}

std::vector<TraceEvent> trace_snapshot() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t now_epoch = s.clear_epoch.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out = s.retired;
  for (ThreadBuffer* b : s.live) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (b->epoch != now_epoch) continue;  // stale since last clear
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

void trace_inject(const std::vector<TraceEvent>& events) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.retired.insert(s.retired.end(), events.begin(), events.end());
}

void trace_clear() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.retired.clear();
  s.dropped = 0;
  // Live buffers self-invalidate on their owner's next push.
  s.clear_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t now_epoch = s.clear_epoch.load(std::memory_order_relaxed);
  std::uint64_t n = s.dropped;
  for (ThreadBuffer* b : s.live) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (b->epoch == now_epoch) n += b->dropped;
  }
  return n;
}

double span_begin(const char* name) {
  const double t = now_us();
  if (trace_enabled()) thread_buffer().push(name, t, 'B');
  return t;
}

void span_end(const char* name, double start_us) {
  const double t = now_us();
  if (trace_enabled()) thread_buffer().push(name, t, 'E');
  Registry::global().timer(name).observe_ms((t - start_us) / 1000.0);
}

}  // namespace scap::obs
