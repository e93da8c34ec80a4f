// Named counters, distribution gauges and span timers in a global registry.
//
// Counters are monotonic relaxed atomics (cheap enough to leave on in hot
// paths at once-per-call granularity); gauges and timers wrap the repo's
// RunningStats accumulator (src/util/stats.h) behind a mutex -- they are fed
// at per-pattern / per-phase granularity, never per-event.
//
// The registry never erases entries, so Counter/Gauge/Timer references stay
// valid for the life of the process; hot callers cache them at construction
// time instead of paying the name lookup per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace scap::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
  /// Capture-and-zero in one atomic step (no adds lost around a snapshot).
  std::uint64_t take() noexcept {
    return v_.exchange(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Distribution gauge: count / mean / min / max / stddev of observed values.
class Gauge {
 public:
  void observe(double x) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.add(x);
  }
  /// Fold a locally accumulated distribution in (hot loops / obs::prof
  /// aggregate off-registry and flush once).
  void observe_stats(const RunningStats& s) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.merge(s);
  }
  RunningStats snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = RunningStats{};
  }

 private:
  mutable std::mutex mu_;
  RunningStats stats_;
};

/// Aggregated wall-time for one span name (fed by TraceScope).
class Timer {
 public:
  void observe_ms(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.add(ms);
    total_ms_ += ms;
  }
  RunningStats snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  double total_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ms_;
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = RunningStats{};
    total_ms_ = 0.0;
  }

 private:
  mutable std::mutex mu_;
  RunningStats stats_;
  double total_ms_ = 0.0;
};

class Registry {
 public:
  /// The process-wide registry used by all instrumentation macros/helpers.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);

  struct TimerSnap {
    std::string name;
    RunningStats stats;
    double total_ms = 0.0;
  };

  /// Value snapshot of every non-empty entry (zero counters and zero-count
  /// gauges/timers are omitted). Used for phase-scoped metrics: a multi-phase
  /// bench calls snapshot_and_reset() at each phase boundary so per-phase
  /// `rt.*` values don't bleed into each other, then merges the per-phase
  /// snapshots for the cumulative report (see bench/bench_common.h).
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, RunningStats>> gauges;
    std::vector<TimerSnap> timers;

    bool empty() const {
      return counters.empty() && gauges.empty() && timers.empty();
    }
    /// Fold `other` in, as if both windows had been observed into one
    /// registry: counters add, gauge/timer distributions merge.
    void merge(const Snapshot& other);
  };

  /// Every counter's value, zero ones included, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;

  /// Non-empty entries only; does not modify the registry.
  Snapshot snapshot() const;
  /// Atomically-per-entry capture + zero: the returned snapshot holds exactly
  /// the values observed since the previous reset, and the registry starts
  /// the next phase from zero. Registered references stay valid.
  Snapshot snapshot_and_reset();

  /// Zero every value; registered references stay valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

/// Convenience helpers: one registry lookup per call. Fine for warm paths
/// (per pattern, per batch, per ATPG run); hot loops should accumulate
/// locally and flush once per call instead.
inline void count(std::string_view name, std::uint64_t n = 1) {
  Registry::global().counter(name).add(n);
}
inline void observe(std::string_view name, double x) {
  Registry::global().gauge(name).observe(x);
}

}  // namespace scap::obs
