// Scheduler-level profiler for the thread pool runtime (src/rt/).
//
// Each scheduler participant (pool worker or submitting caller thread) owns a
// ProfRing: a fixed-capacity ring of 64-bit packed events (kind + value +
// steady-clock timestamp). The hot path is a single relaxed atomic load (the
// SCAP_PROF flag) when profiling is off, and one packed atomic store per event
// when on -- no allocation, no locking, no syscalls. Overflow overwrites the
// oldest events and is accounted as `dropped` rather than corrupting or
// growing.
//
// At pool quiesce (no parallel region in flight -- the same caveat as
// ThreadPool::set_global_concurrency) collect_pool_profile() aggregates every
// ring into a PoolProfile: per-lane busy/park/scheduler-overhead utilization,
// task and park counts, task-duration / chunks-per-job / grain
// distributions, and an imbalance metric. The profile exports three ways:
//  - export_pool_profile(): `rt.prof.*` counters/gauges into the metrics
//    registry, so BENCH_*.json artifacts carry the scheduler breakdown;
//  - collect injects per-lane begin/end pairs into the Chrome trace stream
//    (when SCAP_TRACE is on) as synthetic "rt lane N" lanes, so a flame view
//    shows what every worker was doing;
//  - format_pool_report(): a human-readable table (tools/scap_prof,
//    bench_kernels under SCAP_PROF=1).
//
// Environment:
//   SCAP_PROF=1   enable event recording (default off; see obs/trace.h)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"  // prof_enabled(), now_us()
#include "util/stats.h"

namespace scap::obs {

class Registry;

enum class ProfKind : std::uint8_t {
  kTaskBegin,  ///< a claimed chunk starts
  kTaskEnd,    ///< the chunk's body returned
  kPark,       ///< worker blocks on the pool condvar
  kUnpark,     ///< worker woke up
  kJobBegin,   ///< run_chunked dispatch; value = chunk count
  kJobEnd,     ///< submitting thread drained the job
  kGrain,      ///< chunking decision; value = elements per chunk
};

/// Unpacked event. Timestamps are microseconds on the trace epoch (now_us).
struct ProfEvent {
  double ts_us = 0.0;
  std::uint32_t value = 0;
  ProfKind kind = ProfKind::kTaskBegin;
};

/// Single-writer fixed-capacity event ring. The owner thread records; any
/// thread may snapshot concurrently (slots are relaxed atomics, so reads are
/// race-free; a snapshot taken while the owner is mid-wrap can see a handful
/// of reordered events, which the aggregation tolerates). Capacity is rounded
/// up to a power of two; slot storage is allocated lazily on the first
/// recorded event, so idle rings cost a few pointers. The default 2^18
/// events (2 MiB) hold every event of a 4-lane conventional ATPG run at
/// scale 0.32 (about 100K per lane).
class ProfRing {
 public:
  enum class Owner : std::uint8_t { kWorker, kCaller };
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  explicit ProfRing(Owner owner, std::size_t capacity = kDefaultCapacity);
  ~ProfRing();
  ProfRing(const ProfRing&) = delete;
  ProfRing& operator=(const ProfRing&) = delete;

  /// Lane id inside the pool (worker index). Callers are auto-numbered.
  void set_lane(std::uint32_t lane) { lane_ = lane; }
  std::uint32_t lane() const { return lane_; }
  Owner owner() const { return owner_; }

  /// Hot path: a relaxed flag load when profiling is off.
  void record(ProfKind k, std::uint32_t value = 0) noexcept {
    if (!prof_enabled()) return;
    record_always(k, value);
  }
  /// Unconditional record (tests exercise the ring directly).
  void record_always(ProfKind k, std::uint32_t value) noexcept;

  /// Events currently held (oldest first), plus how many older events the
  /// ring overwrote since the last rebase.
  std::vector<ProfEvent> snapshot(std::uint64_t* dropped = nullptr) const;
  /// Forget everything recorded so far (collect-side; the owner keeps
  /// writing).
  void rebase();

  std::size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> alloc_slots() const;

  std::size_t capacity_ = 0;  // power of two
  std::atomic<std::atomic<std::uint64_t>*> slots_{nullptr};
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_storage_;
  std::atomic<std::uint64_t> head_{0};  ///< total events ever recorded
  std::atomic<std::uint64_t> base_{0};  ///< events forgotten by rebase()
  Owner owner_ = Owner::kCaller;
  std::uint32_t lane_ = 0;
};

/// The calling thread's ring (submitting threads; lazily created/registered).
ProfRing& caller_prof_ring();

/// Aggregated view of one scheduler participant.
struct LaneProfile {
  std::string label;           ///< "w<i>" for pool workers, "c<i>" for callers
  bool is_worker = false;
  std::uint64_t tasks = 0;     ///< chunks executed
  std::uint64_t parks = 0;
  double busy_ms = 0.0;        ///< sum of task durations
  double park_ms = 0.0;        ///< time blocked on the pool condvar
  RunningStats task_us;        ///< per-task duration distribution
  // Fractions of the profile window (busy + park + sched <= ~1; sched is the
  // remainder: claiming, spinning, waiting on the drain).
  double busy_frac = 0.0;
  double park_frac = 0.0;
  double sched_frac = 0.0;
};

/// Aggregated pool-wide profile over the collection window.
struct PoolProfile {
  std::vector<LaneProfile> lanes;
  double window_ms = 0.0;      ///< last event ts - first event ts, all lanes
  std::uint64_t jobs = 0;
  std::uint64_t total_events = 0;
  std::uint64_t dropped = 0;   ///< ring overwrites across all lanes
  RunningStats chunks_per_job; ///< kJobBegin values (saturate at 65535)
  RunningStats grain;          ///< kGrain values
  RunningStats task_us;        ///< all lanes merged
  /// 1 - mean(busy)/max(busy) over lanes that executed tasks: 0 = perfectly
  /// balanced, ->1 = one lane did all the work.
  double imbalance = 0.0;

  bool empty() const { return total_events == 0; }
};

/// Aggregate every live and retired ring. When tracing is enabled the
/// collected task/park/job events are also injected into the trace stream
/// as per-lane Chrome lanes (tid = kProfLaneBase + lane). Call at pool
/// quiesce only.
PoolProfile collect_pool_profile();

/// Forget all recorded events (live rings rebase, retired rings drop) so the
/// next collect covers a fresh window.
void prof_reset();

/// Export the profile into `reg` under `prefix` ("<prefix>.busy_frac",
/// "<prefix>.tasks", per-lane "<prefix>.<label>.busy_frac", ...). No-op for
/// an empty profile: a disabled profiler leaves zero registry entries.
void export_pool_profile(const PoolProfile& p, Registry& reg,
                         std::string_view prefix = "rt.prof");

/// Human-readable per-lane utilization table plus summary header.
std::string format_pool_report(const PoolProfile& p);

}  // namespace scap::obs
