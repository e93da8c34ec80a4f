// Work-stealing thread pool shared by every parallel kernel in the library.
//
// Workers each own a Chase-Lev deque (rt/deque.h); a submitted job is one
// root task covering chunk-index range [0, n) that executors split in half
// recursively, pushing the upper half for idle threads to steal. The
// submitting thread participates until its job drains, so `SCAP_THREADS=N`
// means N-way concurrency total (N-1 pool workers plus the caller) and
// `SCAP_THREADS=1` (or a single-core host) means strictly serial inline
// execution with no threads, no queues and no atomics on the hot path.
//
// Determinism contract: the pool assigns chunks to threads arbitrarily, so
// callers must make results a pure function of the chunk index (write to
// chunk-indexed slots, combine in index order -- see rt/parallel.h). Under
// that discipline every kernel in the library is bit-identical at any thread
// count.
//
// Environment:
//   SCAP_THREADS=N   total concurrency (default: hardware threads); read
//                    once at startup and cached for the process lifetime
//
// Observability: counters rt.jobs / rt.chunks / rt.tasks / rt.steals /
// rt.steal_attempts, span timer "rt.job" around every parallel region.
// (A queue-depth gauge sampled at submit time used to live here; it read 0
// on every sample -- the injector has not been split into worker deques yet
// at that point -- so it was dropped.) Under SCAP_PROF=1 every worker and
// submitting caller additionally records task/steal/park/job events into a
// per-lane ring (obs/prof.h) for the scheduler-level profile.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/prof.h"
#include "rt/deque.h"

namespace scap::obs {
class Counter;
}

namespace scap::rt {

class ThreadPool {
 public:
  /// `concurrency` counts the submitting thread: the pool spawns
  /// `concurrency - 1` workers. 0 is treated as 1.
  explicit ThreadPool(std::size_t concurrency);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t concurrency() const { return concurrency_; }

  /// Run body(chunk) for every chunk in [0, n_chunks) and return when all
  /// have executed. The caller participates. body must be thread-safe;
  /// chunk->thread placement is arbitrary (see the determinism contract
  /// above). Executes inline when the pool is serial, n_chunks < 2, or the
  /// calling thread is itself a pool worker (nested regions are serialized
  /// rather than risking deadlock). If a chunk throws, the other chunks
  /// still run and the first exception thrown is rethrown here once the
  /// job has drained (inline execution stops at the throwing chunk); the
  /// pool stays usable.
  void run_chunked(std::size_t n_chunks,
                   const std::function<void(std::size_t)>& body);

  /// Lazily constructed process-wide pool. Its default concurrency comes from
  /// a single SCAP_THREADS read cached at first use -- the value is fixed for
  /// the life of the process. Returned as shared_ptr so
  /// set_global_concurrency can swap the instance while stragglers finish
  /// against the old one.
  static std::shared_ptr<ThreadPool> global();

  /// Rebuild the global pool at the given concurrency (0 = restore the
  /// startup-cached SCAP_THREADS / hardware default; the environment is NOT
  /// re-read). For tests and bench sweeps; callers must be quiescent (no
  /// parallel region in flight).
  static void set_global_concurrency(std::size_t concurrency);

  /// True on a pool worker thread (used to serialize nested regions).
  static bool on_worker_thread() noexcept;

 private:
  struct Job;
  struct Task {
    Job* job = nullptr;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  struct Worker {
    WorkStealingDeque<Task*> deque;
    std::size_t index = 0;
    std::thread thread;
    obs::ProfRing prof{obs::ProfRing::Owner::kWorker};
  };

  void worker_main(Worker* self);
  void execute(Task* task, Worker* self);
  Task* steal_any(Worker* self);
  Task* pop_injector();
  void inject(Task* task);

  std::size_t concurrency_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task*> injector_;  // guarded by mu_
  std::atomic<int> active_jobs_{0};
  std::atomic<bool> stop_{false};

  // Drain wake: the task that finishes a job notifies drain_cv_, so a
  // submitter parked in its drain tail wakes at once instead of at the end
  // of its 100 us poll. Pool-owned because the Job itself may be gone the
  // moment its last task counts down.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Cached registry entries (never invalidated; see obs/metrics.h).
  obs::Counter* jobs_ctr_ = nullptr;
  obs::Counter* chunks_ctr_ = nullptr;
  obs::Counter* tasks_ctr_ = nullptr;
  obs::Counter* steals_ctr_ = nullptr;
  obs::Counter* steal_attempts_ctr_ = nullptr;
};

/// Concurrency of the global pool (>= 1).
std::size_t concurrency();

}  // namespace scap::rt
