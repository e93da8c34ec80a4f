// Thread pool shared by every parallel kernel in the library.
//
// A submitted job is one shared record: the body, the chunk count, an atomic
// next-chunk counter, the count of chunks still running and the first
// exception. run_chunked appends it to the pool's open-job list and wakes the
// workers once; the submitter and the workers then claim chunks with one
// fetch_add each until none are left, and the chunk that finishes last wakes
// the submitter. Callers size their jobs (a few chunks per lane, or one
// index counter of their own), so the pool does no load balancing beyond
// that claim counter. The submitting thread participates until its job
// drains, so `SCAP_THREADS=N` means N-way concurrency total (N-1 pool
// workers plus the caller) and `SCAP_THREADS=1` (or a single-core host)
// means strictly serial inline execution with no threads, no queues and no
// atomics on the hot path.
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
// Observability: counters rt.jobs / rt.chunks, span timer "rt.job" around
// every parallel region. Under SCAP_PROF=1 every worker and submitting
// caller additionally records task/park/job events into a per-lane ring
// (obs/prof.h) for the scheduler-level profile.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/prof.h"

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
  /// rather than risking deadlock). Any thread may submit, and several may
  /// at once. If a chunk throws, the other chunks still run and the first
  /// exception thrown is rethrown here once the job has drained (inline
  /// execution stops at the throwing chunk); the pool stays usable.
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
  struct Worker {
    std::thread thread;
    obs::ProfRing prof{obs::ProfRing::Owner::kWorker};
  };

  void worker_main(Worker* self);
  void run_chunks(Job& job, obs::ProfRing& ring);

  std::size_t concurrency_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Jobs with unclaimed chunks, oldest first. A worker holds its own
  // reference while it claims, so a job outlives every thread that can still
  // read its counter; fully claimed jobs are dropped from the list.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Job>> open_;  // guarded by mu_
  bool stop_ = false;                       // guarded by mu_
  std::atomic<int> active_jobs_{0};         // submitted and not yet drained

  // Drain wake: the chunk that finishes a job notifies drain_cv_, so a
  // submitter parked in its drain tail wakes at once.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // Cached registry entries (never invalidated; see obs/metrics.h).
  obs::Counter* jobs_ctr_ = nullptr;
  obs::Counter* chunks_ctr_ = nullptr;
};

/// Concurrency of the global pool (>= 1).
std::size_t concurrency();

}  // namespace scap::rt
