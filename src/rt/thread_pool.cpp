#include "rt/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/env.h"

namespace scap::rt {

namespace {

thread_local bool tl_on_worker = false;

// SCAP_THREADS is sampled exactly once, the first time any caller needs the
// default concurrency (normally the first ThreadPool::global() call, i.e.
// process startup). Long-lived processes such as the serve daemon therefore
// have a thread count fixed at startup: later environment mutation -- or a
// set_global_concurrency(0) reset -- cannot change it.
std::size_t env_concurrency() {
  static const std::size_t cached = [] {
    if (const char* env = util::env_cstr("SCAP_THREADS")) {
      const long n = std::atol(env);
      if (n >= 1) return std::min<std::size_t>(static_cast<std::size_t>(n), 256);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw ? hw : 1);
  }();
  return cached;
}

std::mutex g_global_mu;
std::shared_ptr<ThreadPool> g_global;  // guarded by g_global_mu

}  // namespace

// One parallel region. Shared by the submitter, the open-job list and every
// worker claiming from it, so a thread that reads `next` after the last
// chunk ran still reads live memory. `body` is the submitter's and dangles
// once the job drains; by then every chunk is claimed and nobody calls it.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& b, std::size_t n)
      : body(&b), n_chunks(n), remaining(n) {}

  bool fully_claimed() const {
    return next.load(std::memory_order_relaxed) >= n_chunks;
  }

  const std::function<void(std::size_t)>* body;
  const std::size_t n_chunks;
  std::atomic<std::size_t> next{0};  ///< next chunk to claim
  std::atomic<std::size_t> remaining;  ///< chunks not yet finished
  // The first exception a chunk threw. Written once, by the thread that wins
  // `failed`, before its chunk counts down; the submitter reads it only
  // after `remaining` hits zero.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t concurrency)
    : concurrency_(concurrency == 0 ? 1 : concurrency) {
  obs::Registry& reg = obs::Registry::global();
  jobs_ctr_ = &reg.counter("rt.jobs");
  chunks_ctr_ = &reg.counter("rt.chunks");
  for (std::size_t i = 0; i + 1 < concurrency_; ++i) {
    auto w = std::make_unique<Worker>();
    w->prof.set_lane(static_cast<std::uint32_t>(i));
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

bool ThreadPool::on_worker_thread() noexcept { return tl_on_worker; }

void ThreadPool::run_chunks(Job& job, obs::ProfRing& ring) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) return;
    ring.record(obs::ProfKind::kTaskBegin);
    // A throwing chunk still counts down, so the job drains and the
    // submitter -- never a worker -- rethrows.
    try {
      (*job.body)(c);
    } catch (...) {
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.error = std::current_exception();
      }
    }
    // TaskEnd lands before the count-down: once `remaining` hits zero the
    // submitter may collect a profile, which must already see this task.
    ring.record(obs::ProfKind::kTaskEnd);
    // Taking drain_mu_ orders the notify after a submitter's predicate
    // check, so the wake is not lost.
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { std::lock_guard<std::mutex> lock(drain_mu_); }
      drain_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_main(Worker* self) {
  tl_on_worker = true;
  int idle_sweeps = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::erase_if(open_, [](const std::shared_ptr<Job>& j) {
      return j->fully_claimed();
    });
    if (stop_) break;
    if (!open_.empty()) {
      const std::shared_ptr<Job> job = open_.front();
      lock.unlock();
      run_chunks(*job, self->prof);
      idle_sweeps = 0;
      lock.lock();
    } else if (active_jobs_.load(std::memory_order_relaxed) > 0 &&
               ++idle_sweeps <= 16) {
      // A job is in flight but fully claimed, and its submitter often sends
      // the next one as soon as it drains: stay hot briefly. The spin is
      // bounded because, when workers outnumber hardware threads, unbounded
      // yielding takes the very timeslices the running chunks need.
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    } else {
      // Every claimable chunk arrives with a notify (run_chunked), so the
      // park needs no timeout.
      idle_sweeps = 0;
      self->prof.record(obs::ProfKind::kPark);
      cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
      self->prof.record(obs::ProfKind::kUnpark);
    }
  }
  tl_on_worker = false;
}

void ThreadPool::run_chunked(std::size_t n_chunks,
                             const std::function<void(std::size_t)>& body) {
  if (n_chunks == 0) return;
  // Serial pool, trivial region, or nested call from inside a worker: run
  // inline in index order. This is the same chunk decomposition the parallel
  // path executes, so results are identical by construction.
  if (workers_.empty() || n_chunks < 2 || on_worker_thread()) {
    for (std::size_t c = 0; c < n_chunks; ++c) body(c);
    return;
  }
  SCAP_TRACE_SCOPE("rt.job");
  obs::ProfRing& ring = obs::caller_prof_ring();
  ring.record(obs::ProfKind::kJobBegin,
              static_cast<std::uint32_t>(
                  std::min<std::size_t>(n_chunks, 0xFFFFu)));
  jobs_ctr_->add(1);
  chunks_ctr_->add(n_chunks);

  const auto job = std::make_shared<Job>(body, n_chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_jobs_.fetch_add(1, std::memory_order_relaxed);
    open_.push_back(job);
  }
  cv_.notify_all();

  // Claim chunks alongside the workers, then wait for the ones still
  // running elsewhere: spin briefly, then park until the chunk that
  // finishes last wakes this thread.
  run_chunks(*job, ring);
  auto drained = [&job] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  };
  for (int idle_sweeps = 0; !drained();) {
    if (++idle_sweeps <= 16) {
      std::this_thread::yield();
    } else {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock, drained);
    }
  }
  active_jobs_.fetch_sub(1, std::memory_order_relaxed);
  ring.record(obs::ProfKind::kJobEnd);
  // Move the exception out: a worker may drop the last reference to the job,
  // and the exception must end its life on this thread, which catches it.
  // Its reference count lives in the C++ runtime, where ThreadSanitizer does
  // not see the ordering between threads.
  if (std::exception_ptr error = std::move(job->error)) {
    std::rethrow_exception(error);
  }
}

std::shared_ptr<ThreadPool> ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global) g_global = std::make_shared<ThreadPool>(env_concurrency());
  return g_global;
}

void ThreadPool::set_global_concurrency(std::size_t concurrency) {
  auto next = std::make_shared<ThreadPool>(
      concurrency == 0 ? env_concurrency() : concurrency);
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global = std::move(next);
}

std::size_t concurrency() { return ThreadPool::global()->concurrency(); }

}  // namespace scap::rt
