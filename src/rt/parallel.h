// Parallel loop primitives over the global pool.
//
// One chunking regime: the index range is cut into fixed chunks of `grain`
// elements, chunk k covering [k * grain, min(n, (k + 1) * grain)). The chunk
// layout is a pure function of (n, grain), never of the thread count, and it
// is the same on the parallel, serial and nested paths, so a body that
// writes only element-indexed state gives the same result at every
// SCAP_THREADS value, including 1. That is the library-wide determinism
// contract (README "Parallel runtime").
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "rt/thread_pool.h"

namespace scap::rt {

namespace detail {

/// Profiler note of a chunking decision (a nested region runs inline and is
/// not a decision of its own).
inline void note_grain(std::size_t grain, std::size_t n_chunks) {
  if (obs::prof_enabled() && n_chunks >= 2 &&
      !ThreadPool::on_worker_thread()) {
    obs::caller_prof_ring().record(
        obs::ProfKind::kGrain,
        static_cast<std::uint32_t>(std::min<std::size_t>(grain, 0xFFFFu)));
  }
}

}  // namespace detail

/// Run body(begin, end) once per fixed chunk of `grain` elements (0 counts
/// as 1) covering [0, n). Chunks execute on arbitrary threads; bodies must
/// only write element-indexed state. A body whose behaviour depends on the
/// chunk boundaries (e.g. one RNG stream per chunk) stays thread-count
/// invariant, because the boundaries never depend on the pool.
inline void parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  detail::note_grain(grain, n_chunks);
  ThreadPool::global()->run_chunked(n_chunks, [&](std::size_t c) {
    const std::size_t b = c * grain;
    body(b, std::min(n, b + grain));
  });
}

/// Run two independent closures, possibly concurrently.
inline void parallel_invoke(const std::function<void()>& a,
                            const std::function<void()>& b) {
  ThreadPool::global()->run_chunked(2, [&](std::size_t c) { c == 0 ? a() : b(); });
}

}  // namespace scap::rt
