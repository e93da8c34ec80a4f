// Unit tests for the parallel execution runtime: pool scheduling (every
// chunk once, drains, exceptions, concurrent submitters) and the
// deterministic parallel primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/pattern.h"
#include "rt/parallel.h"
#include "rt/thread_pool.h"

namespace scap {
namespace {

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  rt::ThreadPool pool(4);
  constexpr std::size_t kChunks = 5000;
  std::vector<std::atomic<int>> hits(kChunks);
  for (auto& h : hits) h.store(0);
  pool.run_chunked(kChunks, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (std::size_t c = 0; c < kChunks; ++c) {
    ASSERT_EQ(hits[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPool, SerialPoolRunsInline) {
  rt::ThreadPool pool(1);
  const auto main_id = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_chunked(8, [&](std::size_t c) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    order.push_back(c);
  });
  std::vector<std::size_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, NestedRegionsSerializeWithoutDeadlock) {
  rt::ThreadPool::set_global_concurrency(4);
  std::atomic<int> total{0};
  rt::parallel_for(8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Nested region: must run inline on whichever thread got here.
      rt::parallel_for(4, 1, [&](std::size_t ib, std::size_t ie) {
        total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 4);
  rt::ThreadPool::set_global_concurrency(0);
}

TEST(ThreadPool, BackToBackJobsReuseSleepingWorkers) {
  rt::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> n{0};
    pool.run_chunked(16, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 16);
  }
}

TEST(ThreadPool, RethrowsBodyExceptionAfterDrain) {
  // One throwing chunk must neither terminate the process nor unwind the
  // submitter while other threads still run its job: every other chunk runs,
  // the submitter receives the exception, and the pool keeps working. The
  // throwing chunk moves so it lands on the submitter and on workers.
  rt::ThreadPool pool(4);
  constexpr std::size_t kChunks = 64;
  for (const std::size_t bad : {std::size_t{0}, std::size_t{31}, kChunks - 1}) {
    std::vector<std::atomic<int>> hits(kChunks);
    for (auto& h : hits) h.store(0);
    try {
      pool.run_chunked(kChunks, [&](std::size_t c) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (c == bad) throw std::runtime_error("chunk " + std::to_string(c));
        hits[c].fetch_add(1);
      });
      ADD_FAILURE() << "run_chunked swallowed the exception of chunk " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "chunk " + std::to_string(bad));
    }
    for (std::size_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(hits[c].load(), c == bad ? 0 : 1) << "chunk " << c;
    }
    std::atomic<int> n{0};
    pool.run_chunked(kChunks, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), static_cast<int>(kChunks));
  }
}

TEST(ThreadPool, BackToBackUnevenTwoChunkJobsDrain) {
  // Stress for the drain wake: many back-to-back 2-chunk jobs whose chunks
  // differ in length, alternating which one is long, so the last task ends
  // on the submitter or on a worker, the submitter often parks in its drain
  // tail first, and a worker may still be inside its drain notify when the
  // next job is submitted. Every job must drain with both chunks run.
  rt::ThreadPool pool(4);
  std::vector<std::uint64_t> ran(2, 0);
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    const std::size_t slow = round % 2;
    const auto pause = std::chrono::microseconds(round % 4 * 25);
    pool.run_chunked(2, [&](std::size_t c) {
      if (c == slow) std::this_thread::sleep_for(pause);
      ran[c] = round;
    });
    ASSERT_EQ(ran[0], round);
    ASSERT_EQ(ran[1], round);
  }
}

TEST(ThreadPool, ConcurrentSubmittersDrainTheirOwnJobs) {
  // Three threads share one pool. Every chunk of every job runs exactly once
  // and before its submitter returns, and an exception reaches only the
  // submitter whose chunk threw it. Every third chunk sleeps before it
  // counts, so a submitter that returned early would see it uncounted.
  rt::ThreadPool pool(4);
  constexpr std::size_t kSubmitters = 3;
  constexpr std::size_t kJobs = 500;
  constexpr std::size_t kThrower = 1;
  struct Tally {
    std::size_t miscounted = 0;  // chunks that did not run exactly once
    std::size_t caught = 0;      // exceptions this submitter received
    std::size_t foreign = 0;     // ... that another job threw
  };
  std::vector<Tally> tally(kSubmitters);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Tally& my = tally[t];
      std::vector<std::atomic<int>> hits(16);
      for (std::size_t j = 0; j < kJobs; ++j) {
        const std::size_t n = 2 + (j * 7 + t * 5) % 15;  // 2..16 chunks
        const std::size_t bad = t == kThrower && j % 10 == 3 ? j % n : n;
        const std::string tag = std::to_string(t) + "/" + std::to_string(j);
        for (auto& h : hits) h.store(0);
        try {
          pool.run_chunked(n, [&](std::size_t c) {
            if ((c + j) % 3 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
            hits[c].fetch_add(1);
            if (c == bad) throw std::runtime_error(tag);
          });
        } catch (const std::runtime_error& e) {
          ++my.caught;
          my.foreign += std::string(e.what()) != tag;
        }
        for (std::size_t c = 0; c < hits.size(); ++c) {
          my.miscounted += hits[c].load() != (c < n ? 1 : 0);
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    EXPECT_EQ(tally[t].miscounted, 0u) << "submitter " << t;
    EXPECT_EQ(tally[t].caught, t == kThrower ? kJobs / 10 : 0u)
        << "submitter " << t;
    EXPECT_EQ(tally[t].foreign, 0u) << "submitter " << t;
  }
}

TEST(ParallelFor, CoversRangeWithArbitraryGrain) {
  rt::ThreadPool::set_global_concurrency(4);
  for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    for (std::size_t grain : {1u, 3u, 16u}) {
      std::vector<std::atomic<int>> hit(n);
      for (auto& h : hit) h.store(0);
      rt::parallel_for(n, grain, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hit[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hit[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
  rt::ThreadPool::set_global_concurrency(0);
}

TEST(ParallelInvoke, RunsBoth) {
  rt::ThreadPool::set_global_concurrency(2);
  std::atomic<int> a{0}, b{0};
  rt::parallel_invoke([&] { a.store(1); }, [&] { b.store(2); });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
  rt::ThreadPool::set_global_concurrency(0);
}

TEST(RandomPatternSet, ThreadCountInvariantAndSeedSensitive) {
  const std::size_t n = 100, vars = 57;
  rt::ThreadPool::set_global_concurrency(1);
  const PatternSet at1 = random_pattern_set(n, vars, 2007);
  rt::ThreadPool::set_global_concurrency(4);
  const PatternSet at4 = random_pattern_set(n, vars, 2007);
  const PatternSet other = random_pattern_set(n, vars, 2008);
  rt::ThreadPool::set_global_concurrency(0);

  ASSERT_EQ(at1.size(), n);
  ASSERT_EQ(at4.size(), n);
  bool any_diff_seed = false;
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(at1.patterns[p].s1.size(), vars);
    EXPECT_EQ(at1.patterns[p].s1, at4.patterns[p].s1) << "pattern " << p;
    any_diff_seed |= (at1.patterns[p].s1 != other.patterns[p].s1);
  }
  EXPECT_TRUE(any_diff_seed);
}

}  // namespace
}  // namespace scap
