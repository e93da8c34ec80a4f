// Tests for the scheduler profiler (obs/prof.h): the disabled mode must be a
// true no-op (zero events recorded, no rt.prof.* registry entry), ring
// overflow must drop the oldest events with exact accounting, and a profiled
// parallel region must aggregate to the known task/job/grain totals.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "rt/parallel.h"
#include "rt/thread_pool.h"

namespace scap::obs {
namespace {

// Profiler state and the obs flags are process-global; every test starts from
// a clean window with the profiler off and restores the defaults.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    configure(ObsConfig{});  // trace off, prof off
    prof_reset();
    trace_clear();
    Registry::global().reset();
  }

  void TearDown() override {
    rt::ThreadPool::set_global_concurrency(0);
    configure(ObsConfig{});
    prof_reset();
    trace_clear();
    Registry::global().reset();
  }

  static void set_prof(bool on) {
    ObsConfig cfg;
    cfg.prof = on;
    configure(cfg);
  }

  /// A workload that touches every scheduler path: chunk claims on the
  /// workers, caller participation, the drain.
  static std::uint64_t run_workload(std::size_t n, std::size_t grain) {
    std::atomic<std::uint64_t> sum{0};
    rt::parallel_for(n, grain, [&](std::size_t b, std::size_t e) {
      std::uint64_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    return sum.load();
  }
};

TEST_F(ProfTest, DisabledModeIsTrueNoOp) {
  rt::ThreadPool::set_global_concurrency(4);
  run_workload(4096, 8);

  const PoolProfile p = collect_pool_profile();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.total_events, 0u);
  EXPECT_EQ(p.dropped, 0u);

  // The pool's own counters and span timers land in the registry; the
  // profiler must add nothing of its own.
  export_pool_profile(p, Registry::global());
  const Registry::Snapshot snap = Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_FALSE(name.starts_with("rt.prof.")) << name;
  }
  for (const auto& [name, stats] : snap.gauges) {
    EXPECT_FALSE(name.starts_with("rt.prof.")) << name;
  }
  for (const Registry::TimerSnap& t : snap.timers) {
    EXPECT_FALSE(t.name.starts_with("rt.prof.")) << t.name;
  }
}

TEST_F(ProfTest, CallerRingRecordGatedOnFlag) {
  ProfRing& ring = caller_prof_ring();
  ring.record(ProfKind::kGrain, 7);  // prof off: must not land
  EXPECT_TRUE(ring.snapshot().empty());

  set_prof(true);
  ring.record(ProfKind::kGrain, 7);
  std::uint64_t dropped = 9;
  const std::vector<ProfEvent> ev = ring.snapshot(&dropped);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(ev[0].kind, ProfKind::kGrain);
  EXPECT_EQ(ev[0].value, 7u);
  EXPECT_GE(ev[0].ts_us, 0.0);
}

TEST_F(ProfTest, RingOverflowDropsOldestAndCounts) {
  ProfRing ring(ProfRing::Owner::kWorker, /*capacity=*/8);
  ring.set_lane(77);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record_always(ProfKind::kGrain, i);
  }
  std::uint64_t dropped = 0;
  const std::vector<ProfEvent> ev = ring.snapshot(&dropped);
  ASSERT_EQ(ev.size(), 8u);
  EXPECT_EQ(dropped, 12u);
  // The survivors are the newest 8, oldest-first, uncorrupted.
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(ev[i].value, 12u + i) << "slot " << i;
    EXPECT_EQ(ev[i].kind, ProfKind::kGrain);
  }
}

TEST_F(ProfTest, OverflowFlowsIntoProfileAndDroppedCounter) {
  ProfRing ring(ProfRing::Owner::kWorker, /*capacity=*/8);
  ring.set_lane(88);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record_always(ProfKind::kGrain, i);
  }
  const PoolProfile p = collect_pool_profile();
  EXPECT_EQ(p.dropped, 12u);
  EXPECT_EQ(p.total_events, 8u);

  export_pool_profile(p, Registry::global(), "rt.prof");
  EXPECT_EQ(Registry::global().counter("rt.prof.dropped").value(), 12u);
}

TEST_F(ProfTest, RebaseForgetsHistory) {
  ProfRing ring(ProfRing::Owner::kCaller, /*capacity=*/8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record_always(ProfKind::kGrain, i);
  }
  ring.rebase();
  std::uint64_t dropped = 99;
  EXPECT_TRUE(ring.snapshot(&dropped).empty());
  EXPECT_EQ(dropped, 0u);
  ring.record_always(ProfKind::kGrain, 42);
  const std::vector<ProfEvent> ev = ring.snapshot(&dropped);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(ev[0].value, 42u);
}

TEST_F(ProfTest, ValueSaturatesInsteadOfWrapping) {
  ProfRing ring(ProfRing::Owner::kCaller, /*capacity=*/8);
  ring.record_always(ProfKind::kJobBegin, 0xFFFFFFFFu);
  const std::vector<ProfEvent> ev = ring.snapshot();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].value, 0xFFFFu);  // 16-bit saturating payload
}

TEST_F(ProfTest, ProfiledRegionAggregatesKnownTotals) {
  rt::ThreadPool::set_global_concurrency(4);
  run_workload(64, 1);  // warm the pool so workers exist and are awake
  prof_reset();
  set_prof(true);
  run_workload(256, 1);  // exactly 256 chunks -> 256 task executions
  set_prof(false);

  const PoolProfile p = collect_pool_profile();
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.jobs, 1u);
  std::uint64_t tasks = 0;
  for (const LaneProfile& lp : p.lanes) tasks += lp.tasks;
  EXPECT_EQ(tasks, 256u);
  ASSERT_EQ(p.chunks_per_job.count(), 1u);
  EXPECT_EQ(p.chunks_per_job.mean(), 256.0);
  ASSERT_EQ(p.grain.count(), 1u);
  EXPECT_EQ(p.grain.mean(), 1.0);
  EXPECT_EQ(p.task_us.count(), 256u);
  EXPECT_GE(p.window_ms, 0.0);

  export_pool_profile(p, Registry::global());
  Registry& reg = Registry::global();
  EXPECT_EQ(reg.counter("rt.prof.tasks").value(), 256u);
  EXPECT_EQ(reg.counter("rt.prof.jobs").value(), 1u);
  EXPECT_EQ(reg.gauge("rt.prof.chunks_per_job").snapshot().mean(), 256.0);
  // The report renders without blowing up and mentions every lane label.
  const std::string report = format_pool_report(p);
  for (const LaneProfile& lp : p.lanes) {
    EXPECT_NE(report.find(lp.label), std::string::npos) << lp.label;
  }
}

TEST_F(ProfTest, PoolRebuildRetiresWorkerEvents) {
  rt::ThreadPool::set_global_concurrency(4);
  prof_reset();
  set_prof(true);
  run_workload(128, 1);
  // Swapping the pool destroys the workers; their rings must retire, not
  // vanish.
  rt::ThreadPool::set_global_concurrency(2);
  set_prof(false);

  const PoolProfile p = collect_pool_profile();
  std::uint64_t tasks = 0;
  for (const LaneProfile& lp : p.lanes) tasks += lp.tasks;
  EXPECT_EQ(tasks, 128u);
}

TEST_F(ProfTest, CollectInjectsChromeLanesWhenTracing) {
  ObsConfig cfg;
  cfg.trace = true;
  cfg.prof = true;
  configure(cfg);
  rt::ThreadPool::set_global_concurrency(4);
  prof_reset();
  trace_clear();
  run_workload(256, 1);
  cfg.prof = false;  // keep tracing on: injection happens at collect time
  configure(cfg);

  (void)collect_pool_profile();
  const std::vector<TraceEvent> ev = trace_snapshot();
  bool saw_task_lane = false;
  for (const TraceEvent& e : ev) {
    if (e.tid >= kProfLaneBase && std::string_view(e.name) == "rt.task") {
      saw_task_lane = true;
      break;
    }
  }
  EXPECT_TRUE(saw_task_lane);
}

}  // namespace
}  // namespace scap::obs
