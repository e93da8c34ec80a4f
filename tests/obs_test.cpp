#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace scap::obs {
namespace {

// The obs state is process-global; every test starts from a known, clean
// configuration and leaves the defaults behind (tracing off).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObsConfig cfg;
    cfg.trace = true;
    cfg.dump_trace_at_exit = false;
    configure(cfg);
    trace_clear();
    Registry::global().reset();
  }

  void TearDown() override {
    configure(ObsConfig{});
    trace_clear();
    Registry::global().reset();
  }
};

TEST_F(ObsTest, CountersIncrementFromMultipleScopes) {
  count("t.alpha");
  count("t.alpha", 4);
  { SCAP_TRACE_SCOPE("t.scoped"); count("t.beta", 2); }
  EXPECT_EQ(Registry::global().counter("t.alpha").value(), 5u);
  EXPECT_EQ(Registry::global().counter("t.beta").value(), 2u);
}

TEST_F(ObsTest, CounterReferencesStableAcrossLookups) {
  Counter& a = Registry::global().counter("t.stable");
  a.add(3);
  for (int i = 0; i < 100; ++i) Registry::global().counter("t.churn" + std::to_string(i));
  Counter& b = Registry::global().counter("t.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObsTest, CountersFromMultipleThreads) {
  constexpr int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) count("t.mt");
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(Registry::global().counter("t.mt").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, ScopedTimerProducesWellFormedBeginEndPair) {
  { SCAP_TRACE_SCOPE("t.span"); }
  const std::vector<TraceEvent> ev = trace_snapshot();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_STREQ(ev[0].name, "t.span");
  EXPECT_STREQ(ev[1].name, "t.span");
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(ev[1].phase, 'E');
  EXPECT_EQ(ev[0].tid, ev[1].tid);
  EXPECT_LE(ev[0].ts_us, ev[1].ts_us);
}

TEST_F(ObsTest, NestedScopesBalance) {
  {
    SCAP_TRACE_SCOPE("t.outer");
    { SCAP_TRACE_SCOPE("t.inner"); }
  }
  const std::vector<TraceEvent> ev = trace_snapshot();
  ASSERT_EQ(ev.size(), 4u);
  int depth = 0;
  for (const TraceEvent& e : ev) {
    depth += (e.phase == 'B') ? 1 : -1;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ObsTest, ScopeFeedsAggregatedTimer) {
  for (int i = 0; i < 3; ++i) { SCAP_TRACE_SCOPE("t.timed"); }
  const RunningStats st = Registry::global().timer("t.timed").snapshot();
  EXPECT_EQ(st.count(), 3u);
  EXPECT_GE(Registry::global().timer("t.timed").total_ms(), 0.0);
}

TEST_F(ObsTest, ChromeTraceExportParses) {
  { SCAP_TRACE_SCOPE("t.export"); }
  count("noise");  // must not affect the trace
  std::ostringstream os;
  write_chrome_trace(os);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  const json::Value& b = events->array[0];
  ASSERT_NE(b.find("name"), nullptr);
  EXPECT_EQ(b.find("name")->string, "t.export");
  ASSERT_NE(b.find("ph"), nullptr);
  EXPECT_EQ(b.find("ph")->string, "B");
  ASSERT_NE(b.find("ts"), nullptr);
  EXPECT_EQ(b.find("ts")->kind, json::Value::Kind::kNumber);
}

TEST_F(ObsTest, MetricsJsonRoundTrips) {
  count("t.json_counter", 42);
  observe("t.json_gauge", 1.5);
  observe("t.json_gauge", 2.5);
  { SCAP_TRACE_SCOPE("t.json_span"); }

  RunReport rep;
  rep.name = "unit";
  rep.info.emplace_back("scale", "0.040");
  rep.phases.push_back(
      PhaseTime{"setup", 1.25, Registry::global().snapshot_and_reset()});

  const std::string text = to_json(rep);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());

  // dump() -> parse() is a fixed point.
  const auto again = json::parse(doc->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*again == *doc);

  EXPECT_EQ(doc->find("name")->string, "unit");
  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("t.json_counter"), nullptr);
  EXPECT_EQ(counters->find("t.json_counter")->number, 42.0);
  const json::Value* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* g = gauges->find("t.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("count")->number, 2.0);
  EXPECT_EQ(g->find("mean")->number, 2.0);
  const json::Value* timers = doc->find("timers");
  ASSERT_NE(timers, nullptr);
  EXPECT_NE(timers->find("t.json_span"), nullptr);
  const json::Value* phases = doc->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 1u);
  EXPECT_EQ(phases->array[0].find("name")->string, "setup");
  EXPECT_EQ(phases->array[0].find("wall_ms")->number, 1.25);
}

TEST_F(ObsTest, TraceDisabledMetricsStillAggregate) {
  configure(ObsConfig{.trace = false});
  { SCAP_TRACE_SCOPE("t.metrics_only"); }
  EXPECT_TRUE(trace_snapshot().empty());
  EXPECT_EQ(Registry::global().timer("t.metrics_only").snapshot().count(), 1u);
}

TEST_F(ObsTest, TraceClearDropsBufferedEvents) {
  { SCAP_TRACE_SCOPE("t.cleared"); }
  ASSERT_EQ(trace_snapshot().size(), 2u);
  trace_clear();
  EXPECT_TRUE(trace_snapshot().empty());
  { SCAP_TRACE_SCOPE("t.after_clear"); }
  EXPECT_EQ(trace_snapshot().size(), 2u);
}

TEST_F(ObsTest, EventsFromWorkerThreadsAreRetained) {
  std::thread worker([] { SCAP_TRACE_SCOPE("t.worker"); });
  worker.join();
  { SCAP_TRACE_SCOPE("t.main"); }
  const std::vector<TraceEvent> ev = trace_snapshot();
  ASSERT_EQ(ev.size(), 4u);
  bool saw_worker = false, saw_main = false;
  for (const TraceEvent& e : ev) {
    saw_worker |= std::string_view(e.name) == "t.worker";
    saw_main |= std::string_view(e.name) == "t.main";
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_TRUE(saw_main);
  // Snapshot is time-ordered across threads.
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].ts_us, ev[i].ts_us);
  }
}

TEST_F(ObsTest, RegistryResetZeroesButKeepsReferences) {
  Counter& c = Registry::global().counter("t.reset");
  c.add(9);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(Registry::global().counter("t.reset").value(), 1u);
}

TEST_F(ObsTest, JsonEscapeControlCharactersRoundTrip) {
  RunReport rep;
  rep.name = "weird \"name\"\n\twith\\controls";
  const std::string text = to_json(rep);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("name")->string, rep.name);
}

TEST(JsonNumberTest, AwkwardDoublesRoundTripBitExactly) {
  // Values that %.15g mangles and %.17g over-lengthens; append_number must
  // emit the shortest form that strtod parses back to the identical double.
  const double awkward[] = {
      1e-9,
      0.82,                  // the t4 speedup that started all this
      0.1,
      1.0 / 3.0,
      9007199254740991.0,    // 2^53 - 1, last exact odd integer
      9007199254740994.0,    // 2^53 + 2, adjacent representable
      1.7976931348623157e308,
      5e-324,                // min subnormal
      -2.5e-300,
      0.0,
      -17.25,
  };
  for (const double x : awkward) {
    std::string out;
    json::append_number(out, x);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), x) << "emitted " << out;
  }
  // NaN / infinity are not JSON; they degrade to 0 rather than corrupting
  // the document.
  std::string out;
  json::append_number(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "0");
  out.clear();
  json::append_number(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "0");
}

TEST(JsonNumberTest, ValueDumpParseIsAFixedPointOnAwkwardNumbers) {
  json::Value arr;
  arr.kind = json::Value::Kind::kArray;
  for (const double x : {1e-9, 0.82, 9007199254740991.0, 1.0 / 3.0}) {
    json::Value n;
    n.kind = json::Value::Kind::kNumber;
    n.number = x;
    arr.array.push_back(n);
  }
  const auto parsed = json::parse(arr.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == arr);
}

TEST_F(ObsTest, SnapshotSkipsEmptyEntries) {
  Registry::global().counter("t.zero");          // registered but never added
  Registry::global().gauge("t.empty_gauge");     // never observed
  count("t.live", 2);
  const Registry::Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "t.live");
  EXPECT_TRUE(snap.gauges.empty());
}

TEST_F(ObsTest, SnapshotAndResetScopesPhases) {
  count("t.phase_ctr", 10);
  observe("t.phase_gauge", 1.0);
  { SCAP_TRACE_SCOPE("t.phase_span"); }
  const Registry::Snapshot phase1 = Registry::global().snapshot_and_reset();

  // The registry starts the next phase from zero, references intact.
  EXPECT_EQ(Registry::global().counter("t.phase_ctr").value(), 0u);
  EXPECT_EQ(Registry::global().gauge("t.phase_gauge").snapshot().count(), 0u);

  count("t.phase_ctr", 5);
  observe("t.phase_gauge", 3.0);
  observe("t.phase_gauge", 5.0);
  Registry::Snapshot phase2 = Registry::global().snapshot_and_reset();

  ASSERT_EQ(phase1.counters.size(), 1u);
  EXPECT_EQ(phase1.counters[0].second, 10u);
  ASSERT_EQ(phase2.counters.size(), 1u);
  EXPECT_EQ(phase2.counters[0].second, 5u);
  ASSERT_EQ(phase1.timers.size(), 1u);
  EXPECT_EQ(phase1.timers[0].stats.count(), 1u);

  // Merging the phases reconstructs the cumulative run.
  phase2.merge(phase1);
  ASSERT_EQ(phase2.counters.size(), 1u);
  EXPECT_EQ(phase2.counters[0].second, 15u);
  ASSERT_EQ(phase2.gauges.size(), 1u);
  EXPECT_EQ(phase2.gauges[0].second.count(), 3u);
  EXPECT_EQ(phase2.gauges[0].second.min(), 1.0);
  EXPECT_EQ(phase2.gauges[0].second.max(), 5.0);
  EXPECT_EQ(phase2.timers.size(), 1u);
}

TEST_F(ObsTest, PhaseScopedReportEmitsPerPhaseAndMergedMetrics) {
  RunReport rep;
  rep.name = "phased";

  count("t.work", 3);
  PhaseTime p1;
  p1.name = "first";
  p1.wall_ms = 5.0;
  p1.metrics = Registry::global().snapshot_and_reset();
  rep.phases.push_back(std::move(p1));

  count("t.work", 4);
  observe("t.late_gauge", 2.0);
  PhaseTime p2;
  p2.name = "second";
  p2.wall_ms = 7.0;
  p2.metrics = Registry::global().snapshot_and_reset();
  rep.phases.push_back(std::move(p2));

  const std::string text = to_json(rep);
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());

  // Top level carries the merge of both phases (the cumulative run).
  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("t.work"), nullptr);
  EXPECT_EQ(counters->find("t.work")->number, 7.0);

  const json::Value* phases = doc->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->array.size(), 2u);
  const json::Value* m1 = phases->array[0].find("metrics");
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->find("counters")->find("t.work")->number, 3.0);
  const json::Value* m2 = phases->array[1].find("metrics");
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(m2->find("counters")->find("t.work")->number, 4.0);
  ASSERT_NE(m2->find("gauges")->find("t.late_gauge"), nullptr);
  EXPECT_EQ(m2->find("gauges")->find("t.late_gauge")->find("mean")->number,
            2.0);
  // Phase one observed no gauges; its section is present but empty.
  EXPECT_TRUE(m1->find("gauges")->object.empty());
}

TEST(ObsConfigTest, FlagsMirrorConfig) {
  const ObsConfig saved = config();
  configure(ObsConfig{.trace = true});
  EXPECT_TRUE(trace_enabled());
  EXPECT_FALSE(prof_enabled());
  configure(ObsConfig{.trace = false, .prof = true});
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(prof_enabled());
  configure(saved);
}

}  // namespace
}  // namespace scap::obs
