#include "obs/prof.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "obs/metrics.h"
#include "util/table.h"

namespace scap::obs {

namespace {

// Packed event layout (64 bits): [63:60] kind, [59:44] value (saturating),
// [43:0] timestamp in nanoseconds on the trace epoch (~4.8 h range). A whole
// event in one atomic word is what makes concurrent snapshots race-free
// without locking the writer.
constexpr std::uint64_t kTsBits = 44;
constexpr std::uint64_t kTsMask = (1ull << kTsBits) - 1;
constexpr std::uint64_t kValueBits = 16;
constexpr std::uint64_t kValueMax = (1ull << kValueBits) - 1;

std::uint64_t pack(ProfKind k, std::uint32_t value, double ts_us) {
  const std::uint64_t ts_ns =
      static_cast<std::uint64_t>(ts_us * 1000.0) & kTsMask;
  const std::uint64_t v = std::min<std::uint64_t>(value, kValueMax);
  return (static_cast<std::uint64_t>(k) << (kTsBits + kValueBits)) |
         (v << kTsBits) | ts_ns;
}

ProfEvent unpack(std::uint64_t w) {
  ProfEvent e;
  e.kind = static_cast<ProfKind>(w >> (kTsBits + kValueBits));
  e.value = static_cast<std::uint32_t>((w >> kTsBits) & kValueMax);
  e.ts_us = static_cast<double>(w & kTsMask) / 1000.0;
  return e;
}

/// Events of a ring that was destroyed before collection (pool rebuilds
/// between bench sweep points, exiting submitter threads).
struct RetiredRing {
  ProfRing::Owner owner;
  std::uint32_t lane;
  std::uint64_t dropped;
  std::vector<ProfEvent> events;
};

struct ProfState {
  std::mutex mu;  ///< guards rings / retired / next_caller (cold paths only)
  std::vector<ProfRing*> rings;
  std::vector<RetiredRing> retired;
  std::uint32_t next_caller = 0;
};

ProfState& state() {
  static ProfState* s = new ProfState;  // leaked: threads may outlive main
  return *s;
}

}  // namespace

ProfRing::ProfRing(Owner owner, std::size_t capacity) : owner_(owner) {
  capacity_ = 1;
  while (capacity_ < std::max<std::size_t>(capacity, 8)) capacity_ <<= 1;
  ProfState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (owner_ == Owner::kCaller) lane_ = s.next_caller++;
  s.rings.push_back(this);
}

ProfRing::~ProfRing() {
  ProfState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t dropped = 0;
  std::vector<ProfEvent> events = snapshot(&dropped);
  if (!events.empty()) {
    s.retired.push_back(
        RetiredRing{owner_, lane_, dropped, std::move(events)});
  }
  s.rings.erase(std::find(s.rings.begin(), s.rings.end(), this));
}

std::unique_ptr<std::atomic<std::uint64_t>[]> ProfRing::alloc_slots() const {
  return std::make_unique<std::atomic<std::uint64_t>[]>(capacity_);
}

void ProfRing::record_always(ProfKind k, std::uint32_t value) noexcept {
  std::atomic<std::uint64_t>* slots =
      slots_.load(std::memory_order_relaxed);
  if (slots == nullptr) {
    // First event on this ring: allocate once (cold), publish for collectors.
    const_cast<ProfRing*>(this)->slots_storage_ = alloc_slots();
    slots = slots_storage_.get();
    slots_.store(slots, std::memory_order_release);
  }
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  slots[h & (capacity_ - 1)].store(pack(k, value, now_us()),
                                   std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_release);
}

std::vector<ProfEvent> ProfRing::snapshot(std::uint64_t* dropped) const {
  std::vector<ProfEvent> out;
  if (dropped != nullptr) *dropped = 0;
  const std::atomic<std::uint64_t>* slots =
      slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return out;
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t b = base_.load(std::memory_order_relaxed);
  const std::uint64_t n = h - b;
  const std::uint64_t avail = std::min<std::uint64_t>(n, capacity_);
  if (dropped != nullptr) *dropped = n - avail;
  out.reserve(avail);
  for (std::uint64_t i = h - avail; i < h; ++i) {
    out.push_back(unpack(slots[i & (capacity_ - 1)].load(
        std::memory_order_relaxed)));
  }
  // The owner may have lapped us mid-read; normalize to time order.
  std::stable_sort(out.begin(), out.end(),
                   [](const ProfEvent& a, const ProfEvent& b2) {
                     return a.ts_us < b2.ts_us;
                   });
  return out;
}

void ProfRing::rebase() {
  base_.store(head_.load(std::memory_order_acquire),
              std::memory_order_relaxed);
}

ProfRing& caller_prof_ring() {
  thread_local ProfRing ring(ProfRing::Owner::kCaller);
  return ring;
}

namespace {

struct LaneEvents {
  ProfRing::Owner owner;
  std::uint32_t lane;
  std::uint64_t dropped;
  std::vector<ProfEvent> events;
};

LaneProfile aggregate_lane(const LaneEvents& le, PoolProfile& pool) {
  LaneProfile lp;
  lp.is_worker = le.owner == ProfRing::Owner::kWorker;
  lp.label = lp.is_worker ? "w" : "c";
  lp.label += std::to_string(le.lane);
  double task_begin = -1.0;
  double park_begin = -1.0;
  for (const ProfEvent& e : le.events) {
    switch (e.kind) {
      case ProfKind::kTaskBegin:
        task_begin = e.ts_us;
        break;
      case ProfKind::kTaskEnd:
        if (task_begin >= 0.0) {
          const double dur = e.ts_us - task_begin;
          lp.busy_ms += dur / 1000.0;
          lp.task_us.add(dur);
          ++lp.tasks;
          task_begin = -1.0;
        }
        break;
      case ProfKind::kPark:
        park_begin = e.ts_us;
        break;
      case ProfKind::kUnpark:
        if (park_begin >= 0.0) {
          lp.park_ms += (e.ts_us - park_begin) / 1000.0;
          ++lp.parks;
          park_begin = -1.0;
        }
        break;
      case ProfKind::kJobBegin:
        ++pool.jobs;
        pool.chunks_per_job.add(static_cast<double>(e.value));
        break;
      case ProfKind::kJobEnd:
        break;
      case ProfKind::kGrain:
        pool.grain.add(static_cast<double>(e.value));
        break;
    }
  }
  return lp;
}

/// Synthesize Chrome B/E pairs on a dedicated lane tid for one participant.
void inject_lane_trace(const LaneEvents& le, std::vector<TraceEvent>& out) {
  const std::uint32_t tid =
      kProfLaneBase + (le.owner == ProfRing::Owner::kWorker
                           ? le.lane
                           : 512u + le.lane);
  double task_begin = -1.0;
  double park_begin = -1.0;
  for (const ProfEvent& e : le.events) {
    switch (e.kind) {
      case ProfKind::kTaskBegin:
        task_begin = e.ts_us;
        break;
      case ProfKind::kTaskEnd:
        if (task_begin >= 0.0) {
          out.push_back(TraceEvent{"rt.task", task_begin, tid, 'B'});
          out.push_back(TraceEvent{"rt.task", e.ts_us, tid, 'E'});
          task_begin = -1.0;
        }
        break;
      case ProfKind::kPark:
        park_begin = e.ts_us;
        break;
      case ProfKind::kUnpark:
        if (park_begin >= 0.0) {
          out.push_back(TraceEvent{"rt.park", park_begin, tid, 'B'});
          out.push_back(TraceEvent{"rt.park", e.ts_us, tid, 'E'});
          park_begin = -1.0;
        }
        break;
      case ProfKind::kJobBegin:
        out.push_back(TraceEvent{"rt.job.dispatch", e.ts_us, tid, 'B'});
        break;
      case ProfKind::kJobEnd:
        out.push_back(TraceEvent{"rt.job.dispatch", e.ts_us, tid, 'E'});
        break;
      default:
        break;
    }
  }
}

}  // namespace

PoolProfile collect_pool_profile() {
  std::vector<LaneEvents> lanes;
  {
    ProfState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const RetiredRing& r : s.retired) {
      lanes.push_back(LaneEvents{r.owner, r.lane, r.dropped, r.events});
    }
    for (const ProfRing* r : s.rings) {
      std::uint64_t dropped = 0;
      std::vector<ProfEvent> events = r->snapshot(&dropped);
      if (events.empty() && dropped == 0) continue;
      lanes.push_back(
          LaneEvents{r->owner(), r->lane(), dropped, std::move(events)});
    }
  }
  // Stable lane order: workers by index first, then callers.
  std::stable_sort(lanes.begin(), lanes.end(),
                   [](const LaneEvents& a, const LaneEvents& b) {
                     if (a.owner != b.owner) {
                       return a.owner == ProfRing::Owner::kWorker;
                     }
                     return a.lane < b.lane;
                   });

  PoolProfile pool;
  double first_ts = 0.0, last_ts = 0.0;
  bool any = false;
  std::vector<TraceEvent> injected;
  for (const LaneEvents& le : lanes) {
    pool.dropped += le.dropped;
    pool.total_events += le.events.size();
    if (!le.events.empty()) {
      if (!any || le.events.front().ts_us < first_ts) {
        first_ts = le.events.front().ts_us;
      }
      if (!any || le.events.back().ts_us > last_ts) {
        last_ts = le.events.back().ts_us;
      }
      any = true;
    }
    LaneProfile lp = aggregate_lane(le, pool);
    pool.task_us.merge(lp.task_us);
    if (trace_enabled()) inject_lane_trace(le, injected);
    pool.lanes.push_back(std::move(lp));
  }
  pool.window_ms = any ? (last_ts - first_ts) / 1000.0 : 0.0;

  double busy_sum = 0.0, busy_max = 0.0;
  std::size_t active = 0;
  for (LaneProfile& lp : pool.lanes) {
    if (pool.window_ms > 0.0) {
      lp.busy_frac = lp.busy_ms / pool.window_ms;
      lp.park_frac = lp.park_ms / pool.window_ms;
      lp.sched_frac =
          std::max(0.0, 1.0 - lp.busy_frac - lp.park_frac);
    }
    if (lp.tasks > 0 || lp.is_worker) {
      busy_sum += lp.busy_ms;
      busy_max = std::max(busy_max, lp.busy_ms);
      ++active;
    }
  }
  if (active > 0 && busy_max > 0.0) {
    pool.imbalance = 1.0 - busy_sum / static_cast<double>(active) / busy_max;
  }
  if (!injected.empty()) trace_inject(injected);
  return pool;
}

void prof_reset() {
  ProfState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.retired.clear();
  for (ProfRing* r : s.rings) r->rebase();
}

void export_pool_profile(const PoolProfile& p, Registry& reg,
                         std::string_view prefix) {
  if (p.empty()) return;  // a disabled profiler leaves no registry entries
  const std::string pre(prefix);
  auto gauge = [&](const std::string& name) -> Gauge& {
    return reg.gauge(pre + "." + name);
  };
  reg.counter(pre + ".jobs").add(p.jobs);
  reg.counter(pre + ".dropped").add(p.dropped);
  gauge("window_ms").observe(p.window_ms);
  gauge("imbalance").observe(p.imbalance);
  if (p.chunks_per_job.count()) {
    gauge("chunks_per_job").observe_stats(p.chunks_per_job);
  }
  if (p.grain.count()) gauge("grain").observe_stats(p.grain);
  if (p.task_us.count()) gauge("task_us").observe_stats(p.task_us);
  std::uint64_t tasks = 0, parks = 0;
  for (const LaneProfile& lp : p.lanes) {
    tasks += lp.tasks;
    parks += lp.parks;
    // One observation per lane: the gauge's min/mean/max summarize the
    // spread across workers, which is the load-balance picture.
    gauge("busy_frac").observe(lp.busy_frac);
    gauge("park_frac").observe(lp.park_frac);
    gauge("sched_frac").observe(lp.sched_frac);
    // Per-lane detail for the BENCH artifact.
    gauge(lp.label + ".busy_frac").observe(lp.busy_frac);
    gauge(lp.label + ".tasks").observe(static_cast<double>(lp.tasks));
  }
  reg.counter(pre + ".tasks").add(tasks);
  reg.counter(pre + ".parks").add(parks);
}

std::string format_pool_report(const PoolProfile& p) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "rt pool profile: window %.2f ms, %zu lanes, %llu jobs, "
                "%llu tasks, imbalance %.2f, dropped %llu\n",
                p.window_ms, p.lanes.size(),
                static_cast<unsigned long long>(p.jobs),
                static_cast<unsigned long long>(p.task_us.count()),
                p.imbalance, static_cast<unsigned long long>(p.dropped));
  out += line;
  if (p.chunks_per_job.count()) {
    std::snprintf(line, sizeof line,
                  "  chunks/job: mean %.0f min %.0f max %.0f (%zu jobs); "
                  "grain: mean %.1f; task: mean %.2f us max %.1f us\n",
                  p.chunks_per_job.mean(), p.chunks_per_job.min(),
                  p.chunks_per_job.max(), p.chunks_per_job.count(),
                  p.grain.mean(), p.task_us.mean(), p.task_us.max());
    out += line;
  }
  TextTable t({"lane", "tasks", "parks", "busy ms", "busy %", "park %",
               "sched %", "task us"});
  for (const LaneProfile& lp : p.lanes) {
    t.add_row({lp.label, std::to_string(lp.tasks), std::to_string(lp.parks),
               TextTable::num(lp.busy_ms, 2),
               TextTable::num(100.0 * lp.busy_frac, 1),
               TextTable::num(100.0 * lp.park_frac, 1),
               TextTable::num(100.0 * lp.sched_frac, 1),
               TextTable::num(lp.task_us.mean(), 2)});
  }
  out += t.render();
  return out;
}

}  // namespace scap::obs
