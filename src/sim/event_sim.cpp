#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

DelayModel::DelayModel(const Netlist& nl, const TechLibrary& lib,
                       const Parasitics& par) {
  base_ns_.resize(nl.num_gates());
  has_inputs_.resize(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double load = par.gate_load_pf(nl, g);
    const double fall = lib.gate_delay_ns(nl.gate(g).type, false, load);
    const double rise = lib.gate_delay_ns(nl.gate(g).type, true, load);
    // The event queue relies on time never running backwards.
    if (!(fall >= 0.0 && rise >= 0.0) || !std::isfinite(fall) ||
        !std::isfinite(rise)) {
      throw std::invalid_argument("DelayModel: gate " + std::to_string(g) +
                                  " has a delay that is negative or not finite");
    }
    base_ns_[g] = {fall, rise};
    has_inputs_[g] = nl.gate(g).in_count > 0 ? 1 : 0;
  }
  ns_ = base_ns_;
  update_min_gate_delay();
}

void DelayModel::set_droop(const TechLibrary& lib,
                           std::span<const double> gate_droop_v) {
  if (gate_droop_v.empty()) {
    ns_ = base_ns_;
    update_min_gate_delay();
    return;
  }
  if (gate_droop_v.size() != base_ns_.size()) {
    throw std::invalid_argument(
        "DelayModel::set_droop: droop vector has " +
        std::to_string(gate_droop_v.size()) + " entries for " +
        std::to_string(base_ns_.size()) + " gates");
  }
  // Validated in full before any delay changes, so a rejected map leaves
  // the model as it was.
  for (std::size_t g = 0; g < gate_droop_v.size(); ++g) {
    const double k = 1.0 + lib.k_volt() * gate_droop_v[g];
    if (!std::isfinite(gate_droop_v[g]) || !std::isfinite(k) || !(k > 0.0)) {
      throw std::invalid_argument(
          "DelayModel::set_droop: gate " + std::to_string(g) + " droop " +
          std::to_string(gate_droop_v[g]) +
          " V is not finite or derates its delay to zero or below");
    }
  }
  for (std::size_t g = 0; g < base_ns_.size(); ++g) {
    const double k = 1.0 + lib.k_volt() * gate_droop_v[g];
    ns_[g] = {base_ns_[g][0] * k, base_ns_[g][1] * k};
  }
  update_min_gate_delay();
}

void DelayModel::update_min_gate_delay() {
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < ns_.size(); ++g) {
    if (!has_inputs_[g]) continue;
    for (const double d : ns_[g]) {
      if (d > 0.0) m = std::min(m, d);
    }
  }
  min_gate_delay_ns_ = std::isinf(m) ? 0.0 : m;
}

namespace {

/// Every cell type's truth_table (netlist/cell_type.h), built once: the
/// event loop evaluates a gate with one shift instead of a call and a
/// switch, and eval_cell stays the one definition of every cell.
const std::array<std::uint16_t, kNumCellTypes>& truth_tables() {
  static const std::array<std::uint16_t, kNumCellTypes> tables = [] {
    std::array<std::uint16_t, kNumCellTypes> tt{};
    for (std::size_t c = 0; c < kNumCellTypes; ++c) {
      tt[c] = truth_table(static_cast<CellType>(c));
    }
    return tt;
  }();
  return tables;
}

}  // namespace

/// Transport-delay scheduling with cancel-on-reschedule.
///
/// When a gate re-evaluates at time t it schedules its (possibly unchanged)
/// output value at t + d(edge) and cancels any of its pending output events
/// at times >= t + d: those were computed from older input states that the
/// new evaluation supersedes (with unequal rise/fall delays a later
/// evaluation can fire *earlier*). This is the standard transport semantics:
/// the last event on every net comes from the last input change, so final
/// values equal the zero-delay evaluation of the final inputs, while hazard
/// pulses wide enough to clear the gate delay propagate and burn switching
/// power -- exactly what a VCD from a gate-level timing simulation shows.
///
/// An event that survives to fire sets its net to the value of the pending
/// event before it (or to the net's current value when none is pending): if
/// a later reschedule cancels an earlier event, it cancels every later one
/// too. So an event whose value equals that one is a no-op however the run
/// goes on. It is still appended to the net's pending list, where it cancels
/// and is cancelled like any other, but it never enters the queue; once its
/// time has passed it counts as fired and is dropped. Every queued event
/// that fires therefore toggles its net.
///
/// The queue is a calendar: a ring of kCalendarDays day lists, day k holding
/// the events of [origin + k w, origin + (k + 1) w) with w the delay model's
/// shortest gate delay and origin the earliest stimulus; events past the
/// ring wait on a far list. A day is gathered and sorted by (time, stamp)
/// when the drain reaches it. Days are a monotone function of time, so
/// draining days in order and each day in sorted order commits in (time,
/// stamp) order, as a heap would. An event can still land in the day being
/// drained (rounding, a zero delay); it goes into that day's sorted,
/// undrained tail.
void EventSim::run(std::span<const std::uint8_t> initial_net_values,
                   std::span<const Stimulus> stimuli, Workspace& ws,
                   ToggleSink& sink) const {
  SCAP_TRACE_SCOPE("eventsim.run");
  const Netlist& nl = *nl_;
  const DelayModel& dm = *dm_;
  // Checked before touching the workspace, so its pools stay drained.
  if (initial_net_values.size() != nl.num_nets() ||
      std::any_of(initial_net_values.begin(), initial_net_values.end(),
                  [](std::uint8_t v) { return v > 1; })) {
    throw std::invalid_argument(
        "EventSim::run: not one 0/1 initial value per net");
  }
  double origin = std::numeric_limits<double>::infinity();
  for (const Stimulus& s : stimuli) {
    if (s.net >= nl.num_nets()) {
      throw std::invalid_argument("EventSim::run: stimulus net out of range");
    }
    if (!std::isfinite(s.t_ns) || s.value > 1) {
      throw std::invalid_argument(
          "EventSim::run: stimulus time not finite or value not 0/1");
    }
    origin = std::min(origin, s.t_ns);
  }

  using Pending = Workspace::Pending;
  using PendingList = Workspace::PendingList;
  using Queued = Workspace::Queued;
  constexpr std::uint32_t kNil = Workspace::kNil;

  // Warm the workspace: every pool below drains back to empty by the time a
  // run returns, so only capacity growth (tracked for the reuse gauges) can
  // touch the allocator here.
  ws.grew_ = false;
  if (ws.lists_.size() < nl.num_nets()) {
    ws.lists_.resize(nl.num_nets());
    ws.grew_ = true;
  }
  if (ws.day_.size() != Workspace::kCalendarDays) {
    ws.day_.assign(Workspace::kCalendarDays, kNil);
    ws.grew_ = true;
  }
  if (ws.value_.capacity() < initial_net_values.size()) ws.grew_ = true;
  ws.value_.assign(initial_net_values.begin(), initial_net_values.end());
  auto& value = ws.value_;
  auto& lists = ws.lists_;
  auto& pending = ws.pending_;
  auto& queued = ws.queued_;
  auto& day_head = ws.day_;
  auto& drain = ws.drain_;
  assert(pending.empty() && queued.empty() && drain.empty());

  // Node pools with free lists; a push past capacity is the only allocation.
  std::uint32_t free_pending = kNil;
  std::uint32_t free_queued = kNil;
  auto acquire = [&](auto& pool, std::uint32_t& free) -> std::uint32_t {
    if (free != kNil) {
      const std::uint32_t i = free;
      free = pool[i].next;
      return i;
    }
    if (pool.size() == pool.capacity()) ws.grew_ = true;
    pool.emplace_back();
    return static_cast<std::uint32_t>(pool.size() - 1);
  };
  auto release = [](auto& pool, std::uint32_t& free, std::uint32_t i) {
    pool[i].next = free;
    free = i;
  };

  // Calendar days, counted from the earliest stimulus.
  constexpr std::uint64_t kDays = Workspace::kCalendarDays;
  constexpr std::uint64_t kMask = kDays - 1;
  // Days saturate here (far past any real window), which keeps them
  // monotone in time and `cur + kDays` free of overflow.
  constexpr std::uint64_t kLastDay = std::uint64_t{1} << 52;
  constexpr std::uint64_t kNoDay = std::numeric_limits<std::uint64_t>::max();
  const double width = dm.min_gate_delay_ns();
  const double inv_width =
      width > 0.0 && std::isfinite(1.0 / width) ? 1.0 / width : 1.0;
  auto day_of = [&](double t) -> std::uint64_t {
    const double d = (t - origin) * inv_width;  // >= 0: no event precedes
    return d < static_cast<double>(kLastDay) ? static_cast<std::uint64_t>(d)
                                             : kLastDay;
  };
  auto earlier = [](const Queued& a, const Queued& b) {
    return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.stamp < b.stamp;
  };

  std::uint64_t cur = 0;           // day being drained
  std::uint32_t far_head = kNil;   // events at or past day cur + kDays
  std::uint64_t far_min = kNoDay;  // earliest day on the far list
  std::size_t in_ring = 0;         // nodes on the ring's day lists
  std::size_t pos = 0;             // entry of `drain` being fired
  bool draining = false;           // `drain` holds day cur, sorted

  auto link = [&](std::uint32_t q, std::uint64_t day) {
    if (day < cur + kDays) {
      queued[q].next = day_head[day & kMask];
      day_head[day & kMask] = q;
      ++in_ring;
    } else {
      queued[q].next = far_head;
      far_head = q;
      far_min = std::min(far_min, day);
    }
  };
  auto enqueue = [&](double t, NetId net, std::uint64_t st) {
    const std::uint64_t day = day_of(t);
    if (draining && day == cur) {
      // Lands in the day being drained: into its sorted, undrained tail.
      const Queued e{t, st, net, kNil};
      if (drain.size() == drain.capacity()) ws.grew_ = true;
      const auto tail = drain.begin() + static_cast<std::ptrdiff_t>(pos) + 1;
      drain.insert(std::upper_bound(tail, drain.end(), e, earlier), e);
      return;
    }
    const std::uint32_t q = acquire(queued, free_queued);
    queued[q] = Queued{t, st, net, kNil};
    link(q, day);
  };
  // Relink the far list: what now falls inside the ring moves onto it.
  auto migrate = [&] {
    std::uint32_t q = far_head;
    far_head = kNil;
    far_min = kNoDay;
    while (q != kNil) {
      const std::uint32_t next = queued[q].next;
      link(q, day_of(queued[q].t_ns));
      q = next;
    }
  };

  std::uint64_t stamp = 0;
  double now = -std::numeric_limits<double>::infinity();
  SimStats stats;

  // Unlink and release a list's earliest pending event.
  auto pop_head = [&](PendingList& pl) {
    const std::uint32_t i = pl.head;
    pl.head = pending[i].next;
    if (pl.head == kNil) {
      pl.tail = kNil;
    } else {
      pending[pl.head].prev = kNil;
    }
    release(pending, free_pending, i);
  };
  // Elided entries whose time has passed fired as no-ops: drop them.
  auto drop_fired = [&](PendingList& pl) {
    while (pl.head != kNil && !pending[pl.head].queued &&
           pending[pl.head].t_ns < now) {
      pop_head(pl);
    }
  };

  auto schedule = [&](NetId net, double t, std::uint8_t v) {
    PendingList& pl = lists[net];
    while (pl.tail != kNil && pending[pl.tail].t_ns >= t) {
      const std::uint32_t i = pl.tail;
      pl.tail = pending[i].prev;
      release(pending, free_pending, i);
      ++stats.num_events_cancelled;
    }
    if (pl.tail == kNil) {
      pl.head = kNil;
    } else {
      pending[pl.tail].next = kNil;
    }
    drop_fired(pl);
    const bool toggles =
        v != (pl.tail == kNil ? value[net] : pending[pl.tail].value);
    const std::uint32_t i = acquire(pending, free_pending);
    pending[i] = Pending{t, stamp, pl.tail, kNil, net, v, toggles};
    if (pl.tail == kNil) {
      pl.head = i;
    } else {
      pending[pl.tail].next = i;
    }
    pl.tail = i;
    if (toggles) enqueue(t, net, stamp);
    ++stamp;
  };

  sink.on_begin(initial_net_values);
  for (const Stimulus& s : stimuli) schedule(s.net, s.t_ns, s.value);

  const auto& truth = truth_tables();
  auto fire = [&](const Queued e) {  // by value: `drain` may grow
    PendingList& pl = lists[e.net];
    now = e.t_ns;
    drop_fired(pl);
    // A stale entry: superseded by a later re-evaluation, and counted as
    // cancelled when that happened.
    if (pl.head == kNil || pending[pl.head].stamp != e.stamp) return;
    const std::uint8_t v = pending[pl.head].value;
    pop_head(pl);
    assert(value[e.net] != v && "a queued event that fires toggles");
    value[e.net] = v;
    if (stats.num_toggles == 0) stats.first_toggle_ns = e.t_ns;
    ++stats.num_toggles;
    stats.last_toggle_ns = std::max(stats.last_toggle_ns, e.t_ns);
    sink.on_toggle(e.net, e.t_ns, v != 0);
    for (const GateId g : nl.fanout_gates(e.net)) {
      const auto in_nets = nl.gate_inputs(g);
      unsigned combo = 0;
      for (std::size_t k = 0; k < in_nets.size(); ++k) {
        combo |= unsigned{value[in_nets[k]]} << k;
      }
      const Gate& gate = nl.gate(g);
      const auto out = static_cast<std::uint8_t>(
          (truth[static_cast<std::size_t>(gate.type)] >> combo) & 1u);
      schedule(gate.out, e.t_ns + dm.edge_ns(g, out), out);
    }
  };

  while (in_ring != 0 || far_head != kNil) {
    if (in_ring == 0) cur = far_min;  // skip an empty stretch of days
    if (far_min <= cur) migrate();
    std::uint32_t& head = day_head[cur & kMask];
    if (head != kNil) {
      for (std::uint32_t q = head; q != kNil;) {
        if (drain.size() == drain.capacity()) ws.grew_ = true;
        drain.push_back(queued[q]);
        const std::uint32_t next = queued[q].next;
        release(queued, free_queued, q);
        --in_ring;
        q = next;
      }
      head = kNil;
      // Days are short; a crowded one (a large design) takes std::sort.
      if (drain.size() <= 32) {
        for (std::size_t i = 1; i < drain.size(); ++i) {
          const Queued x = drain[i];
          std::size_t j = i;
          for (; j > 0 && earlier(x, drain[j - 1]); --j) drain[j] = drain[j - 1];
          drain[j] = x;
        }
      } else {
        std::sort(drain.begin(), drain.end(), earlier);
      }
      draining = true;
      for (pos = 0; pos < drain.size(); ++pos) fire(drain[pos]);
      draining = false;
      drain.clear();
    }
    ++cur;
  }

  // Elided entries are never popped: empty the lists still holding some.
  for (const Pending& p : pending) lists[p.net] = PendingList{};
  pending.clear();
  queued.clear();
  stats.num_events_processed = stamp;

  ++ws.runs_;
  if (ws.grew_) ++ws.grown_runs_;
  sink.on_end(stats);
  obs::count("eventsim.runs");
  obs::count("eventsim.toggles", stats.num_toggles);
  obs::count("eventsim.events", stats.num_events_processed);
  if (!ws.grew_ && ws.runs_ > 1) obs::count("eventsim.workspace.reuse");
}

}  // namespace scap
