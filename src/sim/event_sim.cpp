#include "sim/event_sim.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

DelayModel::DelayModel(const Netlist& nl, const TechLibrary& lib,
                       const Parasitics& par) {
  base_rise_ns_.resize(nl.num_gates());
  base_fall_ns_.resize(nl.num_gates());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double load = par.gate_load_pf(nl, g);
    base_rise_ns_[g] = lib.gate_delay_ns(nl.gate(g).type, true, load);
    base_fall_ns_[g] = lib.gate_delay_ns(nl.gate(g).type, false, load);
  }
  rise_ns_ = base_rise_ns_;
  fall_ns_ = base_fall_ns_;
}

void DelayModel::set_droop(const TechLibrary& lib,
                           std::span<const double> gate_droop_v) {
  if (gate_droop_v.empty()) {
    rise_ns_ = base_rise_ns_;
    fall_ns_ = base_fall_ns_;
    return;
  }
  if (gate_droop_v.size() != base_rise_ns_.size()) {
    throw std::invalid_argument(
        "DelayModel::set_droop: droop vector has " +
        std::to_string(gate_droop_v.size()) + " entries for " +
        std::to_string(base_rise_ns_.size()) + " gates");
  }
  for (std::size_t g = 0; g < base_rise_ns_.size(); ++g) {
    const double k = 1.0 + lib.k_volt() * gate_droop_v[g];
    rise_ns_[g] = base_rise_ns_[g] * k;
    fall_ns_[g] = base_fall_ns_[g] * k;
  }
}

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
void EventSim::run(std::span<const std::uint8_t> initial_net_values,
                   std::span<const Stimulus> stimuli, Workspace& ws,
                   ToggleSink& sink) const {
  SCAP_TRACE_SCOPE("eventsim.run");
  const Netlist& nl = *nl_;
  // Checked before touching the workspace, so its pools stay drained.
  if (initial_net_values.size() != nl.num_nets()) {
    throw std::invalid_argument("EventSim::run: not one initial value per net");
  }
  for (const Stimulus& s : stimuli) {
    if (s.net >= nl.num_nets()) {
      throw std::invalid_argument("EventSim::run: stimulus net out of range");
    }
  }

  // Warm the workspace: every pool below drains back to empty by the time a
  // run returns, so only capacity growth (tracked for the reuse gauges) can
  // touch the allocator here.
  ws.grew_ = false;
  if (ws.pending_.size() < nl.num_nets()) {
    const std::size_t old = ws.pending_.size();
    ws.pending_.resize(nl.num_nets());
    for (std::size_t n = old; n < ws.pending_.size(); ++n) {
      ws.pending_[n].events.reserve(Workspace::kReservedPendingPerNet);
    }
    ws.grew_ = true;
  }
  if (ws.value_.capacity() < initial_net_values.size()) ws.grew_ = true;
  ws.value_.assign(initial_net_values.begin(), initial_net_values.end());
  auto& value = ws.value_;
  auto& heap = ws.heap_;
  assert(heap.empty());

  std::uint64_t stamp = 0;
  SimStats stats;

  auto schedule = [&](NetId net, double t, std::uint8_t v) {
    auto& pl = ws.pending_[net];
    while (pl.events.size() > pl.head && pl.events.back().t_ns >= t) {
      pl.events.pop_back();
    }
    if (pl.events.size() == pl.head) {
      pl.events.clear();  // keeps capacity; resets head to the buffer start
      pl.head = 0;
    }
    if (pl.events.size() == pl.events.capacity()) ws.grew_ = true;
    pl.events.push_back(Workspace::Pending{t, stamp, v});
    if (heap.size() == heap.capacity()) ws.grew_ = true;
    heap.push_back(Workspace::QueueEntry{t, net, stamp});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    ++stamp;
  };

  sink.on_begin(initial_net_values);
  for (const Stimulus& s : stimuli) schedule(s.net, s.t_ns, s.value);

  std::array<std::uint8_t, kMaxGateInputs> ins{};
  auto eval_gate = [&](GateId g) {
    const auto in_nets = nl.gate_inputs(g);
    assert(in_nets.size() <= ins.size() &&
           "gate arity exceeds the cell kit's kMaxGateInputs");
    for (std::size_t i = 0; i < in_nets.size(); ++i) ins[i] = value[in_nets[i]];
    return eval_scalar(nl.gate(g).type,
                       std::span<const std::uint8_t>(ins.data(), in_nets.size()));
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const Workspace::QueueEntry qe = heap.back();
    heap.pop_back();
    ++stats.num_events_processed;
    auto& pl = ws.pending_[qe.net];
    if (pl.empty() || pl.events[pl.head].stamp != qe.stamp) {
      ++stats.num_events_cancelled;  // superseded by a later re-evaluation
      continue;
    }
    const std::uint8_t v = pl.events[pl.head].value;
    ++pl.head;  // O(1) front pop; storage stays in place for reuse
    if (pl.head == pl.events.size()) {
      pl.events.clear();
      pl.head = 0;
    }
    if (value[qe.net] == v) continue;
    value[qe.net] = v;
    if (stats.num_toggles == 0) stats.first_toggle_ns = qe.t_ns;
    ++stats.num_toggles;
    stats.last_toggle_ns = std::max(stats.last_toggle_ns, qe.t_ns);
    sink.on_toggle(qe.net, qe.t_ns, v != 0);
    for (GateId g : nl.fanout_gates(qe.net)) {
      const std::uint8_t out = eval_gate(g);
      const double d = out ? dm_->rise_ns(g) : dm_->fall_ns(g);
      schedule(nl.gate(g).out, qe.t_ns + d, out);
    }
  }

  ++ws.runs_;
  if (ws.grew_) ++ws.grown_runs_;
  sink.on_end(stats);
  obs::count("eventsim.runs");
  obs::count("eventsim.toggles", stats.num_toggles);
  obs::count("eventsim.events", stats.num_events_processed);
  if (!ws.grew_ && ws.runs_ > 1) obs::count("eventsim.workspace.reuse");
}

}  // namespace scap
