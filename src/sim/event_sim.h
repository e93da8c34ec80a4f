// Event-driven gate-level timing simulation of the launch-to-capture window.
//
// This is the library's analogue of the paper's VCS gate-level timing
// simulation: the caller supplies the settled frame-1 net values and a set of
// stimulus transitions (flop Q flips at their clock-arrival times); the
// simulator propagates them with per-instance rise/fall delays (transport
// semantics, so glitches are simulated and contribute switching power, as
// they do in a VCD captured from a real timing simulation).
//
// There is one output mode: run() streams every committed toggle into a
// ToggleSink as it happens -- the paper's PLI tap -- and keeps all
// simulation storage (value array, pending-event pools, calendar queue) in
// the caller-owned Workspace, so bulk per-pattern screening runs with zero
// steady-state heap allocations. No toggle trace is materialized; the
// differential oracle (src/ref/) records one when it needs the full list.
//
// Only events that will toggle their net enter the queue. A re-evaluation
// that schedules the value its net will already hold at that time is a
// no-op: it is kept on the net's pending list, where it cancels and can be
// cancelled exactly like any other event, but it is never queued. The
// queue is a calendar of fixed-width time buckets (the width is the delay
// model's shortest gate delay), each sorted by (time, stamp) when the drain
// reaches it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "layout/parasitics.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "sim/toggle_sink.h"

namespace scap {

/// Per-gate rise/fall delays; build once, optionally derated by a voltage map.
class DelayModel {
 public:
  DelayModel(const Netlist& nl, const TechLibrary& lib, const Parasitics& par);

  /// Apply per-gate voltage droop (VDD loss + VSS bounce [V]); delays become
  /// base * (1 + k_volt * droop). Pass an empty span to reset to nominal.
  /// Throws std::invalid_argument, leaving the model unchanged, if the droop
  /// vector does not match the netlist's gate count or holds a droop that is
  /// not finite or makes 1 + k_volt * droop non-positive.
  void set_droop(const TechLibrary& lib, std::span<const double> gate_droop_v);

  double rise_ns(GateId g) const { return ns_[g][1]; }
  double fall_ns(GateId g) const { return ns_[g][0]; }
  /// Delay of the output edge to `value` (1: rise, 0: fall).
  double edge_ns(GateId g, std::uint8_t value) const { return ns_[g][value]; }

  /// Smallest positive rise or fall delay of any gate that has inputs, or 0
  /// if there is none: the shortest gap between an input change and the
  /// output event it schedules. Tie cells (no inputs) never schedule and do
  /// not count. Kept current by the constructor and set_droop, so a model
  /// shared read-only between threads is never written by a reader.
  double min_gate_delay_ns() const { return min_gate_delay_ns_; }

 private:
  void update_min_gate_delay();

  /// Per gate {fall, rise}, side by side so one load serves either edge.
  std::vector<std::array<double, 2>> base_ns_;
  std::vector<std::array<double, 2>> ns_;
  std::vector<std::uint8_t> has_inputs_;  ///< per gate
  double min_gate_delay_ns_ = 0.0;
};

struct Stimulus {
  NetId net = kNullId;
  double t_ns = 0.0;
  std::uint8_t value = 0;
};

class EventSim {
 public:
  /// Reusable simulation storage: the current-value array, the per-net
  /// pending-event lists with their node pool and the calendar queue. All
  /// of it persists between runs (only capacity, never state -- every run
  /// drains its queue and empties its lists), so a warm workspace serves
  /// each subsequent pattern without touching the allocator. One workspace
  /// per thread/shard; a workspace must not be used by two runs
  /// concurrently.
  class Workspace {
   public:
    Workspace() = default;

    /// Simulation passes served by this workspace.
    std::size_t runs() const { return runs_; }
    /// Passes during which some pool had to grow (heap allocation).
    std::size_t grown_runs() const { return grown_runs_; }
    /// Passes served entirely from pre-sized pools (zero allocations).
    std::size_t reused_runs() const { return runs_ - grown_runs_; }

   private:
    friend class EventSim;

    static constexpr std::uint32_t kNil = 0xffffffffu;

    /// One pending output event, a node of its net's time-sorted list.
    /// Nodes live in one pool, so the lists of all nets share a few hot
    /// cache lines; a released node heads the pool's free list.
    struct Pending {
      double t_ns;
      std::uint64_t stamp;
      std::uint32_t prev;  ///< earlier pending event of the net, or kNil
      std::uint32_t next;  ///< later pending event (or next free node)
      NetId net;
      std::uint8_t value;
      bool queued;  ///< false: an elided no-op, never in the calendar
    };
    /// A net's pending events, earliest at `head`. Cancellation unlinks from
    /// the tail (later times), firing from the head.
    struct PendingList {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
    };
    /// A queued event: a node of one calendar day's list (or of the far
    /// list), then an element of the sorted day being drained.
    struct Queued {
      double t_ns;
      std::uint64_t stamp;
      NetId net;
      std::uint32_t next;
    };

    /// Calendar ring size (a power of two). A day is one delay-model width,
    /// so the ring spans this many shortest gate delays; events further out
    /// wait on the far list until the ring reaches them.
    static constexpr std::size_t kCalendarDays = 1024;

    std::vector<std::uint8_t> value_;
    std::vector<PendingList> lists_;     ///< per net
    std::vector<Pending> pending_;       ///< node pool of every list
    std::vector<Queued> queued_;         ///< node pool of the calendar
    std::vector<std::uint32_t> day_;     ///< ring: first node of each day
    std::vector<Queued> drain_;          ///< the day being drained, sorted
    std::size_t runs_ = 0;
    std::size_t grown_runs_ = 0;
    bool grew_ = false;
  };

  EventSim(const Netlist& nl, const DelayModel& dm) : nl_(&nl), dm_(&dm) {}

  /// Simulate from the settled initial net values (one per net) under the
  /// given stimuli, pushing every committed toggle -- stimulus transitions
  /// included -- into `sink` in commit (== time) order. Stimuli need not be
  /// sorted. Net values are 0 or 1. Throws std::invalid_argument when
  /// initial_net_values does not hold one 0/1 value per net, or a stimulus
  /// names a net past num_nets(), a time that is not finite or a value
  /// other than 0/1.
  void run(std::span<const std::uint8_t> initial_net_values,
           std::span<const Stimulus> stimuli, Workspace& ws,
           ToggleSink& sink) const;

 private:
  const Netlist* nl_;
  const DelayModel* dm_;
};

}  // namespace scap
