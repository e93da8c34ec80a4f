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
// simulation storage (value array, pending-event pools, queue heap) in the
// caller-owned Workspace, so bulk per-pattern screening runs with zero
// steady-state heap allocations. No toggle trace is materialized; the
// differential oracle (src/ref/) records one when it needs the full list.
#pragma once

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
  /// Throws std::invalid_argument if the droop vector does not match the
  /// netlist's gate count.
  void set_droop(const TechLibrary& lib, std::span<const double> gate_droop_v);

  double rise_ns(GateId g) const { return rise_ns_[g]; }
  double fall_ns(GateId g) const { return fall_ns_[g]; }

 private:
  std::vector<double> base_rise_ns_;
  std::vector<double> base_fall_ns_;
  std::vector<double> rise_ns_;
  std::vector<double> fall_ns_;
};

struct Stimulus {
  NetId net = kNullId;
  double t_ns = 0.0;
  std::uint8_t value = 0;
};

class EventSim {
 public:
  /// Reusable simulation storage: the current-value array, the per-net
  /// pending-event pools and the scheduling heap. All of it persists between
  /// runs (only capacity, never state -- every run drains its queues), so a
  /// warm workspace serves each subsequent pattern without touching the
  /// allocator. One workspace per thread/shard; a workspace must not be used
  /// by two runs concurrently.
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

    struct Pending {
      double t_ns;
      std::uint64_t stamp;
      std::uint8_t value;
    };
    struct QueueEntry {
      double t_ns;
      NetId net;
      std::uint64_t stamp;

      bool operator>(const QueueEntry& o) const {
        return t_ns != o.t_ns ? t_ns > o.t_ns : stamp > o.stamp;
      }
    };
    /// Per-net time-sorted pending output events. Cancellation pops from the
    /// back (later times); firing advances `head` -- an O(1) front pop that
    /// keeps the storage in place for reuse.
    struct PendingList {
      std::vector<Pending> events;
      std::size_t head = 0;

      bool empty() const { return head == events.size(); }
    };

    /// Events reserved per net up front. Pending depth is the number of
    /// in-flight pulses on one net, which transport semantics keeps small;
    /// pre-reserving stops the first toggle of each not-yet-touched net
    /// (pattern-dependent!) from allocating in steady state.
    static constexpr std::size_t kReservedPendingPerNet = 8;

    std::vector<std::uint8_t> value_;
    std::vector<PendingList> pending_;
    std::vector<QueueEntry> heap_;
    std::size_t runs_ = 0;
    std::size_t grown_runs_ = 0;
    bool grew_ = false;
  };

  EventSim(const Netlist& nl, const DelayModel& dm) : nl_(&nl), dm_(&dm) {}

  /// Simulate from the settled initial net values (one per net) under the
  /// given stimuli, pushing every committed toggle -- stimulus transitions
  /// included -- into `sink` in commit (== time) order. Stimuli need not be
  /// sorted. Throws std::invalid_argument when initial_net_values does not
  /// hold one value per net or a stimulus names a net past num_nets().
  void run(std::span<const std::uint8_t> initial_net_values,
           std::span<const Stimulus> stimuli, Workspace& ws,
           ToggleSink& sink) const;

 private:
  const Netlist* nl_;
  const DelayModel* dm_;
};

}  // namespace scap
