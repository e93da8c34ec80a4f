// Struct-of-arrays levelized view of a finalized netlist.
//
// The pointer-chasing Netlist representation (per-gate input spans, per-net
// fanout spans, ids in construction order) is the right hub for building and
// querying a design, but it is the wrong layout for sweep-style engines: a
// full-netlist evaluation pass takes one dependent load chain per gate and
// scatters its reads across the whole net table. A flat (level, cell-type)-
// sorted gate schedule over compactly renumbered nets runs the same sweep
// >=5x faster, and this view makes that layout a first-class,
// engine-independent artifact:
//
//  - Gates are stably sorted by (level, type): the schedule is a valid
//    topological order (all of a gate's inputs are written by lower levels)
//    and the evaluator's type dispatch becomes almost perfectly predicted.
//  - Nets are renumbered in sweep-write order: flop Q nets first (so state
//    loads are the leading num_flops() slots, exactly like a state vector),
//    then primary inputs, then other undriven nets, then gate outputs in
//    schedule order. A gate's fanin loads then land on lines written a few
//    levels earlier instead of striding the whole table.
//  - Per-gate input ids and per-net gate fanouts are pooled contiguously in
//    the compact space, with fanouts expressed as *schedule indices* so cone
//    engines never translate back through external gate ids.
//
// The view is immutable after construction and holds no reference to the
// Netlist it was built from except for result translation maps.
// Netlist::finalize() builds the one instance of a design, and every sweep
// engine (BatchSim, FaultSimulator, PatternAnalyzer's frame settle,
// compute_quiet_state) shares it read-only across threads through
// Netlist::levelized_view().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace scap {

class LevelizedView {
 public:
  explicit LevelizedView(const Netlist& nl);

  /// Convenience for the common sharing pattern: engines keep a
  /// shared_ptr<const LevelizedView> and hand copies to their shards.
  static std::shared_ptr<const LevelizedView> build(const Netlist& nl) {
    return std::make_shared<const LevelizedView>(nl);
  }

  // ---- sizes (identical to the source netlist) ---------------------------
  std::size_t num_nets() const { return net_of_compact_.size(); }
  std::size_t num_gates() const { return g_type_.size(); }
  std::size_t num_flops() const { return f_d_.size(); }
  std::size_t num_pis() const { return pi_net_.size(); }
  std::uint32_t max_level() const { return max_level_; }

  // ---- id translation ----------------------------------------------------
  /// External NetId -> compact net id (total: every net has a slot).
  NetId compact_net(NetId external) const { return compact_of_net_[external]; }
  /// Compact net id -> external NetId.
  NetId external_net(NetId compact) const { return net_of_compact_[compact]; }
  /// The whole compact -> external table (num_nets() entries), for unpack
  /// loops that hoist it out of their stores.
  const NetId* external_nets() const { return net_of_compact_.data(); }
  /// External GateId -> schedule index.
  std::uint32_t sched_of_gate(GateId g) const { return sched_of_gate_[g]; }
  /// Schedule index -> external GateId.
  GateId gate_at(std::uint32_t sched) const { return gate_of_sched_[sched]; }

  // ---- flat gate records, indexed by schedule position -------------------
  const CellType* gate_types() const { return g_type_.data(); }
  const std::uint32_t* gate_levels() const { return g_level_.data(); }
  /// Compact output net per scheduled gate. Gate i's output id is
  /// first_gate_out() + i by construction (outputs are numbered in schedule
  /// order), but the array spares callers the arithmetic.
  const NetId* gate_outs() const { return g_out_.data(); }
  /// Compact input ids of scheduled gate i:
  /// gate_ins()[gate_in_offsets()[i] .. gate_in_offsets()[i+1])
  const NetId* gate_ins() const { return g_in_.data(); }
  const std::uint32_t* gate_in_offsets() const { return g_in_off_.data(); }

  /// First compact id assigned to a gate output (everything below is a flop
  /// Q net, a primary input, or an undriven net -- i.e. a sweep source).
  NetId first_gate_out() const { return first_gate_out_; }

  // ---- compact-space topology -------------------------------------------
  /// Schedule indices of the gates reading compact net n (one entry per
  /// connected pin, mirroring Netlist::fanout_gates).
  std::span<const std::uint32_t> fanout_scheds(NetId compact) const {
    return {fo_pool_.data() + fo_begin_[compact],
            fo_begin_[compact + 1] - fo_begin_[compact]};
  }

  /// Compact Q / D net per flop (f_q()[f] == f by construction).
  const NetId* f_q() const { return f_q_.data(); }
  const NetId* f_d() const { return f_d_.data(); }
  /// Compact net per primary input, index-aligned with
  /// Netlist::primary_inputs().
  std::span<const NetId> pi_nets() const { return pi_net_; }

 private:
  std::vector<CellType> g_type_;
  std::vector<std::uint32_t> g_level_;
  std::vector<NetId> g_out_;
  std::vector<NetId> g_in_;
  std::vector<std::uint32_t> g_in_off_;  ///< num_gates()+1 entries

  std::vector<NetId> compact_of_net_;
  std::vector<NetId> net_of_compact_;
  std::vector<std::uint32_t> sched_of_gate_;
  std::vector<GateId> gate_of_sched_;

  std::vector<std::uint32_t> fo_begin_;  ///< num_nets()+1 entries
  std::vector<std::uint32_t> fo_pool_;

  std::vector<NetId> f_q_;
  std::vector<NetId> f_d_;
  std::vector<NetId> pi_net_;

  NetId first_gate_out_ = 0;
  std::uint32_t max_level_ = 0;
};

}  // namespace scap
