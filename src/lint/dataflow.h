// Netlist dataflow analysis engine.
//
// A small multi-pass forward/backward framework over the (possibly
// unfinalized) gate graph. Gates are first levelized with a cycle-tolerant
// Kahn worklist -- gates trapped in combinational cycles are excluded and
// counted, so the passes below stay well-defined on the malformed netlists
// lint exists to diagnose. On the acyclic part the levelized schedule makes
// every transfer function converge in a single sweep: one forward pass for
// controllability / constants, one backward pass for observability.
//
// Facts computed per net:
//  - SCOAP-style 0/1 controllability CC0/CC1 (cost of justifying the value
//    from the scan state and primary inputs; kInfCost = impossible) and
//    observability CO (cost of sensitizing the net to a flop D pin or a
//    primary output; kInfCost = no sensitizable path).
//  - Constant inference: the 3-valued fixed point of the combinational frame
//    with every scan cell free (X) and the primary inputs either free or
//    held at the tester constants -- a non-X result proves the net is stuck
//    at that value for *every* loadable scan state.
//  - Static X-propagation (eval_frame_v3): the 3-valued settle of one
//    explicit scan-state assignment, used to push ATPG care-bit masks
//    through the logic and find X-contaminated capture values.
//
// The same facts power the dataflow lint rules (dataflow_rules.cpp) and the
// scap_analyze CLI. Everything here is pure data-plane analysis: no
// simulation engines, no link dependencies beyond scap_netlist.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace scap::lint {

/// Saturating cost for "value cannot be produced / net cannot be observed".
inline constexpr std::uint32_t kInfCost = 0xffffffffu;

/// Cycle-tolerant levelization of the combinational gate graph. Valid on
/// unfinalized and permissive netlists (it rebuilds reader counts from the
/// raw tables rather than trusting fanout pools).
struct LevelMap {
  std::vector<std::uint32_t> gate_level;  ///< per gate; kInfCost if cyclic
  std::vector<GateId> topo;               ///< acyclic gates in level order
  std::size_t cyclic_gates = 0;           ///< gates excluded (comb loops)
  std::uint32_t max_level = 0;

  bool acyclic() const { return cyclic_gates == 0; }
};

LevelMap levelize(const Netlist& nl);

struct DataflowOptions {
  /// Constant value per primary input (index-aligned with
  /// Netlist::primary_inputs()). Empty = PIs are free test variables
  /// (classic SCOAP); non-empty = the held tester constants, which makes
  /// the opposite PI value unjustifiable and lets constants propagate.
  std::span<const std::uint8_t> pi_values;
};

struct DataflowFacts {
  LevelMap levels;

  // SCOAP testability measures, per net. Sources cost 1 (scan-cell Q nets
  // both values; free PIs both values; held PIs / tie cells only the driven
  // value), each gate level adds 1 plus the cost of justifying the side
  // inputs. Additions saturate at kInfCost.
  std::vector<std::uint32_t> cc0;
  std::vector<std::uint32_t> cc1;
  std::vector<std::uint32_t> co;

  /// Constant inference result per net: V3::zero()/one() = provably stuck at
  /// that value for every scan load (given the held PI values), X otherwise.
  std::vector<V3> constant;

  std::size_t constant_nets = 0;       ///< nets with a non-X constant
  std::size_t uncontrollable_nets = 0; ///< driven nets with CC0 or CC1 = inf
  std::size_t unobservable_nets = 0;   ///< read nets with CO = inf

  bool net_constant(NetId n) const { return !constant[n].is_x(); }
  bool controllable(NetId n) const {
    return cc0[n] != kInfCost && cc1[n] != kInfCost;
  }
  bool observable(NetId n) const { return co[n] != kInfCost; }
};

/// Run the forward (controllability + constants) and backward
/// (observability) passes. O(gates + nets) time and memory.
DataflowFacts analyze_dataflow(const Netlist& nl,
                               const DataflowOptions& opt = {});

/// 3-valued zero-delay settle of one combinational frame: `flop_bits` gives
/// each flop's Q value (X = unfilled scan cell), `pi_values` the held PI
/// constants (empty = all-X). `net_values` is resized to num_nets();
/// outputs of cyclic gates and undriven nets settle to X.
void eval_frame_v3(const Netlist& nl, const LevelMap& levels,
                   std::span<const V3> flop_bits,
                   std::span<const std::uint8_t> pi_values,
                   std::vector<V3>& net_values);

}  // namespace scap::lint
