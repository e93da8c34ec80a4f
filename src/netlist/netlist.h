// Flat gate-level netlist with block tagging.
//
// The netlist is the hub data structure of the library: the SOC generator
// and the Verilog parser produce one, and every engine (logic/fault/timing
// simulation, ATPG, power analysis) consumes it read-only after finalize().
//
// Design notes:
//  - IDs are dense uint32 indices; gate inputs and net fanouts are pooled in
//    shared arrays for cache-friendly traversal (the fault simulator touches
//    millions of gate evaluations per pattern batch).
//  - Hierarchy is flattened; the paper's six SOC blocks (B1..B6) survive as a
//    per-instance block tag, which is all the power analyses need.
//  - Flip-flops are kept out of the combinational gate list; the two-frame
//    broadside semantics of launch-off-capture testing are implemented by
//    treating flop Q pins as pseudo primary inputs and D pins as pseudo
//    primary outputs of the combinational core.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/cell_type.h"

namespace scap {

class LevelizedView;

using NetId = std::uint32_t;
using GateId = std::uint32_t;
using FlopId = std::uint32_t;
using BlockId = std::uint16_t;
using DomainId = std::uint8_t;

inline constexpr std::uint32_t kNullId = 0xffffffffu;

enum class DriverKind : std::uint8_t { kNone, kGate, kFlop, kInput };

struct Gate {
  CellType type = CellType::kBuf;
  NetId out = kNullId;
  std::uint32_t in_begin = 0;  ///< offset into the pooled input array
  std::uint16_t in_count = 0;
  BlockId block = 0;
  std::uint32_t level = 0;  ///< combinational level (valid after finalize)
};

struct Flop {
  NetId d = kNullId;
  NetId q = kNullId;
  DomainId domain = 0;
  BlockId block = 0;
  bool neg_edge = false;
};

struct Net {
  DriverKind driver_kind = DriverKind::kNone;
  std::uint32_t driver = kNullId;  ///< GateId / FlopId / PI index
  std::uint32_t fo_begin = 0;      ///< pooled gate-fanout offset
  std::uint32_t fo_count = 0;
  std::uint32_t ffo_begin = 0;  ///< pooled flop-D-fanout offset
  std::uint32_t ffo_count = 0;
  bool is_po = false;
};

class Netlist {
 public:
  // ---- construction -------------------------------------------------------
  NetId add_net(std::string name = {});
  NetId add_input(std::string name = {});
  void mark_output(NetId net);
  GateId add_gate(CellType type, std::span<const NetId> inputs, NetId out,
                  BlockId block = 0);
  FlopId add_flop(NetId d, NetId q, DomainId domain, BlockId block,
                  bool neg_edge = false);
  void set_block_count(std::uint16_t n) { block_count_ = n; }
  void set_domain_count(std::uint8_t n) { domain_count_ = n; }

  /// Relaxed construction for lint tooling: add_gate/add_flop on an
  /// already-driven net record the first driver and keep going instead of
  /// throwing, so scap_lint can report *every* violation in a malformed
  /// design at once. finalize() still rejects such netlists (it recounts
  /// drivers from the gate/flop tables).
  void set_permissive(bool on) { permissive_ = on; }
  bool permissive() const { return permissive_; }

  /// Build fanout maps, levelize, validate, and build the levelized view.
  /// Throws std::runtime_error on multiple drivers, undriven nets, arity
  /// mismatches or combinational loops. These are the defects behind all
  /// five error-severity structural lint rules, so a finalized netlist
  /// already passes them; the engines therefore never call lint.
  void finalize();
  bool finalized() const { return finalized_; }

  /// The struct-of-arrays schedule every full-netlist sweep runs on
  /// (netlist/levelized_view.h), built once by finalize(); null before.
  /// Engines keep a copy of the pointer to share it read-only.
  const std::shared_ptr<const LevelizedView>& levelized_view() const {
    return view_;
  }

  // ---- topology -----------------------------------------------------------
  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_gates() const { return gates_.size(); }
  std::size_t num_flops() const { return flops_.size(); }
  std::uint16_t block_count() const { return block_count_; }
  std::uint8_t domain_count() const { return domain_count_; }

  const Gate& gate(GateId g) const { return gates_[g]; }
  const Flop& flop(FlopId f) const { return flops_[f]; }
  const Net& net(NetId n) const { return nets_[n]; }

  std::span<const NetId> gate_inputs(GateId g) const {
    const Gate& gr = gates_[g];
    return {gate_inputs_.data() + gr.in_begin, gr.in_count};
  }

  /// Gates that read this net (a gate appears once per connected pin).
  std::span<const GateId> fanout_gates(NetId n) const {
    const Net& nr = nets_[n];
    return {fanout_pool_.data() + nr.fo_begin, nr.fo_count};
  }

  /// Flops whose D pin is this net.
  std::span<const FlopId> fanout_flops(NetId n) const {
    const Net& nr = nets_[n];
    return {flop_fanout_pool_.data() + nr.ffo_begin, nr.ffo_count};
  }

  std::span<const NetId> primary_inputs() const { return pis_; }
  std::span<const NetId> primary_outputs() const { return pos_; }

  /// Combinational gates in topological (level) order.
  std::span<const GateId> topo_order() const { return topo_; }
  std::uint32_t max_level() const { return max_level_; }

  const std::string& net_name(NetId n) const { return net_names_[n]; }

  // ---- derived maps -------------------------------------------------------
  /// Flops per clock domain.
  std::vector<std::vector<FlopId>> flops_by_domain() const;
  /// Flops per block.
  std::vector<std::vector<FlopId>> flops_by_block() const;
  /// Gate count per block (combinational instances only).
  std::vector<std::size_t> gates_per_block() const;

 private:
  void check_arity(CellType type, std::size_t n_inputs) const;
  void require_unfinalized() const;

  std::vector<Gate> gates_;
  std::vector<NetId> gate_inputs_;
  std::vector<Flop> flops_;
  std::vector<Net> nets_;
  std::vector<std::string> net_names_;
  std::vector<NetId> pis_;
  std::vector<NetId> pos_;
  std::vector<GateId> fanout_pool_;
  std::vector<FlopId> flop_fanout_pool_;
  std::vector<GateId> topo_;
  std::shared_ptr<const LevelizedView> view_;
  std::uint32_t max_level_ = 0;
  std::uint16_t block_count_ = 1;
  std::uint8_t domain_count_ = 1;
  bool finalized_ = false;
  bool permissive_ = false;
};

}  // namespace scap
