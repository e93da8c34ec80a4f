#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "netlist/levelized_view.h"

namespace scap {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::runtime_error("netlist: " + msg);
}

NetlistVerifyHook g_verify_hook = nullptr;

}  // namespace

NetlistVerifyHook set_netlist_verify_hook(NetlistVerifyHook hook) {
  NetlistVerifyHook prev = g_verify_hook;
  g_verify_hook = hook;
  return prev;
}

void Netlist::require_unfinalized() const {
  if (finalized_) fail("mutation after finalize()");
}

NetId Netlist::add_net(std::string name) {
  require_unfinalized();
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.emplace_back();
  if (name.empty()) name = "n" + std::to_string(id);
  net_names_.push_back(std::move(name));
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId id = add_net(std::move(name));
  nets_[id].driver_kind = DriverKind::kInput;
  nets_[id].driver = static_cast<std::uint32_t>(pis_.size());
  pis_.push_back(id);
  return id;
}

void Netlist::mark_output(NetId net) {
  require_unfinalized();
  if (net >= nets_.size()) fail("mark_output: bad net id");
  if (!nets_[net].is_po) {
    nets_[net].is_po = true;
    pos_.push_back(net);
  }
}

void Netlist::check_arity(CellType type, std::size_t n_inputs) const {
  if (static_cast<int>(n_inputs) != num_inputs(type)) {
    fail(std::string("arity mismatch for ") + std::string(cell_name(type)) +
         ": got " + std::to_string(n_inputs));
  }
}

GateId Netlist::add_gate(CellType type, std::span<const NetId> inputs,
                         NetId out, BlockId block) {
  require_unfinalized();
  if (!is_combinational(type)) fail("add_gate: use add_flop for sequential cells");
  check_arity(type, inputs.size());
  if (out >= nets_.size()) fail("add_gate: bad output net");
  Net& onet = nets_[out];
  const bool driven = onet.driver_kind != DriverKind::kNone;
  if (driven && !permissive_) fail("add_gate: multiple drivers on " + net_names_[out]);
  for (NetId in : inputs) {
    if (in >= nets_.size()) fail("add_gate: bad input net");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.type = type;
  g.out = out;
  g.in_begin = static_cast<std::uint32_t>(gate_inputs_.size());
  g.in_count = static_cast<std::uint16_t>(inputs.size());
  g.block = block;
  gates_.push_back(g);
  gate_inputs_.insert(gate_inputs_.end(), inputs.begin(), inputs.end());
  if (!driven) {  // permissive mode keeps the first driver on conflicts
    onet.driver_kind = DriverKind::kGate;
    onet.driver = id;
  }
  return id;
}

FlopId Netlist::add_flop(NetId d, NetId q, DomainId domain, BlockId block,
                         bool neg_edge) {
  require_unfinalized();
  if (d >= nets_.size() || q >= nets_.size()) fail("add_flop: bad net id");
  Net& qnet = nets_[q];
  const bool driven = qnet.driver_kind != DriverKind::kNone;
  if (driven && !permissive_) fail("add_flop: multiple drivers on " + net_names_[q]);
  const FlopId id = static_cast<FlopId>(flops_.size());
  flops_.push_back(Flop{d, q, domain, block, neg_edge});
  if (!driven) {
    qnet.driver_kind = DriverKind::kFlop;
    qnet.driver = id;
  }
  return id;
}

void Netlist::finalize() {
  require_unfinalized();

  // Recount drivers from the gate/flop tables rather than trusting the
  // incrementally maintained driver fields: permissive construction (and any
  // future bulk loader) can leave a net with several writers, and a
  // multi-driven net would silently corrupt every downstream engine. The
  // error aggregates all offenders so a bad parse is fixed in one pass.
  {
    std::vector<std::uint32_t> drivers(nets_.size(), 0);
    for (NetId n : pis_) ++drivers[n];
    for (const Gate& g : gates_) ++drivers[g.out];
    for (const Flop& f : flops_) ++drivers[f.q];
    std::string multi;
    std::size_t n_multi = 0;
    for (NetId n = 0; n < nets_.size(); ++n) {
      if (drivers[n] <= 1) continue;
      ++n_multi;
      if (n_multi <= 8) {
        multi += (n_multi > 1 ? ", " : "") + net_names_[n] + " (" +
                 std::to_string(drivers[n]) + " drivers)";
      }
    }
    if (n_multi > 0) {
      if (n_multi > 8) multi += ", ...";
      fail("finalize: " + std::to_string(n_multi) + " multi-driven net(s): " +
           multi);
    }
  }

  // Every net must have a driver.
  for (NetId n = 0; n < nets_.size(); ++n) {
    if (nets_[n].driver_kind == DriverKind::kNone) {
      fail("undriven net " + net_names_[n]);
    }
  }

  // Build gate fanouts (counting sort into pooled storage).
  std::vector<std::uint32_t> counts(nets_.size(), 0);
  for (NetId in : gate_inputs_) ++counts[in];
  std::uint32_t offset = 0;
  for (NetId n = 0; n < nets_.size(); ++n) {
    nets_[n].fo_begin = offset;
    nets_[n].fo_count = counts[n];
    offset += counts[n];
    counts[n] = 0;
  }
  fanout_pool_.resize(offset);
  for (GateId g = 0; g < gates_.size(); ++g) {
    for (NetId in : gate_inputs(g)) {
      fanout_pool_[nets_[in].fo_begin + counts[in]++] = g;
    }
  }

  // Build flop D fanouts.
  std::vector<std::uint32_t> fcounts(nets_.size(), 0);
  for (const Flop& f : flops_) ++fcounts[f.d];
  offset = 0;
  for (NetId n = 0; n < nets_.size(); ++n) {
    nets_[n].ffo_begin = offset;
    nets_[n].ffo_count = fcounts[n];
    offset += fcounts[n];
    fcounts[n] = 0;
  }
  flop_fanout_pool_.resize(offset);
  for (FlopId f = 0; f < flops_.size(); ++f) {
    const NetId d = flops_[f].d;
    flop_fanout_pool_[nets_[d].ffo_begin + fcounts[d]++] = f;
  }

  // Levelize combinational gates (Kahn); detect loops.
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::vector<GateId> ready;
  ready.reserve(gates_.size());
  for (GateId g = 0; g < gates_.size(); ++g) {
    std::uint32_t deps = 0;
    for (NetId in : gate_inputs(g)) {
      if (nets_[in].driver_kind == DriverKind::kGate) ++deps;
    }
    pending[g] = deps;
    if (deps == 0) {
      gates_[g].level = 0;
      ready.push_back(g);
    }
  }
  topo_.clear();
  topo_.reserve(gates_.size());
  max_level_ = 0;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId g = ready[head];
    topo_.push_back(g);
    max_level_ = std::max(max_level_, gates_[g].level);
    for (GateId fo : fanout_gates(gates_[g].out)) {
      gates_[fo].level = std::max(gates_[fo].level, gates_[g].level + 1);
      if (--pending[fo] == 0) ready.push_back(fo);
    }
  }
  if (topo_.size() != gates_.size()) fail("combinational loop detected");
  // Stable level ordering: sort by (level, id) so engines can sweep levels.
  std::sort(topo_.begin(), topo_.end(), [this](GateId a, GateId b) {
    return gates_[a].level != gates_[b].level ? gates_[a].level < gates_[b].level
                                              : a < b;
  });

  finalized_ = true;
  view_ = LevelizedView::build(*this);
  if (g_verify_hook != nullptr) g_verify_hook(*this);
}

std::vector<std::vector<FlopId>> Netlist::flops_by_domain() const {
  std::vector<std::vector<FlopId>> out(domain_count_);
  for (FlopId f = 0; f < flops_.size(); ++f) out[flops_[f].domain].push_back(f);
  return out;
}

std::vector<std::vector<FlopId>> Netlist::flops_by_block() const {
  std::vector<std::vector<FlopId>> out(block_count_);
  for (FlopId f = 0; f < flops_.size(); ++f) out[flops_[f].block].push_back(f);
  return out;
}

std::vector<std::size_t> Netlist::gates_per_block() const {
  std::vector<std::size_t> out(block_count_, 0);
  for (const Gate& g : gates_) ++out[g.block];
  return out;
}

}  // namespace scap
