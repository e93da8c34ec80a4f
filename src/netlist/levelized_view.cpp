#include "netlist/levelized_view.h"

#include <algorithm>
#include <stdexcept>

namespace scap {

LevelizedView::LevelizedView(const Netlist& nl) {
  if (!nl.finalized()) {
    throw std::invalid_argument("LevelizedView: netlist must be finalized");
  }
  const std::size_t nn = nl.num_nets();
  const std::size_t ng = nl.num_gates();
  const std::size_t nf = nl.num_flops();
  max_level_ = nl.max_level();

  // Stable (level, type) schedule over the already level-sorted topo order.
  std::vector<GateId> order(nl.topo_order().begin(), nl.topo_order().end());
  std::stable_sort(order.begin(), order.end(), [&](GateId a, GateId b) {
    const std::uint32_t la = nl.gate(a).level;
    const std::uint32_t lb = nl.gate(b).level;
    if (la != lb) return la < lb;
    return nl.gate(a).type < nl.gate(b).type;
  });

  // Compact renumbering in sweep-write order: flop Q nets first (compact id
  // of flop f's Q is exactly f), then PIs, then remaining undriven nets,
  // then gate outputs in schedule order.
  compact_of_net_.assign(nn, kNullId);
  NetId next = 0;
  f_q_.reserve(nf);
  for (FlopId f = 0; f < nf; ++f) {
    compact_of_net_[nl.flop(f).q] = next;
    f_q_.push_back(next++);
  }
  pi_net_.reserve(nl.primary_inputs().size());
  for (const NetId pi : nl.primary_inputs()) {
    if (compact_of_net_[pi] == kNullId) compact_of_net_[pi] = next++;
    pi_net_.push_back(compact_of_net_[pi]);
  }
  for (NetId n = 0; n < nn; ++n) {
    if (compact_of_net_[n] == kNullId &&
        nl.net(n).driver_kind != DriverKind::kGate) {
      compact_of_net_[n] = next++;
    }
  }
  first_gate_out_ = next;
  for (const GateId g : order) compact_of_net_[nl.gate(g).out] = next++;

  net_of_compact_.assign(nn, kNullId);
  for (NetId n = 0; n < nn; ++n) net_of_compact_[compact_of_net_[n]] = n;

  // Flat gate records + pooled compact input ids.
  g_type_.reserve(ng);
  g_level_.reserve(ng);
  g_out_.reserve(ng);
  g_in_off_.reserve(ng + 1);
  g_in_off_.push_back(0);
  gate_of_sched_.reserve(ng);
  sched_of_gate_.assign(ng, 0);
  f_d_.reserve(nf);
  for (const GateId g : order) {
    const Gate& gr = nl.gate(g);
    sched_of_gate_[g] = static_cast<std::uint32_t>(gate_of_sched_.size());
    gate_of_sched_.push_back(g);
    g_type_.push_back(gr.type);
    g_level_.push_back(gr.level);
    g_out_.push_back(compact_of_net_[gr.out]);
    const std::span<const NetId> ins = nl.gate_inputs(g);
    for (const NetId in : ins) g_in_.push_back(compact_of_net_[in]);
    g_in_off_.push_back(static_cast<std::uint32_t>(g_in_.size()));
  }
  for (FlopId f = 0; f < nf; ++f) f_d_.push_back(compact_of_net_[nl.flop(f).d]);

  // Gate fanouts in compact space, as schedule indices (counting sort keeps
  // each net's readers in schedule order, which cone engines rely on for a
  // deterministic enqueue order).
  std::vector<std::uint32_t> counts(nn, 0);
  for (std::size_t i = 0; i < g_in_.size(); ++i) ++counts[g_in_[i]];
  fo_begin_.assign(nn + 1, 0);
  for (NetId n = 0; n < nn; ++n) fo_begin_[n + 1] = fo_begin_[n] + counts[n];
  fo_pool_.resize(g_in_.size());
  std::fill(counts.begin(), counts.end(), 0);
  for (std::uint32_t si = 0; si < g_type_.size(); ++si) {
    const std::uint32_t b = g_in_off_[si];
    const std::uint32_t e = g_in_off_[si + 1];
    for (std::uint32_t k = b; k < e; ++k) {
      const NetId in = g_in_[k];
      fo_pool_[fo_begin_[in] + counts[in]++] = si;
    }
  }
}

}  // namespace scap
