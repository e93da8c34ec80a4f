#include "lint/dataflow.h"

#include <algorithm>
#include <cstdint>

namespace scap::lint {

namespace {

/// Saturating cost addition: anything involving kInfCost stays impossible;
/// finite overflow clamps just below it (huge but still achievable).
std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) {
  if (a == kInfCost || b == kInfCost) return kInfCost;
  const std::uint64_t s = static_cast<std::uint64_t>(a) + b;
  return s >= kInfCost ? kInfCost - 1 : static_cast<std::uint32_t>(s);
}

std::uint32_t sat_min(std::uint32_t a, std::uint32_t b) {
  return a < b ? a : b;
}

/// SCOAP controllability transfer function of one gate: the cost of setting
/// the output to 0 / 1 given the per-input costs. Computed on the gate's
/// non-inverted core function, then swapped for NAND/NOR/XNOR/INV.
void gate_cc(CellType t, std::span<const NetId> ins,
             std::span<const std::uint32_t> cc0,
             std::span<const std::uint32_t> cc1, std::uint32_t& out0,
             std::uint32_t& out1) {
  std::uint32_t c0 = kInfCost;
  std::uint32_t c1 = kInfCost;
  switch (gate_class(t)) {
    case GateClass::kTie:
      c0 = t == CellType::kTie0 ? 1 : kInfCost;
      c1 = t == CellType::kTie1 ? 1 : kInfCost;
      break;
    case GateClass::kBufLike:
      c0 = sat_add(cc0[ins[0]], 1);
      c1 = sat_add(cc1[ins[0]], 1);
      break;
    case GateClass::kAndLike: {
      std::uint32_t all1 = 0;
      std::uint32_t any0 = kInfCost;
      for (NetId in : ins) {
        all1 = sat_add(all1, cc1[in]);
        any0 = sat_min(any0, cc0[in]);
      }
      c0 = sat_add(any0, 1);
      c1 = sat_add(all1, 1);
      break;
    }
    case GateClass::kOrLike: {
      std::uint32_t all0 = 0;
      std::uint32_t any1 = kInfCost;
      for (NetId in : ins) {
        all0 = sat_add(all0, cc0[in]);
        any1 = sat_min(any1, cc1[in]);
      }
      c0 = sat_add(all0, 1);
      c1 = sat_add(any1, 1);
      break;
    }
    case GateClass::kXorLike: {
      const NetId a = ins[0];
      const NetId b = ins[1];
      c0 = sat_add(sat_min(sat_add(cc0[a], cc0[b]), sat_add(cc1[a], cc1[b])),
                   1);
      c1 = sat_add(sat_min(sat_add(cc0[a], cc1[b]), sat_add(cc1[a], cc0[b])),
                   1);
      break;
    }
    case GateClass::kMux: {
      // inputs [S, A, B]; output = S ? B : A.
      const NetId s = ins[0];
      const NetId a = ins[1];
      const NetId b = ins[2];
      c0 = sat_add(sat_min(sat_add(cc0[s], cc0[a]), sat_add(cc1[s], cc0[b])),
                   1);
      c1 = sat_add(sat_min(sat_add(cc0[s], cc1[a]), sat_add(cc1[s], cc1[b])),
                   1);
      break;
    }
  }
  if (is_inverting(t)) std::swap(c0, c1);
  out0 = c0;
  out1 = c1;
}

/// SCOAP sensitization cost of input pin `pin` of a gate: what the side
/// inputs must be set to for a change on the pin to reach the output.
/// Output inversion is free, so NAND/NOR/XNOR share their core's cost.
std::uint32_t sensitize_cost(CellType t, std::span<const NetId> ins,
                             std::size_t pin,
                             std::span<const std::uint32_t> cc0,
                             std::span<const std::uint32_t> cc1) {
  switch (gate_class(t)) {
    case GateClass::kTie:
      return kInfCost;  // no inputs; unreachable
    case GateClass::kBufLike:
      return 1;
    case GateClass::kAndLike: {
      std::uint32_t cost = 1;
      for (std::size_t j = 0; j < ins.size(); ++j) {
        if (j != pin) cost = sat_add(cost, cc1[ins[j]]);
      }
      return cost;
    }
    case GateClass::kOrLike: {
      std::uint32_t cost = 1;
      for (std::size_t j = 0; j < ins.size(); ++j) {
        if (j != pin) cost = sat_add(cost, cc0[ins[j]]);
      }
      return cost;
    }
    case GateClass::kXorLike: {
      std::uint32_t cost = 1;
      for (std::size_t j = 0; j < ins.size(); ++j) {
        if (j != pin) {
          cost = sat_add(cost, sat_min(cc0[ins[j]], cc1[ins[j]]));
        }
      }
      return cost;
    }
    case GateClass::kMux: {
      const NetId s = ins[0];
      const NetId a = ins[1];
      const NetId b = ins[2];
      if (pin == 0) {
        // Observing the select needs the data inputs to differ.
        return sat_add(sat_min(sat_add(cc0[a], cc1[b]),
                               sat_add(cc1[a], cc0[b])),
                       1);
      }
      return sat_add(pin == 1 ? cc0[s] : cc1[s], 1);
    }
  }
  return kInfCost;
}

}  // namespace

LevelMap levelize(const Netlist& nl) {
  LevelMap lm;
  const std::size_t ng = nl.num_gates();
  const std::size_t nn = nl.num_nets();
  lm.gate_level.assign(ng, kInfCost);
  lm.topo.reserve(ng);

  // Reader-pin map rebuilt from the raw tables (valid pre-finalize; one
  // entry per connected pin, so pending counts balance exactly).
  std::vector<std::uint32_t> rd_begin(nn + 1, 0);
  for (GateId g = 0; g < ng; ++g) {
    for (NetId in : nl.gate_inputs(g)) ++rd_begin[in + 1];
  }
  for (std::size_t n = 0; n < nn; ++n) rd_begin[n + 1] += rd_begin[n];
  std::vector<GateId> rd_pool(rd_begin[nn]);
  std::vector<std::uint32_t> cursor(rd_begin.begin(), rd_begin.end() - 1);
  for (GateId g = 0; g < ng; ++g) {
    for (NetId in : nl.gate_inputs(g)) rd_pool[cursor[in]++] = g;
  }

  // Kahn worklist: a gate is ready once every input pin driven by a gate has
  // its driver levelized. Permissive netlists may under-record extra drivers
  // of a multi-driven net; the recorded first driver is the authority here
  // (multi-driven is an error reported by the structural rules).
  std::vector<std::uint32_t> pending(ng, 0);
  for (GateId g = 0; g < ng; ++g) {
    for (NetId in : nl.gate_inputs(g)) {
      if (nl.net(in).driver_kind == DriverKind::kGate) ++pending[g];
    }
  }
  for (GateId g = 0; g < ng; ++g) {
    if (pending[g] == 0) {
      lm.gate_level[g] = 0;
      lm.topo.push_back(g);
    }
  }
  for (std::size_t head = 0; head < lm.topo.size(); ++head) {
    const GateId g = lm.topo[head];
    const NetId out = nl.gate(g).out;
    if (out == kNullId || nl.net(out).driver_kind != DriverKind::kGate ||
        nl.net(out).driver != g) {
      continue;  // not the recorded driver; readers never waited on us
    }
    for (std::uint32_t p = rd_begin[out]; p < rd_begin[out + 1]; ++p) {
      const GateId r = rd_pool[p];
      lm.gate_level[r] = std::max(lm.gate_level[r] == kInfCost
                                      ? 0
                                      : lm.gate_level[r],
                                  lm.gate_level[g] + 1);
      if (--pending[r] == 0) lm.topo.push_back(r);
    }
  }
  // Gates never reaching pending==0 sit in (or behind) a combinational
  // cycle; they keep level kInfCost and are excluded from the passes.
  for (GateId g = 0; g < ng; ++g) {
    if (pending[g] != 0) lm.gate_level[g] = kInfCost;
  }
  lm.topo.erase(std::remove_if(lm.topo.begin(), lm.topo.end(),
                               [&](GateId g) { return pending[g] != 0; }),
                lm.topo.end());
  lm.cyclic_gates = ng - lm.topo.size();
  std::stable_sort(lm.topo.begin(), lm.topo.end(), [&](GateId a, GateId b) {
    return lm.gate_level[a] < lm.gate_level[b];
  });
  for (GateId g : lm.topo) lm.max_level = std::max(lm.max_level, lm.gate_level[g]);
  return lm;
}

DataflowFacts analyze_dataflow(const Netlist& nl, const DataflowOptions& opt) {
  DataflowFacts f;
  f.levels = levelize(nl);
  const std::size_t nn = nl.num_nets();
  f.cc0.assign(nn, kInfCost);
  f.cc1.assign(nn, kInfCost);
  f.co.assign(nn, kInfCost);
  f.constant.assign(nn, V3::x());

  // -- sources ---------------------------------------------------------------
  const std::span<const NetId> pis = nl.primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const NetId n = pis[i];
    if (opt.pi_values.empty()) {
      f.cc0[n] = 1;
      f.cc1[n] = 1;
    } else {
      // Held tester constant: the opposite value is unjustifiable.
      const bool one = opt.pi_values[i] != 0;
      f.cc0[n] = one ? kInfCost : 1;
      f.cc1[n] = one ? 1 : kInfCost;
      f.constant[n] = V3::of(one ? 1 : 0);
    }
  }
  for (FlopId fl = 0; fl < nl.num_flops(); ++fl) {
    const NetId q = nl.flop(fl).q;
    if (q == kNullId) continue;
    f.cc0[q] = 1;  // scan-loadable: either value one shift away
    f.cc1[q] = 1;
  }

  // -- forward pass: controllability + constants -----------------------------
  for (const GateId g : f.levels.topo) {
    const Gate& gr = nl.gate(g);
    const std::span<const NetId> ins = nl.gate_inputs(g);
    if (gr.out == kNullId) continue;
    gate_cc(gr.type, ins, f.cc0, f.cc1, f.cc0[gr.out], f.cc1[gr.out]);
    f.constant[gr.out] =
        eval_v3(gr.type, [&](int k) { return f.constant[ins[k]]; });
  }

  // -- backward pass: observability ------------------------------------------
  if (opt.observability) {
    for (NetId n = 0; n < nn; ++n) {
      if (nl.net(n).is_po) f.co[n] = 0;
    }
    for (FlopId fl = 0; fl < nl.num_flops(); ++fl) {
      const NetId d = nl.flop(fl).d;
      if (d != kNullId) f.co[d] = 0;  // captured, then scanned out
    }
    for (auto it = f.levels.topo.rbegin(); it != f.levels.topo.rend(); ++it) {
      const Gate& gr = nl.gate(*it);
      if (gr.out == kNullId || f.co[gr.out] == kInfCost) continue;
      const std::span<const NetId> ins = nl.gate_inputs(*it);
      for (std::size_t i = 0; i < ins.size(); ++i) {
        const std::uint32_t cost = sat_add(
            f.co[gr.out], sensitize_cost(gr.type, ins, i, f.cc0, f.cc1));
        f.co[ins[i]] = sat_min(f.co[ins[i]], cost);
      }
    }
  }

  // -- summary counters ------------------------------------------------------
  std::vector<std::uint8_t> read(nn, 0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (NetId in : nl.gate_inputs(g)) read[in] = 1;
  }
  for (FlopId fl = 0; fl < nl.num_flops(); ++fl) {
    if (nl.flop(fl).d != kNullId) read[nl.flop(fl).d] = 1;
  }
  for (NetId n = 0; n < nn; ++n) {
    if (f.net_constant(n)) ++f.constant_nets;
    const bool driven = nl.net(n).driver_kind != DriverKind::kNone;
    if (driven && !f.net_constant(n) && !f.controllable(n)) {
      ++f.uncontrollable_nets;
    }
    if (read[n] && !f.net_constant(n) && !f.observable(n)) {
      ++f.unobservable_nets;
    }
  }
  return f;
}

void eval_frame_v3(const Netlist& nl, const LevelMap& levels,
                   std::span<const V3> flop_bits,
                   std::span<const std::uint8_t> pi_values,
                   std::vector<V3>& net_values) {
  net_values.assign(nl.num_nets(), V3::x());
  const std::span<const NetId> pis = nl.primary_inputs();
  for (std::size_t i = 0; i < pis.size() && i < pi_values.size(); ++i) {
    net_values[pis[i]] = V3::of(pi_values[i] != 0);
  }
  for (FlopId f = 0; f < nl.num_flops() && f < flop_bits.size(); ++f) {
    const NetId q = nl.flop(f).q;
    if (q != kNullId) net_values[q] = flop_bits[f];
  }
  for (const GateId g : levels.topo) {
    const Gate& gr = nl.gate(g);
    if (gr.out == kNullId) continue;
    const std::span<const NetId> ins = nl.gate_inputs(g);
    net_values[gr.out] =
        eval_v3(gr.type, [&](int k) { return net_values[ins[k]]; });
  }
}

}  // namespace scap::lint
