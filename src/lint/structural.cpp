// Structural netlist rules and scan-chain integrity (lint/lint.h).
//
// All checks run without simulating and without requiring finalize(): the
// pass builds its own reader maps from the raw gate/flop tables, so netlists
// finalize() would reject (loops, undriven or multi-driven nets -- built via
// Netlist::set_permissive) are exactly the ones it can diagnose.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace scap::lint {

namespace {

// Instance naming matches the structural-Verilog writer (netlist/verilog.cpp)
// so diagnostics line up with emitted netlists.
std::string gate_name(const Netlist& nl, GateId g) {
  return "b" + std::to_string(nl.gate(g).block) + "_g" + std::to_string(g);
}
std::string flop_name(const Netlist& nl, FlopId f) {
  return "b" + std::to_string(nl.flop(f).block) + "_f" + std::to_string(f);
}

Location net_loc(const Netlist& nl, NetId n) {
  return Location{"net", n, nl.net_name(n)};
}
Location gate_loc(const Netlist& nl, GateId g) {
  return Location{"gate", g, gate_name(nl, g)};
}
Location flop_loc(const Netlist& nl, FlopId f) {
  return Location{"flop", f, flop_name(nl, f)};
}

/// Reader maps rebuilt from the raw tables (valid pre-finalize, and immune to
/// stale fanout pools after netlist surgery).
struct Readers {
  // Pooled counting sort, same layout as Netlist::finalize() builds.
  std::vector<std::uint32_t> gate_begin;  ///< per net, into gate_pool
  std::vector<GateId> gate_pool;
  std::vector<std::uint32_t> flop_begin;  ///< per net, into flop_pool
  std::vector<FlopId> flop_pool;

  std::span<const GateId> gates(NetId n) const {
    return {gate_pool.data() + gate_begin[n],
            gate_begin[n + 1] - gate_begin[n]};
  }
  std::span<const FlopId> flops(NetId n) const {
    return {flop_pool.data() + flop_begin[n],
            flop_begin[n + 1] - flop_begin[n]};
  }

  static Readers build(const Netlist& nl) {
    Readers r;
    const std::size_t nn = nl.num_nets();
    r.gate_begin.assign(nn + 1, 0);
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      for (NetId in : nl.gate_inputs(g)) ++r.gate_begin[in + 1];
    }
    for (std::size_t n = 0; n < nn; ++n) r.gate_begin[n + 1] += r.gate_begin[n];
    r.gate_pool.resize(r.gate_begin[nn]);
    std::vector<std::uint32_t> cursor(r.gate_begin.begin(),
                                      r.gate_begin.end() - 1);
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      for (NetId in : nl.gate_inputs(g)) r.gate_pool[cursor[in]++] = g;
    }

    r.flop_begin.assign(nn + 1, 0);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      ++r.flop_begin[nl.flop(f).d + 1];
    }
    for (std::size_t n = 0; n < nn; ++n) r.flop_begin[n + 1] += r.flop_begin[n];
    r.flop_pool.resize(r.flop_begin[nn]);
    cursor.assign(r.flop_begin.begin(), r.flop_begin.end() - 1);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      r.flop_pool[cursor[nl.flop(f).d]++] = f;
    }
    return r;
  }
};

void check_drivers(const Netlist& nl, const Readers& rd, Diagnostics& diag) {
  // Recount drivers from the raw tables; Net::driver only remembers the
  // first one (permissive construction) or throws earlier (strict).
  std::vector<std::uint32_t> ndrv(nl.num_nets(), 0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).driver_kind == DriverKind::kInput) ++ndrv[n];
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) ++ndrv[nl.gate(g).out];
  for (FlopId f = 0; f < nl.num_flops(); ++f) ++ndrv[nl.flop(f).q];

  if (diag.rule_enabled(rule::kNetMultiDriven)) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (ndrv[n] <= 1) continue;
      std::string msg = "net '" + nl.net_name(n) + "' has " +
                        std::to_string(ndrv[n]) + " drivers:";
      if (nl.net(n).driver_kind == DriverKind::kInput) {
        msg += " primary input,";
      }
      int listed = 0;
      for (GateId g = 0; g < nl.num_gates() && listed < 6; ++g) {
        if (nl.gate(g).out == n) {
          msg += " gate " + gate_name(nl, g) + ",";
          ++listed;
        }
      }
      for (FlopId f = 0; f < nl.num_flops() && listed < 6; ++f) {
        if (nl.flop(f).q == n) {
          msg += " flop " + flop_name(nl, f) + ",";
          ++listed;
        }
      }
      msg.pop_back();
      diag.add(rule::kNetMultiDriven, net_loc(nl, n), std::move(msg));
    }
  }

  // Undriven nets, partitioned by who reads them so each defect yields one
  // rule: gate readers -> floating input, flop readers -> floating D,
  // neither -> plain undriven (a PO or a fully disconnected net).
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (ndrv[n] != 0) continue;
    const auto gr = rd.gates(n);
    const auto fr = rd.flops(n);
    if (!gr.empty()) {
      for (GateId g : gr) {
        const auto ins = nl.gate_inputs(g);
        const std::size_t pin =
            static_cast<std::size_t>(std::find(ins.begin(), ins.end(), n) -
                                     ins.begin());
        diag.add(rule::kGateFloatingInput, gate_loc(nl, g),
                 "input " + std::to_string(pin) + " of gate " +
                     gate_name(nl, g) + " is undriven net '" +
                     nl.net_name(n) + "'");
      }
    } else if (!fr.empty()) {
      for (FlopId f : fr) {
        diag.add(rule::kFlopFloatingD, flop_loc(nl, f),
                 "D pin of flop " + flop_name(nl, f) + " is undriven net '" +
                     nl.net_name(n) + "'");
      }
    } else {
      diag.add(rule::kNetUndriven, net_loc(nl, n),
               std::string("net '") + nl.net_name(n) + "' is undriven" +
                   (nl.net(n).is_po ? " but marked as a primary output"
                                    : " and reads nothing"));
    }
  }
}

/// Iterative Tarjan SCC over the gate graph (edges: gate -> readers of its
/// output net). Reports one diagnostic per cycle: every SCC of size > 1, and
/// size-1 SCCs with a self-edge.
void check_comb_loops(const Netlist& nl, const Readers& rd,
                      Diagnostics& diag) {
  if (!diag.rule_enabled(rule::kCombLoop)) return;
  const std::size_t n = nl.num_gates();
  constexpr std::uint32_t kUnvisited = 0xffffffffu;
  std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<GateId> stack;
  std::uint32_t next_index = 0;

  struct Frame {
    GateId gate;
    std::size_t succ = 0;  ///< next successor offset within readers
  };
  std::vector<Frame> frames;

  for (GateId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back(Frame{root});
    while (!frames.empty()) {
      Frame& fr = frames.back();
      const GateId g = fr.gate;
      if (fr.succ == 0) {
        index[g] = low[g] = next_index++;
        stack.push_back(g);
        on_stack[g] = 1;
      }
      const auto succs = rd.gates(nl.gate(g).out);
      if (fr.succ < succs.size()) {
        const GateId s = succs[fr.succ++];
        if (index[s] == kUnvisited) {
          frames.push_back(Frame{s});
        } else if (on_stack[s]) {
          low[g] = std::min(low[g], index[s]);
        }
        continue;
      }
      if (low[g] == index[g]) {
        // Pop the SCC rooted at g.
        std::vector<GateId> scc;
        for (;;) {
          const GateId m = stack.back();
          stack.pop_back();
          on_stack[m] = 0;
          scc.push_back(m);
          if (m == g) break;
        }
        bool self_loop = false;
        if (scc.size() == 1) {
          const auto ins = nl.gate_inputs(scc[0]);
          self_loop = std::find(ins.begin(), ins.end(),
                                nl.gate(scc[0]).out) != ins.end();
        }
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          std::string msg = "combinational loop through " +
                            std::to_string(scc.size()) + " gate(s):";
          const std::size_t show = std::min<std::size_t>(scc.size(), 8);
          for (std::size_t i = 0; i < show; ++i) {
            msg += (i ? " -> " : " ") + gate_name(nl, scc[i]);
          }
          if (scc.size() > show) msg += " -> ...";
          diag.add(rule::kCombLoop, gate_loc(nl, scc[0]), std::move(msg));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().gate] =
            std::min(low[frames.back().gate], low[g]);
      }
    }
  }
}

/// Forward reachability from every primary input and flop Q. TIE cells are
/// constants by design and are neither sources nor reported; logic fed only
/// by them is still flagged (it can never launch a transition).
void check_reachability(const Netlist& nl, const Readers& rd,
                        Diagnostics& diag) {
  const bool want_gates = diag.rule_enabled(rule::kGateUnreachable);
  const bool want_flops = diag.rule_enabled(rule::kFlopUnreachable);
  if (!want_gates && !want_flops) return;

  std::vector<std::uint8_t> net_reached(nl.num_nets(), 0);
  std::vector<std::uint8_t> gate_reached(nl.num_gates(), 0);
  std::vector<NetId> queue;
  auto mark = [&](NetId n) {
    if (!net_reached[n]) {
      net_reached[n] = 1;
      queue.push_back(n);
    }
  };
  for (NetId pi : nl.primary_inputs()) mark(pi);
  for (FlopId f = 0; f < nl.num_flops(); ++f) mark(nl.flop(f).q);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (GateId g : rd.gates(queue[head])) {
      if (!gate_reached[g]) {
        gate_reached[g] = 1;
        mark(nl.gate(g).out);
      }
    }
  }

  if (want_gates) {
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (gate_reached[g] || gate_class(nl.gate(g).type) == GateClass::kTie) {
        continue;
      }
      diag.add(rule::kGateUnreachable, gate_loc(nl, g),
               "gate " + gate_name(nl, g) +
                   " is unreachable from every primary input and flop "
                   "output (constant or disconnected cone)");
    }
  }
  if (want_flops) {
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      const NetId d = nl.flop(f).d;
      if (net_reached[d]) continue;
      if (nl.net(d).driver_kind == DriverKind::kNone) continue;  // floating-d
      diag.add(rule::kFlopUnreachable, flop_loc(nl, f),
               "flop " + flop_name(nl, f) +
                   " captures from a cone with no primary input or flop "
                   "output (net '" + nl.net_name(d) + "')");
    }
  }
}

void check_dangling(const Netlist& nl, const Readers& rd, Diagnostics& diag) {
  if (!diag.rule_enabled(rule::kNetDangling)) return;
  // Only gate outputs: an unread flop Q is still scan-observable, and an
  // unconnected chip pin (PI) is benign.
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId n = nl.gate(g).out;
    if (nl.net(n).is_po) continue;
    if (!rd.gates(n).empty() || !rd.flops(n).empty()) continue;
    diag.add(rule::kNetDangling, net_loc(nl, n),
             "output '" + nl.net_name(n) + "' of gate " + gate_name(nl, g) +
                 " drives nothing and is not a primary output");
  }
}

/// A gate tagged block b but embedded entirely in another block's cone: all
/// of its tagged fanins (at least two) carry one common block != b, and every
/// reader of its output sits in that block too. Power accounting would then
/// bill the gate's switching to the wrong block.
void check_block_tags(const Netlist& nl, const Readers& rd,
                      Diagnostics& diag) {
  if (!diag.rule_enabled(rule::kBlockTagInconsistent)) return;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const BlockId mine = nl.gate(g).block;
    std::size_t tagged = 0;
    BlockId cone = 0;
    bool uniform = true;
    for (NetId in : nl.gate_inputs(g)) {
      const Net& nr = nl.net(in);
      BlockId b;
      if (nr.driver_kind == DriverKind::kGate) {
        b = nl.gate(nr.driver).block;
      } else if (nr.driver_kind == DriverKind::kFlop) {
        b = nl.flop(nr.driver).block;
      } else {
        continue;  // PI or undriven: no block
      }
      if (tagged == 0) cone = b;
      uniform = uniform && b == cone;
      ++tagged;
    }
    if (tagged < 2 || !uniform || cone == mine) continue;
    const NetId out = nl.gate(g).out;
    const auto gr = rd.gates(out);
    const auto fr = rd.flops(out);
    if (gr.empty() && fr.empty()) continue;
    bool readers_match = true;
    for (GateId r : gr) readers_match = readers_match && nl.gate(r).block == cone;
    for (FlopId r : fr) readers_match = readers_match && nl.flop(r).block == cone;
    if (!readers_match) continue;
    diag.add(rule::kBlockTagInconsistent, gate_loc(nl, g),
             "gate " + gate_name(nl, g) + " is tagged block " +
                 std::to_string(mine) + " but its whole cone (fanins and "
                 "readers) is block " + std::to_string(cone));
  }
}

/// Clock-domain crossing on launch/capture paths: propagate, per net, the set
/// of domains whose flop outputs reach it combinationally (monotone fixpoint,
/// so loops converge), then flag flops whose D cone carries a foreign domain.
void check_cdc(const Netlist& nl, const Readers& rd, Diagnostics& diag) {
  if (!diag.rule_enabled(rule::kCdcCombPath)) return;
  if (nl.domain_count() > 64) return;  // mask width; no design comes close
  std::vector<std::uint64_t> mask(nl.num_nets(), 0);
  std::vector<NetId> queue;
  std::vector<std::uint8_t> queued(nl.num_nets(), 0);
  auto push = [&](NetId n) {
    if (!queued[n]) {
      queued[n] = 1;
      queue.push_back(n);
    }
  };
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const NetId q = nl.flop(f).q;
    mask[q] |= 1ull << nl.flop(f).domain;
    push(q);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NetId n = queue[head];
    queued[n] = 0;
    for (GateId g : rd.gates(n)) {
      const NetId out = nl.gate(g).out;
      const std::uint64_t merged = mask[out] | mask[n];
      if (merged != mask[out]) {
        mask[out] = merged;
        push(out);
      }
    }
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const Flop& fr = nl.flop(f);
    const std::uint64_t foreign = mask[fr.d] & ~(1ull << fr.domain);
    if (foreign == 0) continue;
    std::string domains;
    for (int d = 0; d < 64; ++d) {
      if (foreign & (1ull << d)) {
        domains += (domains.empty() ? "" : ", ") + std::to_string(d);
      }
    }
    diag.add(rule::kCdcCombPath, flop_loc(nl, f),
             "flop " + flop_name(nl, f) + " (domain " +
                 std::to_string(fr.domain) +
                 ") captures a combinational path from domain(s) " + domains);
  }
}

}  // namespace

void check_structure(const Netlist& nl, Diagnostics& diag) {
  const Readers rd = Readers::build(nl);
  check_drivers(nl, rd, diag);
  check_comb_loops(nl, rd, diag);
  check_reachability(nl, rd, diag);
  check_dangling(nl, rd, diag);
  check_block_tags(nl, rd, diag);
  check_cdc(nl, rd, diag);
}

void check_scan_chains(const Netlist& nl,
                       std::span<const std::vector<FlopId>> chains,
                       Diagnostics& diag) {
  std::vector<std::uint32_t> seen(nl.num_flops(), 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    bool saw_pos = false;
    bool edge_reported = false;
    for (std::size_t i = 0; i < chains[c].size(); ++i) {
      const FlopId f = chains[c][i];
      if (f >= nl.num_flops()) {
        diag.add(rule::kScanBadFlop,
                 Location{"chain", static_cast<std::uint32_t>(c),
                          "chain" + std::to_string(c)},
                 "chain " + std::to_string(c) + " position " +
                     std::to_string(i) + " references flop id " +
                     std::to_string(f) + " but the netlist has " +
                     std::to_string(nl.num_flops()) + " flops");
        continue;
      }
      ++seen[f];
      if (nl.flop(f).neg_edge) {
        if (saw_pos && !edge_reported) {
          diag.add(rule::kScanEdgeOrder,
                   Location{"chain", static_cast<std::uint32_t>(c),
                            "chain" + std::to_string(c)},
                   "chain " + std::to_string(c) +
                       " places negative-edge flop b" +
                       std::to_string(nl.flop(f).block) + "_f" +
                       std::to_string(f) + " (position " + std::to_string(i) +
                       ") after positive-edge cells");
          edge_reported = true;  // one report per chain is enough
        }
      } else {
        saw_pos = true;
      }
    }
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (seen[f] == 0) {
      diag.add(rule::kScanMissingFlop,
               Location{"flop", f,
                        "b" + std::to_string(nl.flop(f).block) + "_f" +
                            std::to_string(f)},
               "flop b" + std::to_string(nl.flop(f).block) + "_f" +
                   std::to_string(f) + " is on no scan chain");
    } else if (seen[f] > 1) {
      diag.add(rule::kScanDuplicateFlop,
               Location{"flop", f,
                        "b" + std::to_string(nl.flop(f).block) + "_f" +
                            std::to_string(f)},
               "flop b" + std::to_string(nl.flop(f).block) + "_f" +
                   std::to_string(f) + " appears " + std::to_string(seen[f]) +
                   " times across the scan chains");
    }
  }
}

}  // namespace scap::lint
