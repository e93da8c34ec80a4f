#include "ref/ref_models.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace scap::ref {

std::uint8_t ref_eval_cell(CellType t, std::span<const std::uint8_t> ins) {
  auto all = [&]() {
    for (std::uint8_t v : ins) {
      if (!v) return false;
    }
    return true;
  };
  auto any = [&]() {
    for (std::uint8_t v : ins) {
      if (v) return true;
    }
    return false;
  };
  switch (t) {
    case CellType::kTie0:
      return 0;
    case CellType::kTie1:
      return 1;
    case CellType::kBuf:
    case CellType::kClkBuf:
    case CellType::kDff:
      return ins[0] ? 1 : 0;
    case CellType::kInv:
      return ins[0] ? 0 : 1;
    case CellType::kAnd2:
    case CellType::kAnd3:
    case CellType::kAnd4:
      return all() ? 1 : 0;
    case CellType::kNand2:
    case CellType::kNand3:
    case CellType::kNand4:
      return all() ? 0 : 1;
    case CellType::kOr2:
    case CellType::kOr3:
    case CellType::kOr4:
      return any() ? 1 : 0;
    case CellType::kNor2:
    case CellType::kNor3:
    case CellType::kNor4:
      return any() ? 0 : 1;
    case CellType::kXor2:
      return (ins[0] != 0) != (ins[1] != 0) ? 1 : 0;
    case CellType::kXnor2:
      return (ins[0] != 0) == (ins[1] != 0) ? 1 : 0;
    case CellType::kMux2:
      return (ins[0] ? ins[2] : ins[1]) ? 1 : 0;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// EventSimRef
// ---------------------------------------------------------------------------

SimTrace EventSimRef::run(std::span<const std::uint8_t> initial_net_values,
                          std::span<const Stimulus> stimuli) const {
  const Netlist& nl = *nl_;

  std::vector<std::uint8_t> value(initial_net_values.begin(),
                                  initial_net_values.end());

  // Global commit order: (time, stamp) -> net. Per net, the live pending
  // output events sorted by time. Cancellation erases from both, so -- unlike
  // the optimized engine's stale-heap-entry scheme -- every queue entry is
  // live when popped.
  struct PendingValue {
    std::uint64_t stamp;
    std::uint8_t value;
  };
  std::map<std::pair<double, std::uint64_t>, NetId> queue;
  std::vector<std::map<double, PendingValue>> pending(nl.num_nets());

  std::uint64_t stamp = 0;
  std::size_t cancelled = 0;
  std::size_t live_pops = 0;

  auto schedule = [&](NetId net, double t, std::uint8_t v) {
    auto& pl = pending[net];
    // Transport semantics: a re-evaluation at time t supersedes every pending
    // event on the net at times >= t.
    for (auto it = pl.lower_bound(t); it != pl.end();) {
      queue.erase({it->first, it->second.stamp});
      it = pl.erase(it);
      ++cancelled;
    }
    pl.emplace(t, PendingValue{stamp, v});
    queue.emplace(std::make_pair(t, stamp), net);
    ++stamp;
  };

  for (const Stimulus& s : stimuli) schedule(s.net, s.t_ns, s.value);

  SimTrace trace;
  std::size_t num_toggles = 0;
  std::array<std::uint8_t, kMaxGateInputs> ins{};

  while (!queue.empty()) {
    const auto it = queue.begin();
    const double t = it->first.first;
    const std::uint64_t st = it->first.second;
    const NetId net = it->second;
    queue.erase(it);
    ++live_pops;

    auto& pl = pending[net];
    const auto pit = pl.find(t);
    if (pit == pl.end() || pit->second.stamp != st) {
      throw std::logic_error("EventSimRef: queue/pending desync");
    }
    const std::uint8_t v = pit->second.value;
    pl.erase(pit);

    if (value[net] == v) continue;
    value[net] = v;
    if (num_toggles == 0) trace.first_toggle_ns = t;
    ++num_toggles;
    trace.last_toggle_ns = std::max(trace.last_toggle_ns, t);
    trace.toggles.push_back(ToggleEvent{net, static_cast<float>(t), v != 0});

    for (GateId g : nl.fanout_gates(net)) {
      const auto in_nets = nl.gate_inputs(g);
      for (std::size_t i = 0; i < in_nets.size(); ++i) {
        ins[i] = value[in_nets[i]];
      }
      const std::uint8_t out = ref_eval_cell(
          nl.gate(g).type,
          std::span<const std::uint8_t>(ins.data(), in_nets.size()));
      const double d = out ? dm_->rise_ns(g) : dm_->fall_ns(g);
      schedule(nl.gate(g).out, t + d, out);
    }
  }

  // The optimized engine pops every scheduled heap entry (stale ones count as
  // processed and cancelled); here every schedule is either popped live or
  // erased by cancellation, so the totals match by construction.
  trace.num_events_processed = live_pops + cancelled;
  trace.num_events_cancelled = cancelled;
  return trace;
}

// ---------------------------------------------------------------------------
// scap_ref
// ---------------------------------------------------------------------------

namespace {

/// Compensated (Kahan) accumulator: the reference sums must be closer to the
/// exact sum than the plain-double production accumulators they audit.
struct KahanSum {
  double sum = 0.0;
  double carry = 0.0;
  void add(double x) {
    const double y = x - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
};

BlockId driver_block(const Netlist& nl, NetId n) {
  const Net& nr = nl.net(n);
  switch (nr.driver_kind) {
    case DriverKind::kGate:
      return nl.gate(nr.driver).block;
    case DriverKind::kFlop:
      return nl.flop(nr.driver).block;
    default:
      return 0;
  }
}

}  // namespace

ScapReport scap_ref(const Netlist& nl, const Parasitics& par,
                    const TechLibrary& lib, const SimTrace& trace,
                    double period_ns) {
  ScapReport rep;
  rep.period_ns = period_ns;
  rep.num_toggles = trace.toggles.size();

  // STW recomputed from the toggle list itself (float timestamps), not
  // trusted from the trace header.
  double first = 0.0, last = 0.0;
  bool seen = false;
  for (const ToggleEvent& t : trace.toggles) {
    const double tt = static_cast<double>(t.t_ns);
    if (!seen) {
      first = last = tt;
      seen = true;
    } else {
      first = std::min(first, tt);
      last = std::max(last, tt);
    }
  }
  rep.stw_ns = seen ? last - first : 0.0;

  const std::size_t blocks = nl.block_count();
  std::vector<KahanSum> vdd(blocks), vss(blocks);
  KahanSum vdd_total, vss_total;
  for (const ToggleEvent& t : trace.toggles) {
    // E = C * VDD^2, the paper's per-toggle energy term, written out.
    const double e = par.net_load_pf(t.net) * lib.vdd() * lib.vdd();
    const BlockId b = driver_block(nl, t.net);
    if (t.rising) {
      vdd[b].add(e);
      vdd_total.add(e);
    } else {
      vss[b].add(e);
      vss_total.add(e);
    }
  }
  rep.vdd_energy_pj.resize(blocks);
  rep.vss_energy_pj.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    rep.vdd_energy_pj[b] = vdd[b].sum;
    rep.vss_energy_pj[b] = vss[b].sum;
  }
  rep.vdd_energy_total_pj = vdd_total.sum;
  rep.vss_energy_total_pj = vss_total.sum;
  return rep;
}

// ---------------------------------------------------------------------------
// fault_grade_ref
// ---------------------------------------------------------------------------

namespace {

/// Stuck value forced during a faulty frame evaluation: the whole net for
/// stem faults, one gate input pin for branch faults.
struct ForcedStuck {
  NetId stem_net = kNullId;
  GateId branch_gate = kNullId;
  std::uint8_t branch_pin = 0;
  std::uint8_t value = 0;
};

/// Full-netlist fixpoint evaluation: sweep every gate until nothing changes.
/// Convergence within max_level sweeps is guaranteed on the acyclic core; the
/// generous cap turns a (impossible) cycle into a loud failure.
std::vector<std::uint8_t> eval_frame_fixpoint(const Netlist& nl,
                                              std::span<const std::uint8_t> flop_q,
                                              std::span<const std::uint8_t> pi,
                                              const ForcedStuck* forced) {
  std::vector<std::uint8_t> value(nl.num_nets(), 0);
  const auto pis = nl.primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) value[pis[i]] = pi[i] & 1;
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    value[nl.flop(f).q] = flop_q[f] & 1;
  }
  if (forced && forced->stem_net != kNullId) {
    value[forced->stem_net] = forced->value;
  }

  std::array<std::uint8_t, kMaxGateInputs> ins{};
  bool changed = true;
  std::size_t sweeps = 0;
  while (changed) {
    if (++sweeps > nl.num_gates() + 2) {
      throw std::logic_error("ref: frame fixpoint did not converge");
    }
    changed = false;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const auto in_nets = nl.gate_inputs(g);
      for (std::size_t i = 0; i < in_nets.size(); ++i) {
        ins[i] = value[in_nets[i]];
      }
      if (forced && forced->branch_gate == g) {
        ins[forced->branch_pin] = forced->value;
      }
      const NetId out_net = nl.gate(g).out;
      if (forced && forced->stem_net == out_net) continue;  // stuck stays put
      const std::uint8_t out = ref_eval_cell(
          nl.gate(g).type,
          std::span<const std::uint8_t>(ins.data(), in_nets.size()));
      if (value[out_net] != out) {
        value[out_net] = out;
        changed = true;
      }
    }
  }
  return value;
}

}  // namespace

std::vector<std::uint8_t> eval_frame_ref(const Netlist& nl,
                                         std::span<const std::uint8_t> flop_q,
                                         std::span<const std::uint8_t> pi) {
  if (flop_q.size() != nl.num_flops() ||
      pi.size() != nl.primary_inputs().size()) {
    throw std::invalid_argument("ref: eval_frame_ref input size mismatch");
  }
  return eval_frame_fixpoint(nl, flop_q, pi, nullptr);
}

std::vector<std::size_t> fault_grade_ref(const Netlist& nl,
                                         const TestContext& ctx,
                                         std::span<const Pattern> patterns,
                                         std::span<const TdfFault> faults) {
  std::vector<std::size_t> first(faults.size(), kRefUndetected);
  std::size_t remaining = faults.size();

  std::vector<std::uint8_t> s1(nl.num_flops()), s2(nl.num_flops());
  for (std::size_t pat = 0; pat < patterns.size() && remaining > 0; ++pat) {
    const auto& bits = patterns[pat].s1;
    for (FlopId f = 0; f < nl.num_flops(); ++f) s1[f] = bits[f] & 1;
    const auto frame1 = eval_frame_fixpoint(nl, s1, ctx.pi_values, nullptr);
    // Launch state: the functional response for LOC, explicit test variables
    // for LOS / enhanced scan.
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (ctx.explicit_s2()) {
        s2[f] = bits[ctx.los_pred[f]] & 1;
      } else {
        s2[f] = ctx.active[f] ? frame1[nl.flop(f).d] : s1[f];
      }
    }
    const auto frame2 = eval_frame_fixpoint(nl, s2, ctx.pi_values, nullptr);

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (first[fi] != kRefUndetected) continue;  // fault dropping
      const TdfFault& fault = faults[fi];
      // Launch condition: v1 before the launch pulse, fault-free v2 after.
      if (frame1[fault.net] != static_cast<std::uint8_t>(fault.v1())) continue;
      if (frame2[fault.net] != static_cast<std::uint8_t>(fault.v2())) continue;

      bool detected = false;
      if (fault.site == FaultSite::kFlopBranch) {
        // The late transition is sampled directly by the load flop.
        detected = ctx.active[fault.load] != 0;
      } else {
        ForcedStuck fs;
        fs.value = static_cast<std::uint8_t>(fault.v1());
        if (fault.site == FaultSite::kStem) {
          fs.stem_net = fault.net;
        } else {
          fs.branch_gate = fault.load;
          fs.branch_pin = fault.pin;
        }
        const auto faulty = eval_frame_fixpoint(nl, s2, ctx.pi_values, &fs);
        for (FlopId f = 0; f < nl.num_flops() && !detected; ++f) {
          if (!ctx.active[f]) continue;
          detected = faulty[nl.flop(f).d] != frame2[nl.flop(f).d];
        }
      }
      if (detected) {
        first[fi] = pat;
        --remaining;
      }
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// grid_solve_ref
// ---------------------------------------------------------------------------

namespace {

std::uint32_t ref_nearest_node(const Rect& die, std::uint32_t nx,
                               std::uint32_t ny, Point p) {
  const double fx = (p.x - die.x0) / die.width() * (nx - 1);
  const double fy = (p.y - die.y0) / die.height() * (ny - 1);
  const auto ix = static_cast<std::uint32_t>(
      std::clamp(std::lround(fx), 0l, static_cast<long>(nx - 1)));
  const auto iy = static_cast<std::uint32_t>(
      std::clamp(std::lround(fy), 0l, static_cast<long>(ny - 1)));
  return iy * nx + ix;
}

}  // namespace

GridSolution grid_solve_ref(const Floorplan& fp, const PowerGridOptions& opt,
                            std::span<const Point> where,
                            std::span<const double> amps, bool vdd_rail,
                            std::size_t max_sweeps) {
  const std::uint32_t nx = opt.nx, ny = opt.ny;
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  const Rect die = fp.die();
  const double gseg = 1.0 / opt.segment_res_ohm;
  const double gpad = 1.0 / opt.pad_res_ohm;

  std::vector<double> pad_g(n, 0.0);
  for (const PowerPad& pad : fp.pads()) {
    if (pad.is_vdd != vdd_rail) continue;
    pad_g[ref_nearest_node(die, nx, ny, pad.pos)] += gpad;
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < where.size(); ++i) {
    b[ref_nearest_node(die, nx, ny, where[i])] += amps[i];
  }

  GridSolution sol;
  sol.nx = nx;
  sol.ny = ny;
  sol.die = die;
  sol.drop_v.assign(n, 0.0);
  std::vector<double>& d = sol.drop_v;

  // Converge well past the production tolerance so comparator slack only has
  // to absorb the production solver's truncation.
  const double tol = std::max(opt.tolerance_v * 1e-2, 1e-13);

  auto neighbors = [&](std::size_t i, std::array<std::size_t, 4>& out) {
    const std::uint32_t ix = static_cast<std::uint32_t>(i) % nx;
    const std::uint32_t iy = static_cast<std::uint32_t>(i) / nx;
    std::size_t cnt = 0;
    if (ix > 0) out[cnt++] = i - 1;
    if (ix + 1 < nx) out[cnt++] = i + 1;
    if (iy > 0) out[cnt++] = i - nx;
    if (iy + 1 < ny) out[cnt++] = i + nx;
    return cnt;
  };

  if (n <= kDenseNodeLimit) {
    // Dense assembly of sum_j g_ij (d_i - d_j) + g_pad,i d_i = I_i, then
    // natural-order Gauss-Seidel on the full matrix.
    std::vector<std::vector<double>> A(n, std::vector<double>(n, 0.0));
    std::array<std::size_t, 4> nb{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cnt = neighbors(i, nb);
      A[i][i] = pad_g[i] + gseg * static_cast<double>(cnt);
      for (std::size_t k = 0; k < cnt; ++k) A[i][nb[k]] = -gseg;
    }
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) acc -= A[i][j] * d[j];
        }
        const double next = acc / A[i][i];
        max_delta = std::max(max_delta, std::abs(next - d[i]));
        d[i] = next;
      }
      sol.iterations = static_cast<std::uint32_t>(sweep + 1);
      sol.final_delta_v = max_delta;
      if (max_delta < tol) {
        sol.converged = true;
        break;
      }
    }
  } else {
    // Same equations via the 5-point stencil, still plain natural-order
    // Gauss-Seidel (no relaxation, no coloring, no threads).
    std::array<std::size_t, 4> nb{};
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t cnt = neighbors(i, nb);
        double gsum = pad_g[i] + gseg * static_cast<double>(cnt);
        double flow = b[i];
        for (std::size_t k = 0; k < cnt; ++k) flow += gseg * d[nb[k]];
        const double next = flow / gsum;
        max_delta = std::max(max_delta, std::abs(next - d[i]));
        d[i] = next;
      }
      sol.iterations = static_cast<std::uint32_t>(sweep + 1);
      sol.final_delta_v = max_delta;
      if (max_delta < tol) {
        sol.converged = true;
        break;
      }
    }
  }
  return sol;
}

GridSolution grid_solve_ref(const Rect& die, const PdnTopology& topo,
                            const PowerGridOptions& opt,
                            std::span<const Point> where,
                            std::span<const double> amps, bool vdd_rail,
                            std::size_t max_sweeps) {
  const std::uint32_t nx = topo.nx, ny = topo.ny;
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  const std::vector<double>& pad_g = vdd_rail ? topo.vdd_pad_g : topo.vss_pad_g;

  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < where.size(); ++i) {
    b[topo.snap[ref_nearest_node(die, nx, ny, where[i])]] += amps[i];
  }

  GridSolution sol;
  sol.nx = nx;
  sol.ny = ny;
  sol.die = die;
  sol.drop_v.assign(n, 0.0);
  std::vector<double>& d = sol.drop_v;

  // Per-node conductance row: diagonal and up-to-4 neighbour couplings from
  // the topology's edge arrays (edges at 0 siemens do not couple).
  auto row = [&](std::size_t i, std::array<std::size_t, 4>& nb,
                 std::array<double, 4>& g) {
    const std::uint32_t ix = static_cast<std::uint32_t>(i) % nx;
    const std::uint32_t iy = static_cast<std::uint32_t>(i) / nx;
    std::size_t cnt = 0;
    auto add = [&](std::size_t j, double gj) {
      if (gj > 0.0) {
        nb[cnt] = j;
        g[cnt++] = gj;
      }
    };
    if (ix > 0) add(i - 1, topo.g_h[iy * (nx - 1) + (ix - 1)]);
    if (ix + 1 < nx) add(i + 1, topo.g_h[iy * (nx - 1) + ix]);
    if (iy > 0) add(i - nx, topo.g_v[(iy - 1) * nx + ix]);
    if (iy + 1 < ny) add(i + nx, topo.g_v[iy * nx + ix]);
    return cnt;
  };

  if (topo.active_nodes <= kDenseNodeLimit) {
    // Exact direct solve: dense assembly over the active nodes, LU with
    // partial pivoting, forward/back substitution. No iteration truncation.
    std::vector<std::size_t> id(n, n);
    std::vector<std::size_t> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      if (topo.active[i]) {
        id[i] = nodes.size();
        nodes.push_back(i);
      }
    }
    const std::size_t m = nodes.size();
    std::vector<std::vector<double>> A(m, std::vector<double>(m, 0.0));
    std::vector<double> rhs(m, 0.0);
    std::array<std::size_t, 4> nb{};
    std::array<double, 4> g{};
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t i = nodes[r];
      const std::size_t cnt = row(i, nb, g);
      double diag = pad_g[i];
      for (std::size_t k = 0; k < cnt; ++k) {
        diag += g[k];
        if (id[nb[k]] < n) A[r][id[nb[k]]] = -g[k];
      }
      A[r][r] = diag;
      rhs[r] = b[i];
    }
    for (std::size_t k = 0; k < m; ++k) {
      std::size_t p = k;
      for (std::size_t r = k + 1; r < m; ++r) {
        if (std::abs(A[r][k]) > std::abs(A[p][k])) p = r;
      }
      if (p != k) {
        std::swap(A[p], A[k]);
        std::swap(rhs[p], rhs[k]);
      }
      if (std::abs(A[k][k]) < 1e-300) {
        throw std::runtime_error("grid_solve_ref: singular irregular system");
      }
      for (std::size_t r = k + 1; r < m; ++r) {
        const double f = A[r][k] / A[k][k];
        if (f == 0.0) continue;
        for (std::size_t c = k; c < m; ++c) A[r][c] -= f * A[k][c];
        rhs[r] -= f * rhs[k];
      }
    }
    for (std::size_t k = m; k-- > 0;) {
      double acc = rhs[k];
      for (std::size_t c = k + 1; c < m; ++c) acc -= A[k][c] * rhs[c];
      rhs[k] = acc / A[k][k];
    }
    for (std::size_t r = 0; r < m; ++r) d[nodes[r]] = rhs[r];
    sol.iterations = 1;
    sol.final_delta_v = 0.0;
    sol.converged = true;
  } else {
    // Natural-order Gauss-Seidel on the per-edge stencil, converged an
    // order of magnitude past the production tolerance.
    const double tol = std::max(opt.tolerance_v * 1e-2, 1e-13);
    std::array<std::size_t, 4> nb{};
    std::array<double, 4> g{};
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!topo.active[i]) continue;
        const std::size_t cnt = row(i, nb, g);
        double gsum = pad_g[i];
        double flow = b[i];
        for (std::size_t k = 0; k < cnt; ++k) {
          gsum += g[k];
          flow += g[k] * d[nb[k]];
        }
        const double next = flow / gsum;
        max_delta = std::max(max_delta, std::abs(next - d[i]));
        d[i] = next;
      }
      sol.iterations = static_cast<std::uint32_t>(sweep + 1);
      sol.final_delta_v = max_delta;
      if (max_delta < tol) {
        sol.converged = true;
        break;
      }
    }
  }
  return sol;
}

}  // namespace scap::ref
