#include "lint/static_power.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace scap::lint {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cap on the per-net toggle bound: sums over pins can grow geometrically
/// with depth; past this the count no longer fits exactly in a double and
/// parity rounding is skipped (the cap itself stays a valid upper bound
/// for the energy math, which saturates long before mattering).
constexpr double kToggleCap = 1e15;

/// Branch-free double select: the predicates in the screen's forward pass
/// (endpoint parity, rail split, STW commit) are close to uniformly random
/// per gate, so a conditional move beats a ~50% mispredicting branch. The
/// mask form compiles to and/or on the FP registers.
inline double select_d(bool c, double if_true, double if_false) {
  const std::uint64_t m = -static_cast<std::uint64_t>(c);
  const std::uint64_t bits = (std::bit_cast<std::uint64_t>(if_true) & m) |
                             (std::bit_cast<std::uint64_t>(if_false) & ~m);
  return std::bit_cast<double>(bits);
}

V3 v3_of_bit(std::uint8_t b) {
  return b == kBitX ? V3::x() : V3::of(b != 0);
}

}  // namespace

double StaticScapBound::block_scap_mw(std::size_t block) const {
  const double e = vdd_energy_pj.at(block) + vss_energy_pj.at(block);
  if (e <= 0.0) return 0.0;
  if (stw_lb_ns <= 0.0) return kInf;
  return e / stw_lb_ns;
}

double StaticScapBound::total_scap_mw() const {
  const double e = total_energy_pj();
  if (e <= 0.0) return 0.0;
  if (stw_lb_ns <= 0.0) return kInf;
  return e / stw_lb_ns;
}

bool StaticScapBound::certainly_clean(
    std::span<const double> block_thresholds_mw) const {
  const std::size_t nb =
      std::min(block_thresholds_mw.size(), vdd_energy_pj.size());
  for (std::size_t b = 0; b < nb; ++b) {
    if (block_scap_mw(b) > block_thresholds_mw[b]) return false;
  }
  return true;
}

StaticScapModel::StaticScapModel(const Netlist& nl,
                                 std::span<const double> net_energy_pj,
                                 std::span<const double> flop_arrival_ns,
                                 std::span<const double> gate_min_delay_ns)
    : nl_(&nl),
      view_(nl.levelized_view()),
      flop_arrival_ns_(flop_arrival_ns.begin(), flop_arrival_ns.end()) {
  if (!view_) {
    throw std::invalid_argument(
        "StaticScapModel: netlist must be finalized (cycle-free)");
  }
  if (net_energy_pj.size() != nl.num_nets() ||
      flop_arrival_ns.size() != nl.num_flops() ||
      gate_min_delay_ns.size() != nl.num_gates()) {
    throw std::invalid_argument("StaticScapModel: span size mismatch");
  }
  // Per-gate / per-flop extras in the view's schedule order, so the hot
  // loops take streaming loads instead of indexing per-net tables. A net's
  // block is its driver's (ScapCalculator's attribution, sim/scap.cpp).
  const LevelizedView& v = *view_;
  const std::size_t ng = v.num_gates();
  g_cv_.reserve(ng);
  g_delay_.reserve(ng);
  g_energy_.reserve(ng);
  g_block_.reserve(ng);
  for (std::uint32_t i = 0; i < ng; ++i) {
    const GateId g = v.gate_at(i);
    const Gate& gr = nl.gate(g);
    g_cv_.push_back(static_cast<std::int8_t>(controlling_value(gr.type)));
    g_delay_.push_back(gate_min_delay_ns[g]);
    g_energy_.push_back(net_energy_pj[gr.out]);
    g_block_.push_back(gr.block);
  }
  f_energy_.reserve(nl.num_flops());
  f_block_.reserve(nl.num_flops());
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    f_energy_.push_back(net_energy_pj[nl.flop(f).q]);
    f_block_.push_back(nl.flop(f).block);
  }
}

const StaticScapBound& StaticScapModel::screen(const TestContext& ctx,
                                               const Pattern& pattern) const {
  return screen_vars(ctx, pattern.s1);
}

const StaticScapBound& StaticScapModel::screen_cube(const TestContext& ctx,
                                                    const TestCube& cube,
                                                    FillMode fill) const {
  if (fill == FillMode::kFill0 || fill == FillMode::kFill1) {
    const std::uint8_t v = fill == FillMode::kFill1 ? 1 : 0;
    fill_bits_.assign(cube.s1.begin(), cube.s1.end());
    for (auto& b : fill_bits_) {
      if (b == kBitX) b = v;
    }
    return screen_vars(ctx, fill_bits_);
  }
  return screen_vars(ctx, cube.s1);  // X stays X: conservative for any fill
}

const StaticScapBound& StaticScapModel::screen_vars(
    const TestContext& ctx, std::span<const std::uint8_t> vars) const {
  const Netlist& nl = *nl_;
  const std::size_t nn = nl.num_nets();
  const std::size_t nf = nl.num_flops();
  if (vars.size() < ctx.num_vars()) {
    throw std::invalid_argument("StaticScapModel: vars shorter than num_vars");
  }

  // The view's schedule in compact net ids; the pointers are hoisted because
  // the byte-sized V3 stores may alias anything the loops would reload.
  const LevelizedView& v = *view_;
  const std::size_t ng = v.num_gates();
  const CellType* types = v.gate_types();
  const std::uint8_t* nins = v.gate_nins();
  const NetId* outs = v.gate_outs();
  const NetId* gin = v.gate_ins();
  const std::uint32_t* off = v.gate_in_offsets();
  const NetId* fq = v.f_q();
  const NetId* fd = v.f_d();
  const std::span<const NetId> pis = v.pi_nets();

  // -- frame 1: 3-valued settle of the scanned state ------------------------
  value1_.assign(nn, V3::x());
  for (std::size_t i = 0; i < pis.size() && i < ctx.pi_values.size(); ++i) {
    value1_[pis[i]] = V3::of(ctx.pi_values[i] != 0);
  }
  for (FlopId f = 0; f < nf; ++f) {
    value1_[fq[f]] = v3_of_bit(vars[f]);
  }
  V3* set1 = value1_.data();
  for (std::size_t i = 0; i < ng; ++i) {
    const NetId* ins = gin + off[i];
    set1[outs[i]] = eval_v3(types[i], [&](int k) { return set1[ins[k]]; });
  }

  // -- launch set (mirrors PatternAnalyzer::build_launch) -------------------
  value2_.assign(value1_.begin(), value1_.end());
  // ta_ is initialized once, not per screen: every flop Q entry is written
  // by the launch loop below and every gate output entry by the forward
  // pass (including its skip paths), while PI / undriven nets keep their
  // {0, +inf} from this first fill forever (they are never written and
  // never toggle).
  if (ta_.size() != 2 * nn) {
    ta_.assign(2 * nn, 0.0);
    for (std::size_t n = 0; n < nn; ++n) ta_[2 * n + 1] = kInf;
  }
  double* ta = ta_.data();
  StaticScapBound& out = bound_;
  out.certain_launches = 0;
  out.possible_launches = 0;
  out.vdd_energy_pj.assign(nl.block_count(), 0.0);
  out.vss_energy_pj.assign(nl.block_count(), 0.0);
  out.vdd_energy_total_pj = 0.0;
  out.vss_energy_total_pj = 0.0;
  out.toggle_bound = 0.0;
  double first_ub = kInf;   // upper bound on the first committed toggle
  double last_lb = -kInf;   // lower bound on the last committed toggle
  const bool explicit_s2 = ctx.explicit_s2();
  for (FlopId f = 0; f < nf; ++f) {
    const NetId q = fq[f];
    const V3 s1 = v3_of_bit(vars[f]);
    V3 s2;
    if (explicit_s2) {
      s2 = v3_of_bit(vars[ctx.los_pred[f]]);
    } else if (ctx.active[f]) {
      s2 = value1_[fd[f]];
    } else {
      ta[2 * q] = 0.0;
      ta[2 * q + 1] = kInf;
      continue;
    }
    value2_[q] = s2;  // the post-launch Q value, launched or not
    const bool known = !s1.is_x() && !s2.is_x();
    if (known && s1 == s2) {
      ta[2 * q] = 0.0;
      ta[2 * q + 1] = kInf;
      continue;
    }
    const double arr = flop_arrival_ns_[f];
    if (known) {
      ++out.certain_launches;
      first_ub = std::min(first_ub, arr);
      last_lb = std::max(last_lb, arr);
    }
    ++out.possible_launches;
    ta[2 * q] = 1.0;
    ta[2 * q + 1] = arr;
    // The single launch toggle's rail: rising when s1 is 0, falling when 1,
    // either when X.
    const double e = f_energy_[f];
    const BlockId b = f_block_[f];
    out.toggle_bound += 1.0;
    if (s1.is_x()) {
      out.vdd_energy_pj[b] += e;
      out.vdd_energy_total_pj += e;
      out.vss_energy_pj[b] += e;
      out.vss_energy_total_pj += e;
    } else if (s1.is0()) {
      out.vdd_energy_pj[b] += e;
      out.vdd_energy_total_pj += e;
    } else {
      out.vss_energy_pj[b] += e;
      out.vss_energy_total_pj += e;
    }
  }

  // -- forward pass: frame-2 values, toggle bounds, min-delay arrivals ------
  // A gate with no toggling input is skipped outright: its inputs' frame-2
  // values equal frame 1 (t = 0 implies value2 == value1, inductively from
  // the launch set), so its output cannot change (value2_ already holds
  // value1_), its toggle bound is 0 (already assigned), and no transition
  // can traverse it -- which also means arrival relaxation only needs to
  // consider inputs that can actually toggle.
  // Each gate's output net is final the moment the gate is processed (one
  // driver per net), so the per-block rail energies and the STW extension
  // accumulate right here instead of in a second whole-netlist sweep.
  const bool bound_stw = out.certain_launches > 0;
  double* vdd = out.vdd_energy_pj.data();
  double* vss = out.vss_energy_pj.data();
  // Local accumulators: totals written through `out` would otherwise be
  // assumed to alias the vdd/vss stores and bounce through memory per gate.
  double tb_acc = out.toggle_bound;
  double vdd_acc = out.vdd_energy_total_pj;
  double vss_acc = out.vss_energy_total_pj;
  const V3* val1 = value1_.data();
  V3* val2 = value2_.data();
  for (std::size_t i = 0; i < ng; ++i) {
    const NetId* ins = gin + off[i];
    const std::size_t nin = nins[i];
    // One scan over the inputs: toggle-sum, controlling-stable check, and
    // arrival relaxation, all from the same loads (toggle and arrival share
    // a cache line by construction). Every write path keeps the invariant
    // "toggle bound 0 => stored arrival kInf", so relaxing over raw arrivals
    // is already restricted to toggling inputs -- no per-input select.
    const int cv = g_cv_[i];
    const NetId gout = outs[i];
    double tin = 0.0;
    unsigned pinned = 0;
    double a = kInf;
    // Stable controlling input: quiet, known (not 0b11), value bit == cv.
    // Only gates with a controlling value pay for the check; the variant
    // branch follows the (level, type)-sorted schedule and predicts.
    const auto scan_in = [&](NetId in) {
      const double tk = ta[2 * in];
      tin += tk;
      a = std::min(a, ta[2 * in + 1]);
      const unsigned vb = val1[in].bits;
      pinned |= static_cast<unsigned>(tk == 0.0) &
                static_cast<unsigned>(vb != 0b11U) &
                static_cast<unsigned>(static_cast<int>(vb >> 1U) == cv);
    };
    const auto scan_in_nocv = [&](NetId in) {
      tin += ta[2 * in];
      a = std::min(a, ta[2 * in + 1]);
    };
    // Specialized by arity: one- and two-input cells dominate every library
    // netlist, and the fixed-count bodies let the loads of both input pairs
    // issue in parallel instead of through loop control.
    if (cv >= 0) {
      if (nin == 2) {
        scan_in(ins[0]);
        scan_in(ins[1]);
      } else {
        for (std::size_t k = 0; k < nin; ++k) scan_in(ins[k]);
      }
    } else if (nin == 2) {
      scan_in_nocv(ins[0]);
      scan_in_nocv(ins[1]);
    } else if (nin == 1) {
      scan_in_nocv(ins[0]);
    } else {
      for (std::size_t k = 0; k < nin; ++k) scan_in_nocv(ins[k]);
    }
    // Quiet cone or a stable controlling input: the output cannot change
    // (value2_ already holds value1_) and its toggle bound stays 0.
    if (tin == 0.0 || pinned != 0) {
      ta[2 * gout] = 0.0;
      ta[2 * gout + 1] = kInf;
      continue;
    }

    const CellType type = types[i];
    const V3 v2 = eval_v3(type, [&](int k) { return val2[ins[k]]; });
    val2[gout] = v2;

    double t;
    if (type == CellType::kMux2 && ta[2 * ins[0]] == 0.0 &&
        !val1[ins[0]].is_x()) {
      t = ta[2 * ins[val1[ins[0]].value() ? 2 : 1]];
    } else {
      t = std::min(tin, kToggleCap);
    }
    const V3 v1 = val1[gout];
    const bool endpoints_known = !v1.is_x() && !v2.is_x();
    const bool differs = v1.bits != v2.bits;
    {
      // Commit-count parity must match whether the endpoints differ. Below
      // the cap the bound is an exact integer, so parity is a bit test; the
      // int->double conversion keeps the adjustment branch-free.
      const bool odd = (static_cast<std::uint64_t>(t) & 1U) != 0;
      const unsigned dec = static_cast<unsigned>(t >= 1.0) &
                           static_cast<unsigned>(t < kToggleCap) &
                           static_cast<unsigned>(endpoints_known) &
                           static_cast<unsigned>(odd == !differs);
      t -= static_cast<double>(dec);
    }
    ta[2 * gout] = t;
    // a == +inf propagates to arr == +inf; a parity-killed t masks the
    // arrival (the net provably does not toggle). The entry must be written
    // either way -- it may hold a stale value from the previous screen.
    const double arr = t > 0.0 ? a + g_delay_[i] : kInf;
    ta[2 * gout + 1] = arr;
    if (t <= 0.0) continue;

    tb_acc += t;
    const double e = g_energy_[i];
    const BlockId b = g_block_[i];
    double rise;
    double fall;
    if (t < kToggleCap) {
      // Exact-integer bound: split by parity without ceil/floor. Toggles
      // alternate starting opposite the initial value; an X start charges
      // the high half to both rails. All-integer so no rail select branches
      // on the (random) initial value.
      const std::uint64_t tt = static_cast<std::uint64_t>(t);
      const std::uint64_t half_hi = (tt + 1) >> 1U;
      const std::uint64_t rise_i =
          (tt >> 1U) +
          ((tt & 1ULL) & static_cast<std::uint64_t>(v1.bits != 0b10U));
      const std::uint64_t fall_i =
          v1.bits == 0b11U ? half_hi : tt - rise_i;
      rise = static_cast<double>(rise_i);
      fall = static_cast<double>(fall_i);
    } else {
      // Saturated bound: the parity split no longer matters at this scale.
      rise = std::ceil(t / 2.0);
      fall = v1.is_x() ? rise : t - rise;
    }
    vdd[b] += rise * e;
    vdd_acc += rise * e;
    vss[b] += fall * e;
    vss_acc += fall * e;
    // Guaranteed a final commit, no earlier than its min-delay arrival.
    const bool commits = bound_stw && endpoints_known && differs && arr < kInf;
    last_lb = std::max(last_lb, select_d(commits, arr, -kInf));
  }
  out.toggle_bound = tb_acc;
  out.vdd_energy_total_pj = vdd_acc;
  out.vss_energy_total_pj = vss_acc;
  if (bound_stw) {
    out.stw_lb_ns = std::max(0.0, last_lb - first_ub);
  } else {
    out.stw_lb_ns = 0.0;  // window not boundable: SCAP degrades to +inf
  }
  return out;
}

}  // namespace scap::lint
