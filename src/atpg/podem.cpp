#include "atpg/podem.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/rng.h"

namespace scap {

/// The part of a gate one evaluation and one enqueue read, in 16 bytes.
struct PodemGate {
  std::uint32_t in_begin = 0;  ///< first input in PodemTables::ins
  NetId out = kNullId;
  std::uint32_t level = 0;
  CellType type = CellType::kBuf;
  std::uint8_t n_in = 0;
  /// Output statically observable: the gate may join the D-frontier.
  std::uint8_t admit = 0;
};

struct PodemTables {
  const Netlist* nl = nullptr;
  const TestContext* ctx = nullptr;
  std::vector<PodemGate> gates;
  std::vector<NetId> ins;
  /// Gate fanouts of net n: fo[fo_off[n] .. fo_off[n+1]), in the Netlist's
  /// fanout order (a gate once per connected pin).
  std::vector<std::uint32_t> fo_off;
  std::vector<GateId> fo;
  /// LOC: the Q nets of the active flops whose D is net n, in the Netlist's
  /// flop-fanout order: cap_q[cap_off[n] .. cap_off[n+1]). Empty when S2
  /// comes from launch variables.
  std::vector<std::uint32_t> cap_off;
  std::vector<NetId> cap_q;
  /// Explicit S2: per variable, the flop it feeds at launch (or kNullId).
  std::vector<FlopId> los_succ;
  std::vector<std::uint32_t> obs_weight;  ///< active flop D loads per net
  std::vector<std::uint8_t> observable;   ///< observable_nets()
  /// Key (frame * keys_per_frame + level) -> first slot of its bucket; a
  /// bucket holds at most one entry per gate of its level. One extra entry
  /// closes the last bucket.
  std::vector<std::uint32_t> bucket_base;
  std::uint32_t keys_per_frame = 0;
  std::uint32_t num_gates = 0;
  /// Planes under the all-X assignment with no fault installed.
  std::vector<V3> allx_f1;
  std::vector<std::uint8_t> allx_f2;
};

namespace {

/// Per-call backtrace salt: a hash of the fault and the run seed. A salt
/// carried over from earlier calls would make each search depend on every
/// search before it; a seedless one would repeat the same failed search
/// when a later run re-targets an aborted fault.
std::size_t call_salt(const TdfFault& f, std::uint64_t seed) {
  std::uint64_t s = seed ^ ((std::uint64_t{f.net} << 32) | f.load);
  s = splitmix64(s) ^ ((std::uint64_t{f.pin} << 16) |
                       (static_cast<std::uint64_t>(f.site) << 8) |
                       static_cast<std::uint64_t>(f.type));
  return static_cast<std::size_t>(splitmix64(s));
}

// Frame-2 lanes: fault-free value in bits 0-1, faulty value in bits 2-3.
constexpr V3 good(std::uint8_t lanes) {
  return V3{static_cast<std::uint8_t>(lanes & 0b11)};
}
constexpr V3 faulty(std::uint8_t lanes) {
  return V3{static_cast<std::uint8_t>(lanes >> 2)};
}
/// The same value in both lanes.
constexpr std::uint8_t both(V3 v) {
  return static_cast<std::uint8_t>(v.bits * 0b0101);
}
constexpr bool any_x(std::uint8_t lanes) {
  return good(lanes).is_x() || faulty(lanes).is_x();
}
/// Fault effect: both lanes known and different.
constexpr std::array<bool, 16> kEffect = [] {
  std::array<bool, 16> e{};
  for (std::uint8_t p = 0; p < 16; ++p) {
    const V3 g = good(p), f = faulty(p);
    e[p] = !g.is_x() && !f.is_x() && g != f;
  }
  return e;
}();

}  // namespace

std::shared_ptr<const PodemTables> Podem::tables(const Netlist& nl,
                                                 const TestContext& ctx) {
  auto t = std::make_shared<PodemTables>();
  t->nl = &nl;
  t->ctx = &ctx;
  t->observable = observable_nets(nl, ctx);

  t->gates.resize(nl.num_gates());
  std::vector<std::uint32_t> per_level(nl.max_level() + 1, 0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gr = nl.gate(g);
    PodemGate& r = t->gates[g];
    r.in_begin = static_cast<std::uint32_t>(t->ins.size());
    for (NetId in : nl.gate_inputs(g)) t->ins.push_back(in);
    r.out = gr.out;
    r.level = gr.level;
    r.type = gr.type;
    r.n_in = static_cast<std::uint8_t>(gr.in_count);
    r.admit = t->observable[gr.out];
    ++per_level[gr.level];
  }
  t->fo_off.reserve(nl.num_nets() + 1);
  t->cap_off.reserve(nl.num_nets() + 1);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    t->fo_off.push_back(static_cast<std::uint32_t>(t->fo.size()));
    for (GateId g : nl.fanout_gates(n)) t->fo.push_back(g);
    t->cap_off.push_back(static_cast<std::uint32_t>(t->cap_q.size()));
    if (ctx.explicit_s2()) continue;
    for (FlopId f : nl.fanout_flops(n)) {
      if (ctx.active[f]) t->cap_q.push_back(nl.flop(f).q);
    }
  }
  t->fo_off.push_back(static_cast<std::uint32_t>(t->fo.size()));
  t->cap_off.push_back(static_cast<std::uint32_t>(t->cap_q.size()));

  t->obs_weight.assign(nl.num_nets(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (ctx.active[f]) ++t->obs_weight[nl.flop(f).d];
  }
  if (ctx.explicit_s2()) {
    // Per variable: the flop it feeds at the launch shift (linear chains
    // give each variable at most one successor).
    t->los_succ.assign(ctx.num_vars(), kNullId);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      t->los_succ[ctx.los_pred[f]] = f;
    }
  }

  t->keys_per_frame = nl.max_level() + 1;
  t->num_gates = static_cast<std::uint32_t>(nl.num_gates());
  std::uint32_t slot = 0;
  for (int frame = 0; frame < 2; ++frame) {
    for (std::uint32_t count : per_level) {
      t->bucket_base.push_back(slot);
      slot += count;
    }
  }
  t->bucket_base.push_back(slot);

  // All-X planes: primary inputs at their constants, every variable X.
  t->allx_f1.assign(nl.num_nets(), V3::x());
  std::vector<V3> f2(nl.num_nets(), V3::x());
  for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
    const NetId n = nl.primary_inputs()[i];
    t->allx_f1[n] = f2[n] = V3::of(ctx.pi_values[i]);
  }
  for (GateId g : nl.topo_order()) {
    const NetId* in_nets = nl.gate_inputs(g).data();
    t->allx_f1[nl.gate(g).out] = eval_v3(
        nl.gate(g).type, [&](int k) { return t->allx_f1[in_nets[k]]; });
  }
  if (!ctx.explicit_s2()) {
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (ctx.active[f]) f2[nl.flop(f).q] = t->allx_f1[nl.flop(f).d];
    }
  }
  for (GateId g : nl.topo_order()) {
    const NetId* in_nets = nl.gate_inputs(g).data();
    f2[nl.gate(g).out] =
        eval_v3(nl.gate(g).type, [&](int k) { return f2[in_nets[k]]; });
  }
  t->allx_f2.resize(nl.num_nets());
  std::transform(f2.begin(), f2.end(), t->allx_f2.begin(), both);
  return t;
}

Podem::Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt)
    : Podem(tables(nl, ctx), opt) {}

Podem::Podem(std::shared_ptr<const PodemTables> tables, PodemOptions opt)
    : tables_(std::move(tables)),
      nl_(tables_->nl),
      ctx_(tables_->ctx),
      opt_(opt) {
  const PodemTables& t = *tables_;
  s1_.assign(ctx_->num_vars(), kBitX);
  f1_ = t.allx_f1;
  f2_ = t.allx_f2;
  faulty_touched_.assign(nl_->num_nets(), 0);
  in_dfrontier_.assign(nl_->num_gates(), 0);
  xpath_mark_.assign(nl_->num_nets(), 0);
  slots_.resize(t.bucket_base.back());
  bucket_end_.assign(t.bucket_base.begin(), t.bucket_base.end() - 1);
  queued_.assign(2 * nl_->num_gates(), 0);
  min_key_ = static_cast<std::uint32_t>(bucket_end_.size());
  max_key_ = 0;
}

void Podem::restore_all_x() {
  reset_fault_plane();
  const PodemTables& t = *tables_;
  std::fill(s1_.begin(), s1_.end(), kBitX);
  stack_.clear();
  std::copy(t.allx_f1.begin(), t.allx_f1.end(), f1_.begin());
  std::copy(t.allx_f2.begin(), t.allx_f2.end(), f2_.begin());
}

void Podem::enqueue(Frame fr, GateId g) {
  const PodemTables& t = *tables_;
  const std::size_t qi = static_cast<std::size_t>(fr) * t.num_gates + g;
  if (queued_[qi]) return;
  queued_[qi] = 1;
  const std::uint32_t key =
      static_cast<std::uint32_t>(fr) * t.keys_per_frame + t.gates[g].level;
  slots_[bucket_end_[key]++] = g;
  min_key_ = std::min(min_key_, key);
  max_key_ = std::max(max_key_, key);
}

template <Podem::Frame kFr>
void Podem::enqueue_fanouts(NetId n) {
  // enqueue() for every gate fanout of `n`, in fanout order, with the
  // tables and the key range held in locals across the loop.
  const PodemTables& t = *tables_;
  const PodemGate* const gates = t.gates.data();
  const GateId* const fo = t.fo.data();
  std::uint8_t* const queued = queued_.data() + (kFr == kF2 ? t.num_gates : 0);
  GateId* const slots = slots_.data();
  std::uint32_t* const ends = bucket_end_.data();
  const std::uint32_t key_base = kFr == kF2 ? t.keys_per_frame : 0;
  std::uint32_t lo = min_key_, hi = max_key_;
  for (std::uint32_t i = t.fo_off[n], e = t.fo_off[n + 1]; i < e; ++i) {
    const GateId g = fo[i];
    if (queued[g]) continue;
    queued[g] = 1;
    const std::uint32_t key = key_base + gates[g].level;
    slots[ends[key]++] = g;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  min_key_ = lo;
  max_key_ = hi;
}

void Podem::update_f1(NetId n, V3 v) {
  if (f1_[n] == v) return;
  f1_[n] = v;
  enqueue_fanouts<kF1>(n);
  // LOC: an active flop captures this net's frame-1 value as its S2.
  const PodemTables& t = *tables_;
  for (std::uint32_t i = t.cap_off[n]; i < t.cap_off[n + 1]; ++i) {
    update_f2(t.cap_q[i], both(v));
  }
}

void Podem::update_f2(NetId n, std::uint8_t lanes) {
  if (n == stem_net_) {
    lanes = static_cast<std::uint8_t>((lanes & 0b11) | (stuck_.bits << 2));
  }
  const std::uint8_t old = f2_[n];
  if (old == lanes) return;
  f2_[n] = lanes;
  if (good(lanes) != faulty(lanes) && !faulty_touched_[n]) {
    faulty_touched_[n] = 1;
    faulty_touched_list_.push_back(n);
  }
  const bool eff = kEffect[lanes];
  if (eff != kEffect[old]) {
    const PodemTables& t = *tables_;
    effect_obs_ += (eff ? 1 : -1) * static_cast<std::int64_t>(t.obs_weight[n]);
    if (eff) {
      for (std::uint32_t i = t.fo_off[n]; i < t.fo_off[n + 1]; ++i) {
        const GateId g = t.fo[i];
        if (!in_dfrontier_[g] && t.gates[g].admit) {
          in_dfrontier_[g] = 1;
          dfrontier_.push_back(g);
        }
      }
    }
  }
  enqueue_fanouts<kF2>(n);
}

void Podem::propagate() {
  const PodemTables& t = *tables_;
  const PodemGate* const gates = t.gates.data();
  const NetId* const ins = t.ins.data();
  const GateId* const slots = slots_.data();
  std::uint8_t* const queued = queued_.data();
  const V3* const f1 = f1_.data();
  const std::uint8_t* const f2 = f2_.data();
  const NetId stem = stem_net_;
  const GateId branch_load = branch_load_;
  // Evaluation can only enqueue strictly later keys (max_key_ may grow
  // while draining), so draining in key order evaluates every gate at most
  // once per propagate() call, after all of its inputs have settled. A
  // value that did not change stops here, before any update call.
  for (; min_key_ <= max_key_; ++min_key_) {
    const std::uint32_t k = min_key_;
    const std::uint32_t begin = t.bucket_base[k], end = bucket_end_[k];
    bucket_end_[k] = begin;
    if (k < t.keys_per_frame) {
      for (std::uint32_t i = begin; i < end; ++i) {
        const GateId g = slots[i];
        queued[g] = 0;
        const PodemGate& r = gates[g];
        const NetId* in = ins + r.in_begin;
        const V3 v{V3x1::eval(r.type, [&](int p) { return f1[in[p]].bits; })};
        if (f1[r.out] != v) update_f1(r.out, v);
      }
      continue;
    }
    std::uint8_t* const queued2 = queued + t.num_gates;
    for (std::uint32_t i = begin; i < end; ++i) {
      const GateId g = slots[i];
      queued2[g] = 0;
      const PodemGate& r = gates[g];
      const NetId* in = ins + r.in_begin;
      // The branch fault's pin reads the stuck value in the faulty lane.
      const std::uint8_t lanes =
          g != branch_load
              ? V3x2::eval(r.type, [&](int p) { return f2[in[p]]; })
              : V3x2::eval(r.type, [&](int p) {
                  const std::uint8_t v = f2[in[p]];
                  return p == branch_pin_
                             ? static_cast<std::uint8_t>((v & 0b11) |
                                                         (stuck_.bits << 2))
                             : v;
                });
      if (r.out == stem || f2[r.out] != lanes) update_f2(r.out, lanes);
    }
  }
  min_key_ = static_cast<std::uint32_t>(bucket_end_.size());
  max_key_ = 0;
}

void Podem::assign(FlopId var, int v) {
  s1_[var] = static_cast<std::uint8_t>(v);
  const V3 val = v == kBitX ? V3::x() : V3::of(v);
  if (var < nl_->num_flops()) {
    const NetId q = nl_->flop(var).q;
    update_f1(q, val);
    if (!ctx_->explicit_s2() && !ctx_->active[var]) update_f2(q, both(val));
  }
  if (ctx_->explicit_s2()) {
    const FlopId succ = tables_->los_succ[var];
    if (succ != kNullId) update_f2(nl_->flop(succ).q, both(val));
  }
  ++implications_;
}

void Podem::set_s1(FlopId var, int v) {
  assign(var, v);
  propagate();
}

void Podem::reset_fault_plane() {
  const PodemTables& t = *tables_;
  for (NetId n : faulty_touched_list_) {
    if (kEffect[f2_[n]]) effect_obs_ -= t.obs_weight[n];
    f2_[n] = both(good(f2_[n]));
    faulty_touched_[n] = 0;
  }
  faulty_touched_list_.clear();
  for (GateId g : dfrontier_) in_dfrontier_[g] = 0;
  dfrontier_.clear();
  stem_net_ = kNullId;
  branch_load_ = kNullId;
}

void Podem::install_fault(const TdfFault& f) {
  reset_fault_plane();
  fault_ = f;
  stuck_ = V3::of(f.v1());
  switch (f.site) {
    case FaultSite::kStem:
      stem_net_ = f.net;
      update_f2(f.net, f2_[f.net]);
      break;
    case FaultSite::kGateBranch:
      branch_load_ = f.load;
      branch_pin_ = f.pin;
      enqueue(kF2, f.load);
      if (!in_dfrontier_[f.load]) {
        in_dfrontier_[f.load] = 1;
        dfrontier_.push_back(f.load);
      }
      break;
    case FaultSite::kFlopBranch:
      break;  // captured directly; no propagation machinery needed
  }
  propagate();
}

bool Podem::detected() const {
  const V3 a1 = f1_[fault_.net];
  if (a1.is_x() || a1.value() != fault_.v1()) return false;
  if (fault_.site == FaultSite::kFlopBranch) {
    const V3 a2 = good(f2_[fault_.net]);
    return !a2.is_x() && a2.value() == fault_.v2() &&
           ctx_->active[fault_.load] != 0;
  }
  return effect_obs_ > 0;
}

std::optional<Podem::Objective> Podem::objective() {
  const PodemTables& t = *tables_;
  const NetId site = fault_.net;
  const V3 a1 = f1_[site];
  if (!a1.is_x() && a1.value() != fault_.v1()) return std::nullopt;
  const V3 a2 = good(f2_[site]);
  if (!a2.is_x() && a2.value() != fault_.v2()) return std::nullopt;
  if (a1.is_x()) return Objective{kF1, site, fault_.v1()};
  if (a2.is_x()) return Objective{kF2, site, fault_.v2()};
  if (fault_.site == FaultSite::kFlopBranch) {
    // Activation complete; if not already detected the load flop is held.
    return std::nullopt;
  }

  // Propagation phase: scan (and compact) the D-frontier, preferring gates
  // closest to the observation points.
  std::optional<Objective> best;
  std::uint32_t best_level = 0;
  std::size_t w = 0;
  // Pin-level fault effect: net-level difference, or the faulty pin of a
  // branch fault itself once the net carries the fault-free value.
  auto pin_has_effect = [&](GateId g, std::uint8_t pin, NetId in) {
    if (kEffect[f2_[in]]) return true;
    if (g == branch_load_ && pin == branch_pin_) {
      const V3 gv = good(f2_[in]);
      return !gv.is_x() && gv != stuck_;
    }
    return false;
  };
  auto g2 = [&](NetId n) { return good(f2_[n]); };
  for (std::size_t i = 0; i < dfrontier_.size(); ++i) {
    const GateId g = dfrontier_[i];
    const PodemGate& r = t.gates[g];
    const std::span<const NetId> ins(t.ins.data() + r.in_begin, r.n_in);
    // The injection gate stays resident in the frontier.
    bool any_effect = g == branch_load_;
    for (std::size_t pin = 0; pin < ins.size() && !any_effect; ++pin) {
      any_effect = pin_has_effect(g, static_cast<std::uint8_t>(pin), ins[pin]);
    }
    if (!any_effect) {
      in_dfrontier_[g] = 0;  // stale; drop from the list
      continue;
    }
    dfrontier_[w++] = g;
    const NetId out = r.out;
    if (!any_x(f2_[out])) continue;  // already propagated or blocked here
    if (best && r.level <= best_level) continue;

    const CellType type = r.type;
    std::optional<Objective> obj;
    switch (gate_class(type)) {
      case GateClass::kAndLike:
      case GateClass::kOrLike:
      case GateClass::kXorLike: {
        const int v = gate_class(type) == GateClass::kAndLike ? 1 : 0;
        for (NetId in : ins) {
          if (g2(in).is_x()) {
            obj = Objective{kF2, in, v};
            break;
          }
        }
        break;
      }
      case GateClass::kMux: {
        const NetId s = ins[0], a = ins[1], b = ins[2];
        const bool eff_a = pin_has_effect(g, 1, a);
        const bool eff_b = pin_has_effect(g, 2, b);
        if (eff_a && g2(s).is_x()) {
          obj = Objective{kF2, s, 0};
        } else if (eff_b && g2(s).is_x()) {
          obj = Objective{kF2, s, 1};
        } else if (pin_has_effect(g, 0, s)) {
          // Effect on the select: data inputs must differ.
          if (g2(a).is_x()) {
            obj = Objective{kF2, a, g2(b).is_x() ? 0 : 1 - g2(b).value()};
          } else if (g2(b).is_x()) {
            obj = Objective{kF2, b, 1 - g2(a).value()};
          }
        }
        break;
      }
      case GateClass::kBufLike:
      case GateClass::kTie:
        break;  // nothing to justify; output follows automatically
    }
    if (obj && has_x_path(out)) {
      best = obj;
      best_level = r.level;
    }
  }
  dfrontier_.resize(w);
  return best;
}

bool Podem::has_x_path(NetId from) {
  const PodemTables& t = *tables_;
  if (++xpath_epoch_ == 0) {  // stamp wrap: invalidate all
    std::fill(xpath_mark_.begin(), xpath_mark_.end(), 0);
    xpath_epoch_ = 1;
  }
  xpath_mark_[from] = xpath_epoch_;
  xpath_stack_.assign(1, from);
  while (!xpath_stack_.empty()) {
    const NetId n = xpath_stack_.back();
    xpath_stack_.pop_back();
    if (t.obs_weight[n] != 0) return true;
    for (std::uint32_t i = t.fo_off[n]; i < t.fo_off[n + 1]; ++i) {
      const NetId out = t.gates[t.fo[i]].out;
      if (xpath_mark_[out] == xpath_epoch_ || !t.observable[out]) continue;
      if (!any_x(f2_[out])) continue;
      xpath_mark_[out] = xpath_epoch_;
      xpath_stack_.push_back(out);
    }
  }
  return false;
}

std::optional<std::pair<FlopId, int>> Podem::backtrace(Objective obj) const {
  Frame frame = obj.frame;
  NetId net = obj.net;
  int v = obj.value;
  // Walk X-valued nets toward a controllable scan bit. Bounded by twice the
  // netlist depth (frame 2 crosses into frame 1 through active flops).
  for (;;) {
    const Net& nr = nl_->net(net);
    if (nr.driver_kind == DriverKind::kInput) return std::nullopt;
    if (nr.driver_kind == DriverKind::kFlop) {
      const FlopId f = nr.driver;
      if (frame == kF2) {
        if (ctx_->explicit_s2()) {
          const std::uint32_t var = ctx_->los_pred[f];
          if (s1_[var] == kBitX) return std::make_pair(var, v);
          return std::nullopt;
        }
        if (ctx_->active[f]) {
          frame = kF1;
          net = nl_->flop(f).d;
          continue;
        }
      }
      if (s1_[f] == kBitX) return std::make_pair(f, v);
      return std::nullopt;  // defensively: assigned bit cannot be re-decided
    }
    const GateId g = nr.driver;
    const CellType t = nl_->gate(g).type;
    const auto ins = nl_->gate_inputs(g);
    auto known = [&](NetId m) {
      return frame == kF1 ? !f1_[m].is_x() : !good(f2_[m]).is_x();
    };
    auto value_of = [&](NetId m) {
      return frame == kF1 ? f1_[m].value() : good(f2_[m]).value();
    };
    const int vf = v ^ (is_inverting(t) ? 1 : 0);
    switch (gate_class(t)) {
      case GateClass::kTie:
        return std::nullopt;
      case GateClass::kBufLike:
        net = ins[0];
        v = vf;
        continue;
      case GateClass::kAndLike:
      case GateClass::kOrLike: {
        // Rotate which X input is followed so successive backtracks explore
        // different justification paths instead of re-treading the first one.
        NetId pick = kNullId;
        const std::size_t n = ins.size();
        for (std::size_t k = 0; k < n; ++k) {
          const NetId in = ins[(k + backtrace_salt_) % n];
          if (!known(in)) {
            pick = in;
            break;
          }
        }
        if (pick == kNullId) return std::nullopt;
        net = pick;
        v = vf;
        continue;
      }
      case GateClass::kXorLike: {
        const NetId a = ins[0], b = ins[1];
        if (!known(a)) {
          net = a;
          v = known(b) ? (vf ^ value_of(b)) : vf;
        } else if (!known(b)) {
          net = b;
          v = vf ^ value_of(a);
        } else {
          return std::nullopt;
        }
        continue;
      }
      case GateClass::kMux: {
        const NetId s = ins[0], a = ins[1], b = ins[2];
        if (known(s)) {
          net = value_of(s) ? b : a;
          // v unchanged (mux passes data through)
          continue;
        }
        if (known(a) || known(b)) {
          if (known(a) && value_of(a) == v) {
            net = s;
            v = 0;
          } else if (known(b) && value_of(b) == v) {
            net = s;
            v = 1;
          } else if (!known(a)) {
            net = a;  // aim the A path at the target value
          } else {
            net = b;
          }
          continue;
        }
        net = a;
        continue;
      }
    }
  }
}

void Podem::pop_to(std::size_t baseline) {
  if (stack_.size() <= baseline) return;
  // One batch: unassigning only widens values toward X, so the batch adds
  // no D-frontier entry and ends where popping one by one would.
  for (std::size_t i = baseline; i < stack_.size(); ++i) {
    assign(stack_[i].flop, kBitX);
  }
  stack_.resize(baseline);
  propagate();
}

void Podem::unwind(std::size_t baseline) {
  if (baseline != 0) {
    pop_to(baseline);
    return;
  }
  // Nothing to keep: count the unassignments, restore the all-X planes.
  implications_ += stack_.size();
  restore_all_x();
}

TestCube Podem::cube() const {
  TestCube c;
  c.s1 = s1_;
  return c;
}

void Podem::adopt(const TestCube& cube) {
  if (cube.s1.size() != s1_.size()) {
    throw std::invalid_argument(
        "Podem::adopt: cube needs one entry per test variable");
  }
  // Synchronisation is not search work: keep it out of implications().
  const std::uint64_t impl = implications_;
  reset_fault_plane();
  // With no fault installed the batch only moves the planes to the fixed
  // point of `cube`, whatever bits it changes.
  stack_.clear();
  for (FlopId v = 0; v < s1_.size(); ++v) {
    if (s1_[v] != cube.s1[v]) assign(v, cube.s1[v]);
    if (cube.s1[v] != kBitX) stack_.push_back(Decision{v, cube.s1[v], true});
  }
  propagate();
  implications_ = impl;
}

void Podem::clear_assignments() { restore_all_x(); }

PodemStatus Podem::run(std::size_t baseline, TestCube& out) {
  std::uint32_t backtracks = 0;
  for (;;) {
    if (detected()) {
      out = cube();
      return PodemStatus::kDetected;
    }
    std::optional<Objective> obj = objective();
    std::optional<std::pair<FlopId, int>> dec;
    if (obj) dec = backtrace(*obj);
    if (dec) {
      stack_.push_back(Decision{dec->first,
                                static_cast<std::uint8_t>(dec->second), false});
      set_s1(dec->first, dec->second);
      continue;
    }
    // Backtrack: drop the flipped decisions on top in one batch, then flip
    // the most recent unflipped one.
    ++backtrace_salt_;
    std::size_t top = stack_.size();
    while (top > baseline && stack_[top - 1].flipped) --top;
    if (top == baseline) {
      unwind(baseline);
      return baseline == 0 ? PodemStatus::kUntestable : PodemStatus::kAborted;
    }
    pop_to(top);
    Decision& d = stack_.back();
    d.flipped = true;
    d.value ^= 1;
    set_s1(d.flop, d.value);
    ++backtracks_;
    if (++backtracks > opt_.backtrack_limit) {
      ++limit_aborts_;
      unwind(baseline);
      return PodemStatus::kAborted;
    }
  }
}

bool Podem::probe(const TdfFault& fault, std::span<const std::uint8_t> s1) {
  if (s1.size() != s1_.size()) {
    throw std::invalid_argument(
        "Podem::probe: assignment needs one entry per test variable");
  }
  restore_all_x();
  install_fault(fault);
  for (FlopId f = 0; f < s1.size(); ++f) {
    stack_.push_back(Decision{f, s1[f], true});
    assign(f, s1[f]);
  }
  propagate();
  const bool hit = detected();
  restore_all_x();
  return hit;
}

PodemStatus Podem::generate(const TdfFault& fault, TestCube& out) {
  // Clearing the previous cube is not this call's search work, so it is
  // not counted and the per-call count is independent of history.
  restore_all_x();
  if (statically_unobservable(*nl_, *ctx_, tables_->observable, fault)) {
    return PodemStatus::kUntestable;
  }
  backtrace_salt_ = call_salt(fault, opt_.seed);
  install_fault(fault);
  return run(0, out);
}

PodemStatus Podem::extend(const TdfFault& fault, TestCube& out) {
  const std::size_t baseline = stack_.size();
  backtrace_salt_ = call_salt(fault, opt_.seed);
  install_fault(fault);
  return run(baseline, out);
}

}  // namespace scap
