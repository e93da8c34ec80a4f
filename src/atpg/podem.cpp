#include "atpg/podem.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace scap {

Podem::Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt)
    : nl_(&nl), ctx_(&ctx), opt_(opt) {
  s1_.assign(ctx.num_vars(), kBitX);
  if (ctx.explicit_s2()) {
    // Per variable: the flop it feeds at the launch shift (linear chains
    // give each variable at most one successor).
    los_succ_.assign(ctx.num_vars(), kNullId);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      los_succ_[ctx.los_pred[f]] = f;
    }
  }
  f1_.assign(nl.num_nets(), V3::x());
  g2_.assign(nl.num_nets(), V3::x());
  x2_.assign(nl.num_nets(), V3::x());
  has_effect_.assign(nl.num_nets(), 0);
  x2_touched_.assign(nl.num_nets(), 0);
  in_dfrontier_.assign(nl.num_gates(), 0);
  keys_per_frame_ = nl.max_level() + 1;
  buckets_.resize(2 * static_cast<std::size_t>(keys_per_frame_));
  queued_.assign(2 * nl.num_gates(), 0);
  min_key_ = static_cast<std::uint32_t>(buckets_.size());

  obs_weight_.assign(nl.num_nets(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (ctx.active[f]) ++obs_weight_[nl.flop(f).d];
  }
  observable_ = observable_nets(nl, ctx);
  xpath_mark_.assign(nl.num_nets(), 0);
  rebuild_planes();
}

void Podem::rebuild_planes() {
  const Netlist& nl = *nl_;
  for (std::size_t i = 0; i < nl.primary_inputs().size(); ++i) {
    const NetId n = nl.primary_inputs()[i];
    f1_[n] = g2_[n] = x2_[n] = V3::of(ctx_->pi_values[i]);
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const NetId q = nl.flop(f).q;
    f1_[q] = s1_[f] == kBitX ? V3::x() : V3::of(s1_[f]);
  }
  for (GateId g : nl.topo_order()) {
    const NetId* in_nets = nl.gate_inputs(g).data();
    f1_[nl.gate(g).out] =
        eval_v3(nl.gate(g).type, [&](int k) { return f1_[in_nets[k]]; });
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const NetId q = nl.flop(f).q;
    if (ctx_->explicit_s2()) {
      const std::uint8_t src = s1_[ctx_->los_pred[f]];
      g2_[q] = src == kBitX ? V3::x() : V3::of(src);
    } else {
      g2_[q] = ctx_->active[f] ? f1_[nl.flop(f).d]
                               : (s1_[f] == kBitX ? V3::x() : V3::of(s1_[f]));
    }
    x2_[q] = g2_[q];
  }
  for (GateId g : nl.topo_order()) {
    const NetId* in_nets = nl.gate_inputs(g).data();
    const NetId out = nl.gate(g).out;
    g2_[out] = eval_v3(nl.gate(g).type, [&](int k) { return g2_[in_nets[k]]; });
    x2_[out] = g2_[out];
  }
  std::fill(has_effect_.begin(), has_effect_.end(), 0);
  effect_obs_ = 0;
  x2_touched_list_.clear();
  std::fill(x2_touched_.begin(), x2_touched_.end(), 0);
  dfrontier_.clear();
  std::fill(in_dfrontier_.begin(), in_dfrontier_.end(), 0);
  fault_installed_ = false;
}

void Podem::enqueue(Frame fr, GateId g) {
  const std::size_t qi = static_cast<std::size_t>(fr) * nl_->num_gates() + g;
  if (queued_[qi]) return;
  queued_[qi] = 1;
  const std::uint32_t key =
      static_cast<std::uint32_t>(fr) * keys_per_frame_ + nl_->gate(g).level;
  buckets_[key].push_back(g);
  min_key_ = std::min(min_key_, key);
}

void Podem::update_f1(NetId n, V3 v) {
  if (f1_[n] == v) return;
  f1_[n] = v;
  for (GateId g : nl_->fanout_gates(n)) enqueue(kF1, g);
  // LOS / enhanced scan: launch variables, not D capture, set S2.
  if (ctx_->explicit_s2()) return;
  for (FlopId f : nl_->fanout_flops(n)) {
    if (ctx_->active[f]) update_f2(nl_->flop(f).q, v, v);
  }
}

void Podem::update_f2(NetId n, V3 good, V3 faulty) {
  if (fault_installed_ && fault_.site == FaultSite::kStem && n == fault_.net) {
    faulty = stuck_;
  }
  if (g2_[n] == good && x2_[n] == faulty) return;
  g2_[n] = good;
  x2_[n] = faulty;
  if (faulty != good && !x2_touched_[n]) {
    x2_touched_[n] = 1;
    x2_touched_list_.push_back(n);
  }
  const bool eff = !good.is_x() && !faulty.is_x() && good != faulty;
  if (eff != (has_effect_[n] != 0)) {
    has_effect_[n] = eff ? 1 : 0;
    effect_obs_ += (eff ? 1 : -1) * static_cast<std::int64_t>(obs_weight_[n]);
    if (eff) {
      for (GateId g : nl_->fanout_gates(n)) {
        if (!in_dfrontier_[g] && observable_[nl_->gate(g).out]) {
          in_dfrontier_[g] = 1;
          dfrontier_.push_back(g);
        }
      }
    }
  }
  for (GateId g : nl_->fanout_gates(n)) enqueue(kF2, g);
}

V3 Podem::faulty_input(GateId g, std::uint8_t pin, NetId net) const {
  if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
      fault_.load == g && fault_.pin == pin) {
    return stuck_;
  }
  return x2_[net];
}

void Podem::eval_gate(Frame fr, GateId g) {
  const NetId* in_nets = nl_->gate_inputs(g).data();
  const CellType t = nl_->gate(g).type;
  if (fr == kF1) {
    update_f1(nl_->gate(g).out,
              eval_v3(t, [&](int k) { return f1_[in_nets[k]]; }));
    return;
  }
  const V3 good = eval_v3(t, [&](int k) { return g2_[in_nets[k]]; });
  const V3 faulty = eval_v3(t, [&](int k) {
    return faulty_input(g, static_cast<std::uint8_t>(k), in_nets[k]);
  });
  update_f2(nl_->gate(g).out, good, faulty);
}

void Podem::propagate() {
  for (std::uint32_t k = min_key_; k < buckets_.size(); ++k) {
    auto& bucket = buckets_[k];
    // Evaluation can only enqueue strictly later keys, so draining in key
    // order evaluates every gate at most once per propagate() call.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      const Frame fr = k < keys_per_frame_ ? kF1 : kF2;
      queued_[static_cast<std::size_t>(fr) * nl_->num_gates() + g] = 0;
      eval_gate(fr, g);
    }
    bucket.clear();
  }
  min_key_ = static_cast<std::uint32_t>(buckets_.size());
}

void Podem::set_s1(FlopId var, int v) {
  s1_[var] = static_cast<std::uint8_t>(v);
  const V3 val = v == kBitX ? V3::x() : V3::of(v);
  if (var < nl_->num_flops()) {
    const NetId q = nl_->flop(var).q;
    update_f1(q, val);
    if (!ctx_->explicit_s2() && !ctx_->active[var]) update_f2(q, val, val);
  }
  if (ctx_->explicit_s2()) {
    const FlopId succ = los_succ_[var];
    if (succ != kNullId) update_f2(nl_->flop(succ).q, val, val);
  }
  propagate();
  ++implications_;
}

void Podem::reset_fault_plane() {
  for (NetId n : x2_touched_list_) {
    x2_[n] = g2_[n];
    x2_touched_[n] = 0;
    if (has_effect_[n]) {
      has_effect_[n] = 0;
      effect_obs_ -= obs_weight_[n];
    }
  }
  x2_touched_list_.clear();
  for (GateId g : dfrontier_) in_dfrontier_[g] = 0;
  dfrontier_.clear();
  fault_installed_ = false;
}

void Podem::install_fault(const TdfFault& f) {
  reset_fault_plane();
  fault_ = f;
  stuck_ = V3::of(f.v1());
  fault_installed_ = true;
  switch (f.site) {
    case FaultSite::kStem:
      update_f2(f.net, g2_[f.net], stuck_);
      break;
    case FaultSite::kGateBranch:
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
    const V3 a2 = g2_[fault_.net];
    return !a2.is_x() && a2.value() == fault_.v2() &&
           ctx_->active[fault_.load] != 0;
  }
  return effect_obs_ > 0;
}

std::optional<Podem::Objective> Podem::objective() {
  const NetId site = fault_.net;
  const V3 a1 = f1_[site];
  if (!a1.is_x() && a1.value() != fault_.v1()) return std::nullopt;
  const V3 a2 = g2_[site];
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
    if (has_effect_[in]) return true;
    if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
        fault_.load == g && fault_.pin == pin) {
      const V3 gv = g2_[in];
      return !gv.is_x() && gv != stuck_;
    }
    return false;
  };
  for (std::size_t i = 0; i < dfrontier_.size(); ++i) {
    const GateId g = dfrontier_[i];
    const auto ins = nl_->gate_inputs(g);
    bool any_effect = false;
    for (std::size_t pin = 0; pin < ins.size(); ++pin) {
      if (pin_has_effect(g, static_cast<std::uint8_t>(pin), ins[pin])) {
        any_effect = true;
        break;
      }
    }
    if (fault_installed_ && fault_.site == FaultSite::kGateBranch &&
        fault_.load == g) {
      any_effect = true;  // keep the injection gate resident in the frontier
    }
    if (!any_effect) {
      in_dfrontier_[g] = 0;  // stale; drop from the list
      continue;
    }
    dfrontier_[w++] = g;
    const NetId out = nl_->gate(g).out;
    const bool undetermined = g2_[out].is_x() || x2_[out].is_x();
    if (!undetermined) continue;  // already propagated or blocked here
    if (best && nl_->gate(g).level <= best_level) continue;

    const CellType t = nl_->gate(g).type;
    std::optional<Objective> obj;
    switch (gate_class(t)) {
      case GateClass::kAndLike:
      case GateClass::kOrLike:
      case GateClass::kXorLike: {
        const int v = gate_class(t) == GateClass::kAndLike ? 1
                      : gate_class(t) == GateClass::kOrLike ? 0
                                                            : 0;
        for (NetId in : ins) {
          if (g2_[in].is_x()) {
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
        if (eff_a && g2_[s].is_x()) {
          obj = Objective{kF2, s, 0};
        } else if (eff_b && g2_[s].is_x()) {
          obj = Objective{kF2, s, 1};
        } else if (pin_has_effect(g, 0, s)) {
          // Effect on the select: data inputs must differ.
          if (g2_[a].is_x()) {
            obj = Objective{kF2, a, g2_[b].is_x() ? 0 : 1 - g2_[b].value()};
          } else if (g2_[b].is_x()) {
            obj = Objective{kF2, b, 1 - g2_[a].value()};
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
      best_level = nl_->gate(g).level;
    }
  }
  dfrontier_.resize(w);
  return best;
}

bool Podem::has_x_path(NetId from) {
  if (++xpath_epoch_ == 0) {  // stamp wrap: invalidate all
    std::fill(xpath_mark_.begin(), xpath_mark_.end(), 0);
    xpath_epoch_ = 1;
  }
  xpath_mark_[from] = xpath_epoch_;
  xpath_stack_.assign(1, from);
  while (!xpath_stack_.empty()) {
    const NetId n = xpath_stack_.back();
    xpath_stack_.pop_back();
    if (obs_weight_[n] != 0) return true;
    for (GateId g : nl_->fanout_gates(n)) {
      const NetId out = nl_->gate(g).out;
      if (xpath_mark_[out] == xpath_epoch_ || !observable_[out]) continue;
      if (!g2_[out].is_x() && !x2_[out].is_x()) continue;
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
      return frame == kF1 ? !f1_[m].is_x() : !g2_[m].is_x();
    };
    auto value_of = [&](NetId m) {
      return frame == kF1 ? f1_[m].value() : g2_[m].value();
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
  while (stack_.size() > baseline) {
    set_s1(stack_.back().flop, kBitX);
    stack_.pop_back();
  }
}

TestCube Podem::cube() const {
  TestCube c;
  c.s1 = s1_;
  return c;
}

void Podem::clear_assignments() {
  pop_to(0);
  // Any non-decision residue (defensive): rebuild from scratch if some bit
  // is still assigned.
  for (auto b : s1_) {
    if (b != kBitX) {
      std::fill(s1_.begin(), s1_.end(), kBitX);
      rebuild_planes();
      break;
    }
  }
}

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
    // Backtrack: flip the most recent unflipped decision.
    ++backtrace_salt_;
    bool flipped = false;
    while (stack_.size() > baseline) {
      Decision& d = stack_.back();
      if (!d.flipped) {
        d.flipped = true;
        d.value ^= 1;
        set_s1(d.flop, d.value);
        flipped = true;
        break;
      }
      set_s1(d.flop, kBitX);
      stack_.pop_back();
    }
    if (!flipped) {
      return baseline == 0 ? PodemStatus::kUntestable : PodemStatus::kAborted;
    }
    ++backtracks_;
    if (++backtracks > opt_.backtrack_limit) {
      pop_to(baseline);
      return PodemStatus::kAborted;
    }
  }
}

bool Podem::probe(const TdfFault& fault, std::span<const std::uint8_t> s1) {
  pop_to(0);
  install_fault(fault);
  for (FlopId f = 0; f < s1.size(); ++f) {
    stack_.push_back(Decision{f, s1[f], true});
    set_s1(f, s1[f]);
  }
  const bool hit = detected();
  pop_to(0);
  reset_fault_plane();
  return hit;
}

PodemStatus Podem::generate(const TdfFault& fault, TestCube& out) {
  const std::uint64_t impl0 = implications_, bt0 = backtracks_;
  pop_to(0);
  PodemStatus st = PodemStatus::kUntestable;
  if (!statically_unobservable(*nl_, *ctx_, observable_, fault)) {
    install_fault(fault);
    st = run(0, out);
  }
  obs::count("atpg.podem_generates");
  obs::count("atpg.implications", implications_ - impl0);
  obs::count("atpg.backtracks", backtracks_ - bt0);
  return st;
}

PodemStatus Podem::extend(const TdfFault& fault, TestCube& out) {
  const std::uint64_t impl0 = implications_, bt0 = backtracks_;
  const std::size_t baseline = stack_.size();
  install_fault(fault);
  const PodemStatus st = run(baseline, out);
  if (st != PodemStatus::kDetected) pop_to(baseline);
  obs::count("atpg.podem_extends");
  obs::count("atpg.implications", implications_ - impl0);
  obs::count("atpg.backtracks", backtracks_ - bt0);
  return st;
}

}  // namespace scap
