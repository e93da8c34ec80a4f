// Dataflow-powered lint rules (lint/lint.h): SCOAP-based controllability /
// observability findings, constant-net and constant-capture inference, and
// X-contamination of capture values. All facts come from the dataflow engine
// (lint/dataflow.h); nothing here simulates.
#include <string>
#include <vector>

#include "lint/dataflow.h"
#include "lint/lint.h"

namespace scap::lint {

namespace {

std::string gate_name(const Netlist& nl, GateId g) {
  return "b" + std::to_string(nl.gate(g).block) + "_g" + std::to_string(g);
}
std::string flop_name(const Netlist& nl, FlopId f) {
  return "b" + std::to_string(nl.flop(f).block) + "_f" + std::to_string(f);
}
Location net_loc(const Netlist& nl, NetId n) {
  return Location{"net", n, nl.net_name(n)};
}
Location flop_loc(const Netlist& nl, FlopId f) {
  return Location{"flop", f, flop_name(nl, f)};
}
Location pattern_loc(std::size_t j) {
  return Location{"pattern", static_cast<std::uint32_t>(j),
                  "p" + std::to_string(j)};
}

/// True when the net's recorded driver is a tie cell (constant by design,
/// not worth a finding).
bool tie_driven(const Netlist& nl, NetId n) {
  const Net& nr = nl.net(n);
  if (nr.driver_kind != DriverKind::kGate) return false;
  const CellType t = nl.gate(nr.driver).type;
  return t == CellType::kTie0 || t == CellType::kTie1;
}

std::string driver_ref(const Netlist& nl, NetId n) {
  const Net& nr = nl.net(n);
  switch (nr.driver_kind) {
    case DriverKind::kGate:
      return "gate " + gate_name(nl, nr.driver);
    case DriverKind::kFlop:
      return "flop " + flop_name(nl, nr.driver);
    case DriverKind::kInput:
      return "primary input";
    case DriverKind::kNone:
      break;
  }
  return "no driver";
}

void check_testability(const LintInput& in, const DataflowFacts& facts,
                       Diagnostics& diag) {
  const Netlist& nl = *in.netlist;

  if (diag.rule_enabled(rule::kNetConstant)) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (!facts.net_constant(n)) continue;
      const DriverKind dk = nl.net(n).driver_kind;
      // Tie outputs and held PIs are constant by design; report the cones
      // they infect, not the sources themselves.
      if (dk == DriverKind::kNone || dk == DriverKind::kInput) continue;
      if (tie_driven(nl, n)) continue;
      diag.add(rule::kNetConstant, net_loc(nl, n),
               "net '" + nl.net_name(n) + "' (" + driver_ref(nl, n) +
                   ") settles to constant " +
                   std::to_string(facts.constant[n].value()) +
                   " for every loadable scan state");
    }
  }

  if (diag.rule_enabled(rule::kNetUncontrollable)) {
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).driver_kind == DriverKind::kNone) continue;
      if (facts.net_constant(n) || facts.controllable(n)) continue;
      const bool no0 = facts.cc0[n] == kInfCost;
      diag.add(rule::kNetUncontrollable, net_loc(nl, n),
               "net '" + nl.net_name(n) + "' cannot be justified to " +
                   (no0 && facts.cc1[n] == kInfCost ? "either value"
                    : no0                           ? "logic 0"
                                                    : "logic 1") +
                   " from the scan state");
    }
  }

  if (diag.rule_enabled(rule::kNetUnobservable)) {
    // A net is worth observing if something reads it (gate pin or flop D);
    // purely dangling nets are kNetDangling's finding.
    std::vector<std::uint8_t> read(nl.num_nets(), 0);
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      for (NetId in_net : nl.gate_inputs(g)) read[in_net] = 1;
    }
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (nl.flop(f).d != kNullId) read[nl.flop(f).d] = 1;
    }
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (!read[n] || facts.net_constant(n) || facts.observable(n)) continue;
      diag.add(rule::kNetUnobservable, net_loc(nl, n),
               "net '" + nl.net_name(n) +
                   "' has no sensitizable path to any flop D pin or "
                   "primary output");
    }
  }

  if (diag.rule_enabled(rule::kFlopConstantD)) {
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      const NetId d = nl.flop(f).d;
      if (d == kNullId || !facts.net_constant(d)) continue;
      diag.add(rule::kFlopConstantD, flop_loc(nl, f),
               "scan cell " + flop_name(nl, f) + " captures constant " +
                   std::to_string(facts.constant[d].value()) +
                   " (D net '" + nl.net_name(d) + "')");
    }
  }
}

/// Push each pre-fill cube's care bits through the logic in 3-valued form
/// and flag patterns whose active flops would capture an X launch value.
void check_capture_x(const LintInput& in, const LevelMap& levels,
                     Diagnostics& diag) {
  const Netlist& nl = *in.netlist;
  const TestContext& ctx = *in.ctx;
  if (ctx.active.size() != nl.num_flops()) return;  // kCaptureFlopDomain's job

  std::vector<V3> flop_bits(nl.num_flops());
  std::vector<V3> nets;
  for (std::size_t j = 0; j < in.cubes.size(); ++j) {
    const auto& bits = in.cubes[j].s1;
    if (bits.size() != ctx.num_vars()) continue;  // kPatternSizeMismatch's job
    std::size_t x_captures = 0;
    FlopId first_flop = 0;
    if (ctx.explicit_s2()) {
      // LOS / enhanced scan: the launch value is itself a test variable.
      for (FlopId f = 0; f < nl.num_flops(); ++f) {
        if (!ctx.active[f] || bits[ctx.los_pred[f]] != kBitX) continue;
        if (x_captures == 0) first_flop = f;
        ++x_captures;
      }
    } else {
      for (FlopId f = 0; f < nl.num_flops(); ++f) {
        flop_bits[f] = bits[f] == kBitX ? V3::x() : V3::of(bits[f] != 0);
      }
      eval_frame_v3(nl, levels, flop_bits, ctx.pi_values, nets);
      for (FlopId f = 0; f < nl.num_flops(); ++f) {
        if (!ctx.active[f] || !nets[nl.flop(f).d].is_x()) continue;
        if (x_captures == 0) first_flop = f;
        ++x_captures;
      }
    }
    if (x_captures == 0) continue;
    diag.add(rule::kCaptureXContaminated, pattern_loc(j),
             "pattern " + std::to_string(j) + ": " +
                 std::to_string(x_captures) +
                 " active flop(s) launch an X value (first: " +
                 flop_name(nl, first_flop) + ")");
  }
}

}  // namespace

void check_dataflow(const LintInput& in, Diagnostics& diag) {
  const Netlist& nl = *in.netlist;

  const bool want_facts = diag.rule_enabled(rule::kNetUncontrollable) ||
                          diag.rule_enabled(rule::kNetUnobservable) ||
                          diag.rule_enabled(rule::kNetConstant) ||
                          diag.rule_enabled(rule::kFlopConstantD);
  const bool want_capture_x = in.ctx != nullptr && !in.cubes.empty() &&
                              diag.rule_enabled(rule::kCaptureXContaminated);
  if (want_facts) {
    DataflowOptions opt;
    if (in.ctx != nullptr) opt.pi_values = in.ctx->pi_values;
    const DataflowFacts facts = analyze_dataflow(nl, opt);
    check_testability(in, facts, diag);
    if (want_capture_x) check_capture_x(in, facts.levels, diag);
  } else if (want_capture_x) {
    check_capture_x(in, levelize(nl), diag);
  }
}

}  // namespace scap::lint
