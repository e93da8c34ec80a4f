// Shared test-session context: which clock domain is pulsed during
// launch/capture, the constant primary-input values the low-cost tester
// applies, and the launch scheme.
//
// Launch-off-capture (broadside): the launch pulse captures the functional
// response, S2 = F(S1); only the tested domain's flops toggle at launch.
// Launch-off-shift (skewed-load): the last shift pulse launches, so
// S2 = shift(S1) with one fresh scan-in bit per chain; every scan flop
// toggles at launch (shift moves all chains), and S2 is fully controllable
// -- easier ATPG, but notoriously power-hungry, which the LOS-vs-LOC bench
// quantifies with the SCAP model.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace scap {

enum class LaunchScheme : std::uint8_t { kLoc, kLos, kEnhanced };

struct TestContext {
  DomainId domain = 0;
  LaunchScheme scheme = LaunchScheme::kLoc;
  std::vector<std::uint8_t> active;     ///< per flop: 1 = captures at test
  std::vector<std::uint8_t> pi_values;  ///< per PI: constant 0/1

  /// Explicit-S2 wiring: per flop, the *variable* supplying its launch
  /// value. Variables 0..num_flops-1 are the S1 scan bits; the tail holds
  /// extra launch variables: one scan-in bit per chain for LOS, one held V2
  /// bit per flop for enhanced scan. Empty for LOC (S2 is functional).
  std::vector<std::uint32_t> los_pred;
  std::size_t num_scan_in = 0;

  std::size_t num_flops() const { return active.size(); }
  /// Controllable test variables (scan state, plus launch variables).
  std::size_t num_vars() const { return active.size() + num_scan_in; }
  /// True when S2 comes from test variables (LOS shift / enhanced hold
  /// cells) instead of the functional response.
  bool explicit_s2() const { return scheme != LaunchScheme::kLoc; }

  static TestContext for_domain(const Netlist& nl, DomainId domain,
                                std::uint8_t pi_value = 0) {
    TestContext ctx;
    ctx.domain = domain;
    ctx.active.resize(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      ctx.active[f] = nl.flop(f).domain == domain ? 1 : 0;
    }
    ctx.pi_values.assign(nl.primary_inputs().size(), pi_value);
    return ctx;
  }

  /// LOS context: `chains` gives shift order per chain (scan-in first).
  static TestContext for_domain_los(
      const Netlist& nl, DomainId domain,
      const std::vector<std::vector<FlopId>>& chains,
      std::uint8_t pi_value = 0) {
    TestContext ctx = for_domain(nl, domain, pi_value);
    ctx.scheme = LaunchScheme::kLos;
    ctx.num_scan_in = chains.size();
    ctx.los_pred.assign(nl.num_flops(), 0);
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::uint32_t prev =
          static_cast<std::uint32_t>(nl.num_flops() + c);  // scan-in var
      for (FlopId f : chains[c]) {
        ctx.los_pred[f] = prev;
        prev = f;
      }
    }
    return ctx;
  }

  /// Enhanced scan: hold-scan cells store an independent second vector, so
  /// every flop's launch value is its own free variable.
  static TestContext for_domain_enhanced(const Netlist& nl, DomainId domain,
                                         std::uint8_t pi_value = 0) {
    TestContext ctx = for_domain(nl, domain, pi_value);
    ctx.scheme = LaunchScheme::kEnhanced;
    ctx.num_scan_in = nl.num_flops();
    ctx.los_pred.resize(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      ctx.los_pred[f] = static_cast<std::uint32_t>(nl.num_flops() + f);
    }
    return ctx;
  }

  std::size_t active_count() const {
    std::size_t n = 0;
    for (auto a : active) n += a;
    return n;
  }
};

}  // namespace scap
