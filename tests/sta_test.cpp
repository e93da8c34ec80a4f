#include <gtest/gtest.h>

#include "atpg/context.h"
#include "core/pattern_sim.h"
#include "sim/sta.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

struct StaRig {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TechLibrary& lib = TechLibrary::generic180();
  DelayModel dm{nl, lib, soc.parasitics};
  std::vector<double> arrivals;

  StaRig() {
    arrivals.resize(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      arrivals[f] = soc.clock_tree.nominal_arrival_ns(f);
    }
  }
};

TEST(Sta, ArrivalsMonotoneAlongGates) {
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  for (GateId g = 0; g < rig.nl.num_gates(); ++g) {
    const double out = sta.arrival_ns[rig.nl.gate(g).out];
    if (out == StaReport::kNeverTransitions) continue;
    for (NetId in : rig.nl.gate_inputs(g)) {
      const double ia = sta.arrival_ns[in];
      if (ia == StaReport::kNeverTransitions) continue;
      EXPECT_GE(out, ia) << "gate " << g;
    }
  }
}

TEST(Sta, PiConesNeverTransition) {
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  for (NetId pi : rig.nl.primary_inputs()) {
    EXPECT_EQ(sta.arrival_ns[pi], StaReport::kNeverTransitions);
  }
}

TEST(Sta, BoundsEventSimulation) {
  // Soundness of STA: no simulated transition settles after its net's STA
  // arrival (the event simulator sees one input vector; STA covers all).
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  const TestContext ctx = TestContext::for_domain(rig.nl, 0);
  PatternAnalyzer analyzer(rig.soc, rig.lib);
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    Pattern p;
    p.s1.resize(rig.nl.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    SettleTimeTracker tracker;
    analyzer.analyze_into(ctx, p, tracker);
    const std::span<const double> settle = tracker.settle();
    for (NetId n = 0; n < rig.nl.num_nets(); ++n) {
      if (settle[n] <= 0.0) continue;
      ASSERT_LE(settle[n], sta.arrival_ns[n] + 1e-6)
          << "net " << n << " trial " << trial;
    }
  }
}

TEST(Sta, WorstEndpointConsistent) {
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  ASSERT_NE(sta.worst_endpoint, kNullId);
  for (FlopId f = 0; f < rig.nl.num_flops(); ++f) {
    EXPECT_LE(sta.endpoint_ns[f], sta.worst_endpoint_ns + 1e-12);
  }
  EXPECT_DOUBLE_EQ(sta.endpoint_ns[sta.worst_endpoint],
                   sta.worst_endpoint_ns);
}

TEST(Sta, SlackAndMinPeriodAgree) {
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  const double setup = 0.1;
  const double tmin = sta.min_period_ns(setup, rig.arrivals, rig.nl);
  EXPECT_GT(tmin, 0.0);
  // At exactly the min period, worst slack ~ 0; below it, negative.
  EXPECT_NEAR(sta.worst_slack_ns(tmin, setup, rig.arrivals, rig.nl), 0.0, 1e-9);
  EXPECT_LT(sta.worst_slack_ns(0.9 * tmin, setup, rig.arrivals, rig.nl), 0.0);
  EXPECT_GT(sta.worst_slack_ns(1.1 * tmin, setup, rig.arrivals, rig.nl), 0.0);
}

TEST(Sta, DesignMeetsItsFunctionalPeriod) {
  // The generated SOC should close timing at its 10 ns functional period
  // (with margin for the clock skew).
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  const double tmin = sta.min_period_ns(0.1, rig.arrivals, rig.nl);
  EXPECT_LT(tmin, rig.soc.period_ns(0));
}

TEST(Sta, CriticalPathWalksToALaunchPoint) {
  StaRig rig;
  const StaReport sta = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  const auto path = critical_path(rig.nl, sta, sta.worst_endpoint);
  ASSERT_GT(path.size(), 1u);
  // Endpoint first; arrivals decrease along the walk; ends at a flop Q.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(sta.arrival_ns[path[i]], sta.arrival_ns[path[i - 1]] + 1e-12);
  }
  const Net& last = rig.nl.net(path.back());
  EXPECT_EQ(last.driver_kind, DriverKind::kFlop);
}

TEST(Sta, DroopStretchesArrivals) {
  StaRig rig;
  const StaReport nominal = run_sta(rig.nl, rig.dm, rig.lib, rig.arrivals);
  DelayModel slow = rig.dm;
  std::vector<double> droop(rig.nl.num_gates(), 0.15);
  slow.set_droop(rig.lib, droop);
  const StaReport stressed = run_sta(rig.nl, slow, rig.lib, rig.arrivals);
  EXPECT_GT(stressed.worst_endpoint_ns, nominal.worst_endpoint_ns);
}

}  // namespace
}  // namespace scap
