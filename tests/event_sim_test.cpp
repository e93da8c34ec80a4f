#include <gtest/gtest.h>

#include <stdexcept>

#include "atpg/context.h"
#include "core/pattern_sim.h"
#include "layout/parasitics.h"
#include "ref/ref_models.h"
#include "sim/event_sim.h"
#include "sim/vcd.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

/// Inverter chain q0 -> inv -> inv -> ... -> d0; returns the netlist.
Netlist inv_chain(int n) {
  Netlist nl;
  const NetId q = nl.add_net("q0");
  NetId cur = q;
  for (int i = 0; i < n; ++i) {
    const NetId out = nl.add_net();
    const NetId ins[] = {cur};
    nl.add_gate(CellType::kInv, ins, out);
    cur = out;
  }
  nl.add_flop(cur, q, 0, 0);
  nl.finalize();
  return nl;
}

struct Rig {
  Netlist nl;
  Floorplan fp = Floorplan::turbo_eagle_like(100.0, 4);
  Placement pl;
  Parasitics par;
  DelayModel dm;

  explicit Rig(Netlist n)
      : nl(std::move(n)),
        pl([&] {
          Rng rng(1);
          return Placement::place(nl, fp, rng);
        }()),
        par(Parasitics::extract(nl, pl, TechLibrary::generic180())),
        dm(nl, TechLibrary::generic180(), par) {}
};

TEST(EventSim, ChainDelaysAccumulate) {
  Rig rig(inv_chain(4));
  const Netlist& nl = rig.nl;
  // Settle: q0=0 -> alternating 1,0,1,0 along the chain.
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(nl, std::vector<std::uint8_t>{0}, {});

  EventSim sim(nl, rig.dm);
  const Stimulus stim{nl.flop(0).q, 0.0, 1};
  const SimTrace trace = sim.run(init, std::span<const Stimulus>(&stim, 1));

  // One toggle per chain stage plus the stimulus itself.
  ASSERT_EQ(trace.toggles.size(), 5u);
  double prev = -1.0;
  for (const ToggleEvent& t : trace.toggles) {
    EXPECT_GT(t.t_ns, prev);  // strictly increasing along the chain
    prev = t.t_ns;
  }
  // STW equals the sum of the stage delays.
  double expect = 0.0;
  std::uint8_t v = 1;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    v ^= 1;  // inverter flips; delay depends on output edge
    expect += v ? rig.dm.rise_ns(g) : rig.dm.fall_ns(g);
  }
  EXPECT_NEAR(trace.last_toggle_ns, expect, 1e-9);
}

TEST(EventSim, NoStimulusNoToggles) {
  Rig rig(inv_chain(3));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  const SimTrace trace = sim.run(init, {});
  EXPECT_TRUE(trace.toggles.empty());
  EXPECT_EQ(trace.last_toggle_ns, 0.0);
}

TEST(EventSim, StimulusEqualToCurrentValueAbsorbed) {
  Rig rig(inv_chain(3));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  const Stimulus stim{rig.nl.flop(0).q, 0.0, init[rig.nl.flop(0).q]};
  const SimTrace trace = sim.run(init, std::span<const Stimulus>(&stim, 1));
  EXPECT_TRUE(trace.toggles.empty());
}

/// Reconvergent circuit where a long reconvergence path makes a hazard
/// pulse wider than the XOR's own delay, so it must propagate:
///   q0 ------------------------+
///                              XOR -> d0
///   q0 -> BUF -> BUF -> BUF ---+
TEST(EventSim, GlitchOnReconvergence) {
  Netlist nl;
  const NetId q = nl.add_net("q0");
  NetId slow = q;
  for (int i = 0; i < 3; ++i) {
    const NetId out = nl.add_net();
    const NetId bi[] = {slow};
    nl.add_gate(CellType::kBuf, bi, out);
    slow = out;
  }
  const NetId y = nl.add_net("y");
  const NetId xin[] = {q, slow};
  nl.add_gate(CellType::kXor2, xin, y);
  nl.add_flop(y, q, 0, 0);
  nl.finalize();

  Rig rig(std::move(nl));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  ASSERT_EQ(init[y], 0);  // xor(0, 0)

  EventSim sim(rig.nl, rig.dm);
  const Stimulus stim{q, 0.0, 1};
  const SimTrace trace = sim.run(init, std::span<const Stimulus>(&stim, 1));
  // y pulses high while the slow path lags, then returns: two y toggles.
  int y_toggles = 0;
  for (const ToggleEvent& t : trace.toggles) y_toggles += (t.net == y);
  EXPECT_EQ(y_toggles, 2) << "wide hazard pulses must propagate";
  // Final value settles back to the zero-delay result.
  std::uint8_t final_y = init[y];
  for (const ToggleEvent& t : trace.toggles) {
    if (t.net == y) final_y = t.rising ? 1 : 0;
  }
  EXPECT_EQ(final_y, 0);
}

TEST(EventSim, FinalValuesMatchZeroDelayFrame2) {
  // The fundamental consistency property: after all events settle, the
  // event-driven simulation must agree with the zero-delay evaluation of the
  // post-launch state.
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  Rng rng(2024);

  for (int trial = 0; trial < 8; ++trial) {
    Pattern p;
    p.s1.resize(nl.num_flops());
    for (auto& b : p.s1) b = static_cast<std::uint8_t>(rng.below(2));
    const PatternAnalysis pa = analyzer.analyze(ctx, p);

    // Reconstruct final values from initial values + toggles.
    std::vector<std::uint8_t> final_vals = pa.frame1_nets;
    for (const ToggleEvent& t : pa.trace.toggles) {
      final_vals[t.net] = t.rising ? 1 : 0;
    }
    // Zero-delay frame 2.
    std::vector<std::uint8_t> s2(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      s2[f] = ctx.active[f] ? pa.frame1_nets[nl.flop(f).d] : p.s1[f];
    }
    const std::vector<std::uint8_t> f2 =
        ref::eval_frame_ref(nl, s2, ctx.pi_values);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(final_vals[n], f2[n]) << "trial " << trial << " net " << n;
    }
  }
}

TEST(PatternAnalyzer, RejectsPatternShorterThanTheContext) {
  const SocDesign& soc = test::tiny_soc();
  const TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  Pattern p;
  p.s1.assign(3, 1);
  EXPECT_THROW(analyzer.analyze_scap(ctx, p), std::invalid_argument);
}

TEST(EventSim, SettleTimes) {
  Rig rig(inv_chain(2));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  const Stimulus stim{rig.nl.flop(0).q, 1.5, 1};
  const SimTrace trace = sim.run(init, std::span<const Stimulus>(&stim, 1));
  const auto settle = EventSim::settle_times(trace, rig.nl.num_nets());
  EXPECT_DOUBLE_EQ(settle[rig.nl.flop(0).q], 1.5);
  EXPECT_GT(settle[rig.nl.gate(0).out], 1.5);
  EXPECT_GT(settle[rig.nl.gate(1).out], settle[rig.nl.gate(0).out]);
}

TEST(DelayModel, DroopScalesDelays) {
  Rig rig(inv_chain(3));
  const TechLibrary& lib = TechLibrary::generic180();
  DelayModel dm = rig.dm;
  const double base = dm.rise_ns(1);
  std::vector<double> droop(rig.nl.num_gates(), 0.1);  // 100 mV everywhere
  dm.set_droop(lib, droop);
  EXPECT_NEAR(dm.rise_ns(1), base * (1.0 + lib.k_volt() * 0.1), 1e-12);
  dm.set_droop(lib, {});  // reset
  EXPECT_DOUBLE_EQ(dm.rise_ns(1), base);
}

TEST(DelayModel, SetDroopValidatesSize) {
  Rig rig(inv_chain(3));
  const TechLibrary& lib = TechLibrary::generic180();
  DelayModel dm = rig.dm;
  const std::vector<double> wrong(rig.nl.num_gates() + 1, 0.05);
  EXPECT_THROW(dm.set_droop(lib, wrong), std::invalid_argument);
  const std::vector<double> short_vec(rig.nl.num_gates() - 1, 0.05);
  EXPECT_THROW(dm.set_droop(lib, short_vec), std::invalid_argument);
  // The failed calls must not have corrupted the model.
  EXPECT_DOUBLE_EQ(dm.rise_ns(1), rig.dm.rise_ns(1));
}

TEST(Vcd, WellFormedOutput) {
  Rig rig(inv_chain(2));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  const Stimulus stim{rig.nl.flop(0).q, 0.0, 1};
  const SimTrace trace = sim.run(init, std::span<const Stimulus>(&stim, 1));

  const std::string vcd = to_vcd(rig.nl, init, trace, "chain");
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module chain $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  // One $var per net.
  std::size_t vars = 0, pos = 0;
  while ((pos = vcd.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, rig.nl.num_nets());
  // Timestamps strictly: at least one '#' record.
  EXPECT_NE(vcd.find("\n#0"), std::string::npos);
}

}  // namespace
}  // namespace scap
