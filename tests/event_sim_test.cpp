#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "atpg/context.h"
#include "core/pattern_sim.h"
#include "layout/parasitics.h"
#include "ref/compare.h"
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

/// Runs the engine and the reference on the same input, expects equal
/// toggles and SimStats, and returns the engine's trace.
ref::SimTrace expect_matches_ref(const Netlist& nl, const DelayModel& dm,
                                 std::span<const std::uint8_t> init,
                                 std::span<const Stimulus> stims) {
  const ref::SimTrace got = test::record_trace(EventSim(nl, dm), init, stims);
  const ref::SimTrace want = ref::EventSimRef(nl, dm).run(init, stims);
  std::string why;
  EXPECT_TRUE(ref::compare_traces(got, want, &why)) << why;
  return got;
}

TEST(EventSim, ChainDelaysAccumulate) {
  Rig rig(inv_chain(4));
  const Netlist& nl = rig.nl;
  // Settle: q0=0 -> alternating 1,0,1,0 along the chain.
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(nl, std::vector<std::uint8_t>{0}, {});

  EventSim sim(nl, rig.dm);
  const Stimulus stim{nl.flop(0).q, 0.0, 1};
  const ref::SimTrace trace =
      test::record_trace(sim, init, std::span<const Stimulus>(&stim, 1));

  // One toggle per chain stage plus the stimulus itself.
  ASSERT_EQ(trace.toggles.size(), 5u);
  double prev = -1.0;
  for (const ref::ToggleEvent& t : trace.toggles) {
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
  const ref::SimTrace trace = test::record_trace(sim, init, {});
  EXPECT_TRUE(trace.toggles.empty());
  EXPECT_EQ(trace.last_toggle_ns, 0.0);
}

TEST(EventSim, StimulusEqualToCurrentValueAbsorbed) {
  Rig rig(inv_chain(3));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  const Stimulus stim{rig.nl.flop(0).q, 0.0, init[rig.nl.flop(0).q]};
  const ref::SimTrace trace =
      test::record_trace(sim, init, std::span<const Stimulus>(&stim, 1));
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
  const ref::SimTrace trace =
      test::record_trace(sim, init, std::span<const Stimulus>(&stim, 1));
  // y pulses high while the slow path lags, then returns: two y toggles.
  int y_toggles = 0;
  for (const ref::ToggleEvent& t : trace.toggles) y_toggles += (t.net == y);
  EXPECT_EQ(y_toggles, 2) << "wide hazard pulses must propagate";
  // Final value settles back to the zero-delay result.
  std::uint8_t final_y = init[y];
  for (const ref::ToggleEvent& t : trace.toggles) {
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
    const ref::SimTrace trace = test::record_trace(analyzer, ctx, p);
    const std::vector<std::uint8_t> frame1(analyzer.frame1().begin(),
                                           analyzer.frame1().end());

    // Reconstruct final values from initial values + toggles.
    std::vector<std::uint8_t> final_vals = frame1;
    for (const ref::ToggleEvent& t : trace.toggles) {
      final_vals[t.net] = t.rising ? 1 : 0;
    }
    // Zero-delay frame 2.
    std::vector<std::uint8_t> s2(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      s2[f] = ctx.active[f] ? frame1[nl.flop(f).d] : p.s1[f];
    }
    const std::vector<std::uint8_t> f2 =
        ref::eval_frame_ref(nl, s2, ctx.pi_values);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ASSERT_EQ(final_vals[n], f2[n]) << "trial " << trial << " net " << n;
    }
  }
}

TEST(EventSim, RejectsMissizedInitialStateAndStrayStimulus) {
  Rig rig(inv_chain(3));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  EventSim::Workspace ws;
  SettleTimeTracker sink;
  const Stimulus stim{rig.nl.flop(0).q, 0.0, 1};
  const std::vector<std::uint8_t> short_init(3, 0);
  ASSERT_LT(short_init.size(), rig.nl.num_nets());
  EXPECT_THROW(sim.run(short_init, std::span<const Stimulus>(&stim, 1), ws,
                       sink),
               std::invalid_argument);
  const Stimulus stray{static_cast<NetId>(rig.nl.num_nets()), 0.0, 1};
  EXPECT_THROW(sim.run(init, std::span<const Stimulus>(&stray, 1), ws, sink),
               std::invalid_argument);
  // A rejected call leaves the workspace usable.
  sim.run(init, std::span<const Stimulus>(&stim, 1), ws, sink);
  EXPECT_GT(sink.settle()[rig.nl.gate(2).out], 0.0);
}

TEST(EventSim, RejectsNonFiniteTimesAndNonBinaryValues) {
  Rig rig(inv_chain(3));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  EventSim::Workspace ws;
  SettleTimeTracker sink;
  const NetId q = rig.nl.flop(0).q;
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    const Stimulus bad{q, t, 1};
    EXPECT_THROW(sim.run(init, std::span<const Stimulus>(&bad, 1), ws, sink),
                 std::invalid_argument);
  }
  const Stimulus two{q, 0.0, 2};
  EXPECT_THROW(sim.run(init, std::span<const Stimulus>(&two, 1), ws, sink),
               std::invalid_argument);
  std::vector<std::uint8_t> bad_init = init;
  bad_init[q] = 2;
  EXPECT_THROW(sim.run(bad_init, {}, ws, sink), std::invalid_argument);
}

// The queue's edge cases, each checked against the reference simulator.

TEST(EventSimQueue, ElidedNoOpCancelledByEarlierRescheduleIsCounted) {
  // y = OR(a, b) = 1 from a. b rising re-evaluates y to 1 at t = dr, a no-op
  // that never enters the queue; a falling at t1 does so again at t1 + dr.
  // b falling just after t1 schedules y's fall at t2 + df, and as OR falls
  // faster than it rises, that lands before the second no-op and cancels it.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  const NetId ins[] = {a, b};
  nl.add_gate(CellType::kOr2, ins, y);
  nl.add_flop(y, a, 0, 0);
  nl.add_flop(y, b, 0, 0);
  nl.finalize();
  Rig rig(std::move(nl));
  const double dr = rig.dm.rise_ns(0);
  const double df = rig.dm.fall_ns(0);
  ASSERT_GT(dr, df) << "test needs OR2 to fall faster than it rises";

  std::vector<std::uint8_t> init(rig.nl.num_nets(), 0);
  init[a] = 1;
  init[y] = 1;
  const double t1 = 2.0 * dr;
  const double t2 = t1 + (dr - df) / 2.0;
  const std::vector<Stimulus> stims = {{b, 0.0, 1}, {a, t1, 0}, {b, t2, 0}};
  const ref::SimTrace trace = expect_matches_ref(rig.nl, rig.dm, init, stims);
  EXPECT_EQ(trace.num_events_cancelled, 1u);
  // Three stimuli and three evaluations of y, the last of them a toggle.
  EXPECT_EQ(trace.num_events_processed, 6u);
  ASSERT_EQ(trace.toggles.size(), 4u);
  EXPECT_EQ(trace.toggles.back().net, y);
  EXPECT_FALSE(trace.toggles.back().rising);
}

TEST(EventSimQueue, EqualTimeStimuliOnBothInputsOfAGate) {
  // a and b feed an XOR, an AND and a NAND; both change at the same instant,
  // so each gate evaluates twice at that time and the stamp order of the two
  // stimuli decides which evaluation schedules first.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId x = nl.add_net("x");
  const NetId n = nl.add_net("n");
  const NetId m = nl.add_net("m");
  const NetId ins[] = {a, b};
  nl.add_gate(CellType::kXor2, ins, x);
  nl.add_gate(CellType::kAnd2, ins, n);
  nl.add_gate(CellType::kNand2, ins, m);
  nl.add_flop(x, a, 0, 0);
  nl.add_flop(n, b, 0, 0);
  nl.finalize();
  Rig rig(std::move(nl));
  for (const std::uint8_t a0 : {0, 1}) {
    for (const std::uint8_t b0 : {0, 1}) {
      const std::vector<std::uint8_t> init = ref::eval_frame_ref(
          rig.nl, std::vector<std::uint8_t>{a0, b0}, {});
      const Stimulus sa{a, 1.0, static_cast<std::uint8_t>(a0 ^ 1)};
      const Stimulus sb{b, 1.0, static_cast<std::uint8_t>(b0 ^ 1)};
      for (const auto& stims : {std::vector<Stimulus>{sa, sb},
                                std::vector<Stimulus>{sb, sa}}) {
        SCOPED_TRACE("a0 " + std::to_string(a0) + " b0 " + std::to_string(b0));
        const ref::SimTrace t = expect_matches_ref(rig.nl, rig.dm, init, stims);
        // x = a ^ b ends where it began: it either stays or pulses, as the
        // edge of the first evaluation is the slow or the fast one.
        std::size_t x_toggles = 0;
        for (const ref::ToggleEvent& e : t.toggles) x_toggles += e.net == x;
        EXPECT_EQ(x_toggles % 2, 0u);
      }
    }
  }
}

TEST(EventSimQueue, TieCellFeedsLogicAcrossManyBucketWidths) {
  // TIE1 -> AND(a, tie) -> NAND(., b) -> INV -> XOR(., a): the zero-delay tie
  // must not set the queue's width, and stimuli spread from a fraction of a
  // width to far past the calendar's ring must still commit in time order.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId tie = nl.add_net("tie");
  const NetId y1 = nl.add_net("y1");
  const NetId y2 = nl.add_net("y2");
  const NetId y3 = nl.add_net("y3");
  const NetId y4 = nl.add_net("y4");
  nl.add_gate(CellType::kTie1, std::span<const NetId>{}, tie);
  const NetId and_in[] = {a, tie};
  nl.add_gate(CellType::kAnd2, and_in, y1);
  const NetId nand_in[] = {y1, b};
  nl.add_gate(CellType::kNand2, nand_in, y2);
  const NetId inv_in[] = {y2};
  nl.add_gate(CellType::kInv, inv_in, y3);
  const NetId xor_in[] = {y3, a};
  nl.add_gate(CellType::kXor2, xor_in, y4);
  nl.add_flop(y4, a, 0, 0);
  nl.add_flop(y3, b, 0, 0);
  nl.finalize();
  Rig rig(std::move(nl));

  double min_with_inputs = std::numeric_limits<double>::infinity();
  for (GateId g = 0; g < rig.nl.num_gates(); ++g) {
    if (rig.nl.gate_inputs(g).empty()) {
      EXPECT_EQ(rig.dm.rise_ns(g), 0.0);  // the tie cell
      continue;
    }
    min_with_inputs = std::min({min_with_inputs, rig.dm.rise_ns(g),
                                rig.dm.fall_ns(g)});
  }
  const double w = rig.dm.min_gate_delay_ns();
  ASSERT_GT(w, 0.0);
  EXPECT_EQ(w, min_with_inputs);

  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0, 0}, {});
  ASSERT_EQ(init[tie], 1);
  std::vector<Stimulus> stims;
  std::uint8_t va = 0;
  std::uint8_t vb = 0;
  const double days[] = {0.0,    0.4,    3.0,    1023.6, 1024.0, 1025.2,
                         2047.9, 5000.0, 5000.5, 7e5,    7e5 + 2.0};
  for (std::size_t i = 0; i < std::size(days); ++i) {
    va ^= 1;
    stims.push_back({a, days[i] * w, va});
    if (i % 3 == 1) {
      vb ^= 1;
      stims.push_back({b, days[i] * w, vb});  // equal time to a's change
    }
  }
  // Unsorted on purpose: the engine must not rely on stimulus order.
  std::swap(stims[1], stims[stims.size() - 2]);
  const ref::SimTrace trace = expect_matches_ref(rig.nl, rig.dm, init, stims);
  EXPECT_GT(trace.toggles.size(), stims.size());
  EXPECT_GT(trace.last_toggle_ns, 7e5 * w);
}

TEST(EventSimQueue, ZeroDelayEventsLandInTheDayBeingDrained) {
  // A library whose buffers have no delay: a buffer's output event falls at
  // the very time of its input change, inside the calendar day being
  // drained, and must still commit in (time, stamp) order.
  const TechLibrary& base = TechLibrary::generic180();
  std::array<CellTiming, kNumCellTypes> cells{};
  for (std::size_t c = 0; c < kNumCellTypes; ++c) {
    cells[c] = base.timing(static_cast<CellType>(c));
  }
  auto& buf = cells[static_cast<std::size_t>(CellType::kBuf)];
  buf.intrinsic_rise_ns = buf.intrinsic_fall_ns = buf.drive_res_ns_per_pf = 0.0;
  const TechLibrary lib(base.vdd(), base.k_volt(), base.ir_alarm_fraction(),
                        cells);

  // a -> BUF -> BUF -> XOR(., a) -> NAND(., b) -> BUF -> AND(., b)
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  NetId cur = a;
  for (int i = 0; i < 2; ++i) {
    const NetId out = nl.add_net();
    const NetId in[] = {cur};
    nl.add_gate(CellType::kBuf, in, out);
    cur = out;
  }
  const NetId x = nl.add_net("x");
  const NetId xor_in[] = {cur, a};
  nl.add_gate(CellType::kXor2, xor_in, x);
  const NetId n = nl.add_net("n");
  const NetId nand_in[] = {x, b};
  nl.add_gate(CellType::kNand2, nand_in, n);
  const NetId nb = nl.add_net("nb");
  const NetId buf_in[] = {n};
  nl.add_gate(CellType::kBuf, buf_in, nb);
  const NetId y = nl.add_net("y");
  const NetId and_in[] = {nb, b};
  nl.add_gate(CellType::kAnd2, and_in, y);
  nl.add_flop(y, a, 0, 0);
  nl.add_flop(n, b, 0, 0);
  nl.finalize();
  Rig rig(std::move(nl));
  const DelayModel dm(rig.nl, lib, rig.par);
  ASSERT_EQ(dm.rise_ns(0), 0.0);
  ASSERT_GT(dm.min_gate_delay_ns(), 0.0);

  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0, 1}, {});
  const double w = dm.min_gate_delay_ns();
  const std::vector<Stimulus> stims = {
      {a, 0.0, 1}, {b, 0.0, 0}, {b, 0.5 * w, 1}, {a, 0.5 * w, 0},
      {a, 3.0 * w, 1}, {b, 3.0 * w, 0}};
  const ref::SimTrace trace = expect_matches_ref(rig.nl, dm, init, stims);
  EXPECT_GT(trace.toggles.size(), stims.size());
}

TEST(EventSimQueue, AlternatingDelayModelsMatchRefAndStayWarm) {
  // validate_pattern_ir's shape: one analyzer, a nominal and a droop-scaled
  // model in turn. The queue's width changes with every pass.
  const SocDesign& soc = test::small_soc();
  const Netlist& nl = soc.netlist;
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const PatternSet pats = random_pattern_set(10, ctx.num_vars(), 61);
  PatternAnalyzer analyzer(soc, lib);
  DelayModel scaled = analyzer.nominal_delays();
  Rng rng(8);
  std::vector<double> droop(nl.num_gates());
  for (double& v : droop) v = rng.uniform(0.0, 0.3);
  scaled.set_droop(lib, droop);
  ASSERT_GT(scaled.min_gate_delay_ns(),
            analyzer.nominal_delays().min_gate_delay_ns());

  std::size_t grown_after_first_pass = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < pats.size(); ++i) {
      const bool use_scaled = i % 2 == 1;
      ref::TraceRecorder rec;
      analyzer.analyze_into(ctx, pats.patterns[i], rec,
                            use_scaled ? &scaled : nullptr);
      const ref::SimTrace want =
          ref::EventSimRef(nl, use_scaled ? scaled : analyzer.nominal_delays())
              .run(analyzer.frame1(), analyzer.stimuli());
      std::string why;
      EXPECT_TRUE(ref::compare_traces(rec.trace(), want, &why))
          << "pass " << pass << " pattern " << i << ": " << why;
    }
    if (pass == 0) grown_after_first_pass = analyzer.workspace().grown_runs();
  }
  EXPECT_EQ(analyzer.workspace().grown_runs(), grown_after_first_pass)
      << "the warm workspace grew on a repeated pass";
}

TEST(PatternAnalyzer, RejectsMissizedClockArrivals) {
  const SocDesign& soc = test::tiny_soc();
  const TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  Pattern p;
  p.s1.assign(ctx.num_vars(), 1);
  SettleTimeTracker sink;
  const std::vector<double> arrivals(2, 0.5);
  ASSERT_NE(arrivals.size(), soc.netlist.num_flops());
  EXPECT_THROW(analyzer.analyze_into(ctx, p, sink, nullptr, arrivals),
               std::invalid_argument);
}

TEST(PatternAnalyzer, EndpointDelaysRejectMissizedInputs) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  PatternAnalyzer analyzer(soc, TechLibrary::generic180());
  const std::vector<double> settle(nl.num_nets(), 1.0);
  const std::vector<double> arrivals(nl.num_flops(), 0.5);
  EXPECT_EQ(analyzer.endpoint_delays_from_settle(settle, arrivals).size(),
            nl.num_flops());
  EXPECT_THROW(analyzer.endpoint_delays_from_settle(
                   std::span<const double>(settle).first(nl.num_nets() - 1),
                   arrivals),
               std::invalid_argument);
  EXPECT_THROW(analyzer.endpoint_delays_from_settle(
                   settle, std::span<const double>(arrivals).first(2)),
               std::invalid_argument);
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
  EventSim::Workspace ws;
  SettleTimeTracker tracker;
  const Stimulus stim{rig.nl.flop(0).q, 1.5, 1};
  sim.run(init, std::span<const Stimulus>(&stim, 1), ws, tracker);
  const std::span<const double> settle = tracker.settle();
  ASSERT_EQ(settle.size(), rig.nl.num_nets());
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

TEST(DelayModel, SetDroopRejectsNonFiniteAndNonPositiveDerating) {
  Rig rig(inv_chain(3));
  const TechLibrary& lib = TechLibrary::generic180();
  DelayModel dm = rig.dm;
  const double kill = -1.0 / lib.k_volt();  // 1 + k_volt * droop == 0
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), kill,
                           2.0 * kill}) {
    std::vector<double> droop(rig.nl.num_gates(), 0.05);
    droop[1] = bad;
    EXPECT_THROW(dm.set_droop(lib, droop), std::invalid_argument) << bad;
    // Validated before any change: the model is still nominal.
    for (GateId g = 0; g < rig.nl.num_gates(); ++g) {
      EXPECT_EQ(dm.rise_ns(g), rig.dm.rise_ns(g));
      EXPECT_EQ(dm.fall_ns(g), rig.dm.fall_ns(g));
    }
    EXPECT_EQ(dm.min_gate_delay_ns(), rig.dm.min_gate_delay_ns());
  }
  // A small negative droop (overshoot) still derates to a positive delay.
  const std::vector<double> overshoot(rig.nl.num_gates(), 0.5 * kill);
  dm.set_droop(lib, overshoot);
  EXPECT_NEAR(dm.rise_ns(1), 0.5 * rig.dm.rise_ns(1), 1e-12);
}

TEST(DelayModel, MinGateDelayFollowsDroop) {
  Rig rig(inv_chain(3));
  const TechLibrary& lib = TechLibrary::generic180();
  DelayModel dm = rig.dm;
  double expect = std::numeric_limits<double>::infinity();
  for (GateId g = 0; g < rig.nl.num_gates(); ++g) {
    expect = std::min({expect, dm.rise_ns(g), dm.fall_ns(g)});
  }
  EXPECT_EQ(dm.min_gate_delay_ns(), expect);
  const std::vector<double> droop(rig.nl.num_gates(), 0.1);
  dm.set_droop(lib, droop);
  EXPECT_NEAR(dm.min_gate_delay_ns(), expect * (1.0 + lib.k_volt() * 0.1),
              1e-12);
  dm.set_droop(lib, {});
  EXPECT_EQ(dm.min_gate_delay_ns(), expect);
}

TEST(Vcd, WellFormedOutput) {
  Rig rig(inv_chain(2));
  const std::vector<std::uint8_t> init =
      ref::eval_frame_ref(rig.nl, std::vector<std::uint8_t>{0}, {});
  EventSim sim(rig.nl, rig.dm);
  EventSim::Workspace ws;
  std::ostringstream os;
  VcdSink sink(rig.nl, os, "chain");
  const Stimulus stim{rig.nl.flop(0).q, 0.0, 1};
  sim.run(init, std::span<const Stimulus>(&stim, 1), ws, sink);

  const std::string vcd = os.str();
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
