// Golden equivalence suite for the streaming analysis pipeline: every
// concrete ToggleSink must be bit-identical (exact ==, never EXPECT_NEAR) to
// the legacy trace-walking analysis of the same simulation, on sinks alone,
// on the Figure 2/6 profiling pipelines and on validate_pattern_ir. Also the
// regression home for cancel-on-reschedule behavior observed through a sink.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "core/experiment.h"
#include "core/pattern_sim.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "layout/parasitics.h"
#include "power/dynamic_ir.h"
#include "sim/scap.h"
#include "sim/vcd.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

const Experiment& exp_fixture() {
  static Experiment* exp = new Experiment(Experiment::standard(0.012, 2007));
  return *exp;
}

void expect_scap_identical(const ScapReport& a, const ScapReport& b) {
  EXPECT_EQ(a.stw_ns, b.stw_ns);
  EXPECT_EQ(a.period_ns, b.period_ns);
  EXPECT_EQ(a.num_toggles, b.num_toggles);
  EXPECT_EQ(a.vdd_energy_pj, b.vdd_energy_pj);
  EXPECT_EQ(a.vss_energy_pj, b.vss_energy_pj);
  EXPECT_EQ(a.vdd_energy_total_pj, b.vdd_energy_total_pj);
  EXPECT_EQ(a.vss_energy_total_pj, b.vss_energy_total_pj);
}

void expect_ir_identical(const DynamicIrReport& a, const DynamicIrReport& b) {
  EXPECT_EQ(a.window_ns, b.window_ns);
  EXPECT_EQ(a.worst_vdd_v, b.worst_vdd_v);
  EXPECT_EQ(a.worst_vss_v, b.worst_vss_v);
  EXPECT_EQ(a.vdd_solution.drop_v, b.vdd_solution.drop_v);
  EXPECT_EQ(a.vss_solution.drop_v, b.vss_solution.drop_v);
  EXPECT_EQ(a.block_worst_vdd_v, b.block_worst_vdd_v);
  EXPECT_EQ(a.block_avg_vdd_v, b.block_avg_vdd_v);
  EXPECT_EQ(a.block_worst_vss_v, b.block_worst_vss_v);
  EXPECT_EQ(a.gate_droop_v, b.gate_droop_v);
  EXPECT_EQ(a.flop_droop_v, b.flop_droop_v);
}

// One warm analyzer, a fanout of every concrete sink, random patterns: each
// sink must agree exactly with the legacy analysis that re-walks the trace.
TEST(StreamEquiv, AllSinksMatchTraceAnalyses) {
  const SocDesign& soc = test::small_soc();
  const Netlist& nl = soc.netlist;
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const PowerGrid grid(soc.floorplan);
  const PatternSet pats = random_pattern_set(12, ctx.num_vars(), 42);

  PatternAnalyzer analyzer(soc, lib);
  const double period = soc.config.tester_period_ns;
  TraceRecorder rec;
  ScapAccumulator scap_acc(analyzer.scap_calculator(), period);
  DynamicIrBinner binner(nl, soc.parasitics, lib);
  SettleTimeTracker settle;

  for (std::size_t i = 0; i < pats.size(); ++i) {
    std::ostringstream vcd_stream;
    VcdSink vcd_sink(nl, vcd_stream, "top");
    FanoutSink fan{&rec, &scap_acc, &binner, &settle, &vcd_sink};
    analyzer.analyze_into(ctx, pats.patterns[i], fan);
    const SimTrace& trace = rec.trace();
    SCOPED_TRACE("pattern " + std::to_string(i));

    // SCAP accumulator vs trace-walking calculator.
    expect_scap_identical(scap_acc.report(),
                          analyzer.scap_calculator().compute(trace, period));

    // Settle-time tracker vs trace-walking settle_times.
    const auto legacy_settle = EventSim::settle_times(trace, nl.num_nets());
    ASSERT_EQ(settle.settle().size(), legacy_settle.size());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(settle.settle()[n], legacy_settle[n]) << "net " << n;
    }

    // IR binner vs the trace-based analyze_pattern_ir.
    expect_ir_identical(
        analyze_pattern_ir(nl, soc.placement, lib, soc.floorplan, grid,
                           binner, &soc.clock_tree, ctx.domain),
        analyze_pattern_ir(nl, soc.placement, soc.parasitics, lib,
                           soc.floorplan, grid, trace, &soc.clock_tree,
                           ctx.domain));

    // VCD sink vs the trace writer: byte-for-byte.
    const std::vector<std::uint8_t> frame1(analyzer.frame1().begin(),
                                           analyzer.frame1().end());
    EXPECT_EQ(vcd_stream.str(), to_vcd(nl, frame1, trace, "top"));
  }
}

// A fanned-out single pass must equal running each sink in its own pass.
TEST(StreamEquiv, FanoutSinglePassMatchesSeparatePasses) {
  const SocDesign& soc = test::small_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  const PatternSet pats = random_pattern_set(4, ctx.num_vars(), 7);
  PatternAnalyzer analyzer(soc, lib);
  const double period = soc.config.tester_period_ns;

  for (const Pattern& p : pats.patterns) {
    ScapAccumulator fan_scap(analyzer.scap_calculator(), period);
    SettleTimeTracker fan_settle;
    FanoutSink fan{&fan_scap, &fan_settle};
    analyzer.analyze_into(ctx, p, fan);
    const ScapReport fanned = fan_scap.report();
    const std::vector<double> fanned_settle(fan_settle.settle().begin(),
                                            fan_settle.settle().end());

    ScapAccumulator solo_scap(analyzer.scap_calculator(), period);
    analyzer.analyze_into(ctx, p, solo_scap);
    SettleTimeTracker solo_settle;
    analyzer.analyze_into(ctx, p, solo_settle);

    expect_scap_identical(fanned, solo_scap.report());
    EXPECT_EQ(fanned_settle,
              std::vector<double>(solo_settle.settle().begin(),
                                  solo_settle.settle().end()));
  }
}

// Figure 2 pipeline: conventional ATPG, then the streaming SCAP profile of
// the whole set vs a per-pattern legacy trace+compute pass.
TEST(StreamEquiv, Fig2ProfileMatchesLegacyTracePath) {
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kRandom;
  const FlowResult flow =
      run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt);
  const std::vector<ScapReport> streamed =
      scap_profile(exp.soc, *exp.lib, exp.ctx, flow.patterns);

  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  const double period = exp.soc.config.tester_period_ns;
  ASSERT_EQ(streamed.size(), flow.patterns.size());
  for (std::size_t i = 0; i < flow.patterns.size(); ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i));
    TraceRecorder rec;
    analyzer.analyze_into(exp.ctx, flow.patterns.patterns[i], rec);
    expect_scap_identical(
        streamed[i], analyzer.scap_calculator().compute(rec.trace(), period));
  }
}

// Figure 6 pipeline: the stepwise power-aware flow, same comparison.
TEST(StreamEquiv, Fig6ProfileMatchesLegacyTracePath) {
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kQuiet;
  const StepPlan plan = StepPlan::paper_default(exp.soc.netlist.block_count());
  const FlowResult flow = run_power_aware_atpg(exp.soc.netlist, exp.ctx,
                                               exp.faults, plan, opt);
  const std::vector<ScapReport> streamed =
      scap_profile(exp.soc, *exp.lib, exp.ctx, flow.patterns);

  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  const double period = exp.soc.config.tester_period_ns;
  ASSERT_EQ(streamed.size(), flow.patterns.size());
  for (std::size_t i = 0; i < flow.patterns.size(); ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i));
    TraceRecorder rec;
    analyzer.analyze_into(exp.ctx, flow.patterns.patterns[i], rec);
    expect_scap_identical(
        streamed[i], analyzer.scap_calculator().compute(rec.trace(), period));
  }
}

// validate_pattern_ir (one streaming pass + grid solves + scaled re-sim) vs
// a hand-rolled composition of the legacy trace-based steps.
TEST(StreamEquiv, ValidatePatternIrMatchesLegacyComposition) {
  const Experiment& exp = exp_fixture();
  const SocDesign& soc = exp.soc;
  const PatternSet pats = random_pattern_set(1, exp.ctx.num_vars(), 2007);
  const Pattern& pattern = pats.patterns[0];

  const IrValidationResult streamed =
      validate_pattern_ir(soc, *exp.lib, exp.grid, exp.ctx, pattern);

  // Legacy composition: two analyze() passes, trace-based IR and endpoints.
  PatternAnalyzer analyzer(soc, *exp.lib);
  const PatternAnalysis nominal = analyzer.analyze(exp.ctx, pattern);
  const DynamicIrReport ir = analyze_pattern_ir(
      soc.netlist, soc.placement, soc.parasitics, *exp.lib, soc.floorplan,
      exp.grid, nominal.trace, &soc.clock_tree, exp.ctx.domain);
  DelayModel scaled_dm = analyzer.nominal_delays();
  scaled_dm.set_droop(*exp.lib, ir.gate_droop_v);
  std::vector<double> nominal_arr(soc.netlist.num_flops());
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    nominal_arr[f] = soc.clock_tree.nominal_arrival_ns(f);
  }
  const std::vector<double> scaled_arr = soc.clock_tree.arrivals_with_droop(
      *exp.lib, [&](Point p) { return ir.droop_at(p); });
  const PatternAnalysis scaled =
      analyzer.analyze(exp.ctx, pattern, &scaled_dm, scaled_arr);

  expect_scap_identical(streamed.nominal.scap, nominal.scap);
  expect_scap_identical(streamed.scaled.scap, scaled.scap);
  EXPECT_EQ(streamed.nominal.frame1_nets, nominal.frame1_nets);
  EXPECT_EQ(streamed.nominal.launched_flops, nominal.launched_flops);
  ASSERT_EQ(streamed.nominal.trace.toggles.size(),
            nominal.trace.toggles.size());
  for (std::size_t i = 0; i < nominal.trace.toggles.size(); ++i) {
    EXPECT_EQ(streamed.nominal.trace.toggles[i].net,
              nominal.trace.toggles[i].net);
    EXPECT_EQ(streamed.nominal.trace.toggles[i].t_ns,
              nominal.trace.toggles[i].t_ns);
    EXPECT_EQ(streamed.nominal.trace.toggles[i].rising,
              nominal.trace.toggles[i].rising);
  }
  expect_ir_identical(streamed.ir, ir);
  EXPECT_EQ(streamed.nominal_arrival_ns, nominal_arr);
  EXPECT_EQ(streamed.scaled_arrival_ns, scaled_arr);
  EXPECT_EQ(streamed.nominal_endpoint_ns,
            analyzer.endpoint_delays(nominal.trace, nominal_arr));
  EXPECT_EQ(streamed.scaled_endpoint_ns,
            analyzer.endpoint_delays(scaled.trace, scaled_arr));
}

// Regression: with unequal rise/fall delays, a later input change can
// schedule an *earlier* output event; the superseded event must be cancelled
// (no phantom pulse reaches the sinks) and counted.
TEST(StreamEquiv, HazardCancellationThroughSink) {
  // Single NAND2 fed by two flop-driven nets.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  const NetId ins[] = {a, b};
  nl.add_gate(CellType::kNand2, ins, y);
  nl.add_flop(/*d=*/y, /*q=*/a, 0, 0);
  nl.add_flop(/*d=*/y, /*q=*/b, 0, 0);
  nl.finalize();

  const Floorplan fp = Floorplan::turbo_eagle_like(100.0, 4);
  Rng rng(1);
  const Placement pl = Placement::place(nl, fp, rng);
  const TechLibrary& lib = TechLibrary::generic180();
  const Parasitics par = Parasitics::extract(nl, pl, lib);
  const DelayModel dm(nl, lib, par);
  const double dr = dm.rise_ns(0);
  const double df = dm.fall_ns(0);
  ASSERT_NE(dr, df) << "test needs asymmetric rise/fall delays";

  // Pulse `a` so the slow edge is scheduled first and the fast edge -- from
  // a later input change -- lands before it and cancels it. With dr > df:
  // a=1,b=1 -> y=0; a drops at 0 (y rise due at dr), a returns at t1 where
  // t1 + df < dr (y fall due first; the pending rise is superseded).
  // Symmetric for df > dr.
  std::vector<std::uint8_t> init(nl.num_nets(), 0);
  std::vector<Stimulus> stims;
  const double t1 = (dr > df ? dr - df : df - dr) / 2.0;
  if (dr > df) {
    init[a] = 1;
    init[b] = 1;
    init[y] = 0;
    stims.push_back(Stimulus{a, 0.0, 0});
    stims.push_back(Stimulus{a, t1, 1});
  } else {
    init[a] = 0;
    init[b] = 1;
    init[y] = 1;
    stims.push_back(Stimulus{a, 0.0, 1});
    stims.push_back(Stimulus{a, t1, 0});
  }

  EventSim sim(nl, dm);
  EventSim::Workspace ws;
  TraceRecorder rec;
  ScapCalculator calc(nl, par, lib);
  ScapAccumulator acc(calc, /*period_ns=*/20.0);
  FanoutSink fan{&rec, &acc};
  sim.run(init, stims, ws, fan);
  const SimTrace& trace = rec.trace();

  // The superseded slow edge was cancelled, and y never pulses: the only
  // committed toggles are the two stimulus edges on `a`.
  EXPECT_GT(trace.num_events_cancelled, 0u);
  ASSERT_EQ(trace.toggles.size(), 2u);
  EXPECT_EQ(trace.toggles[0].net, a);
  EXPECT_EQ(trace.toggles[1].net, a);

  // Streaming accounting still matches the trace-walking calculator.
  const ScapReport legacy = calc.compute(trace, 20.0);
  EXPECT_EQ(acc.report().vdd_energy_total_pj, legacy.vdd_energy_total_pj);
  EXPECT_EQ(acc.report().vss_energy_total_pj, legacy.vss_energy_total_pj);
  EXPECT_EQ(acc.report().stw_ns, legacy.stw_ns);

  // Control: widen the pulse past the slow delay and the hazard propagates
  // (two toggles on y), exactly like the legacy simulator.
  std::vector<Stimulus> wide = stims;
  wide[1].t_ns = (dr > df ? dr : df) + 0.01;
  const SimTrace wide_trace =
      sim.run(init, std::span<const Stimulus>(wide.data(), wide.size()));
  int y_toggles = 0;
  for (const ToggleEvent& t : wide_trace.toggles) y_toggles += (t.net == y);
  EXPECT_EQ(y_toggles, 2) << "wide pulses must still propagate";
}

// The analyzer's workspace must stop allocating once warm: a second pass
// over the same pattern set may not grow any pool.
TEST(StreamEquiv, WorkspaceAllocationFreeWhenWarm) {
  const SocDesign& soc = test::small_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(soc.netlist, 0);
  const PatternSet pats = random_pattern_set(20, ctx.num_vars(), 5);
  PatternAnalyzer analyzer(soc, lib);

  for (const Pattern& p : pats.patterns) analyzer.analyze_scap(ctx, p);
  const std::size_t grown_cold = analyzer.workspace().grown_runs();
  const std::size_t runs_cold = analyzer.workspace().runs();

  for (const Pattern& p : pats.patterns) analyzer.analyze_scap(ctx, p);
  EXPECT_EQ(analyzer.workspace().grown_runs(), grown_cold)
      << "second pass over the same patterns must not allocate";
  EXPECT_EQ(analyzer.workspace().runs(), runs_cold + pats.size());
  EXPECT_GE(analyzer.workspace().reused_runs(), pats.size());
}

}  // namespace
}  // namespace scap
