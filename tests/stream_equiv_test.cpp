// Sink-vs-reference suite for the streaming analysis pipeline: every
// concrete ToggleSink is checked against what the reference simulator's
// trace of the same simulation input implies (ref::EventSimRef replaying the
// analyzer's frame1() / stimuli()), on sinks alone, on the Figure 2/6
// profiling pipelines and through validate_pattern_ir. Also the regression
// home for cancel-on-reschedule behavior observed through a sink.
//
// What "matches" means per sink:
//  - ScapAccumulator: ref::compare_scap against ref::scap_ref (Kahan sums,
//    so tolerance-aware; see ref/compare.h);
//  - SettleTimeTracker: each net's last reference timestamp, exactly;
//  - DynamicIrBinner: charges binned here from the reference toggles,
//    exactly (same commit order, so the same sums);
//  - VcdSink: the $dumpvars snapshot is frame 1 and the value-change lines
//    are the reference toggles, in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "core/experiment.h"
#include "core/pattern_sim.h"
#include "core/power_aware.h"
#include "core/validation.h"
#include "layout/parasitics.h"
#include "power/dynamic_ir.h"
#include "ref/compare.h"
#include "ref/ref_models.h"
#include "ref/trace.h"
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

/// Reference trace of the analyzer's most recent pass under `dm`.
ref::SimTrace reference_trace(const SocDesign& soc,
                              const PatternAnalyzer& analyzer,
                              const DelayModel& dm) {
  return ref::EventSimRef(soc.netlist, dm)
      .run(analyzer.frame1(), analyzer.stimuli());
}

void expect_scap_matches(const ScapReport& got, const SocDesign& soc,
                         const TechLibrary& lib, const ref::SimTrace& rt) {
  const ScapReport want = ref::scap_ref(soc.netlist, soc.parasitics, lib, rt,
                                        soc.config.tester_period_ns);
  std::string why;
  EXPECT_TRUE(ref::compare_scap(got, want, &why)) << why;
}

/// Per-net settle time: the last reference timestamp (0 when untouched).
std::vector<double> reference_settle(const Netlist& nl,
                                     const ref::SimTrace& rt) {
  std::vector<double> settle(nl.num_nets(), 0.0);
  for (const ref::ToggleEvent& t : rt.toggles) {
    settle[t.net] = static_cast<double>(t.t_ns);
  }
  return settle;
}

/// Switched charge per driving instance and rail, binned from the reference
/// toggles; the window is the reference switching window (at least 1 ps).
RailCharges reference_charges(const SocDesign& soc, const TechLibrary& lib,
                              const ref::SimTrace& rt) {
  const Netlist& nl = soc.netlist;
  RailCharges q;
  q.gate_vdd_pc.assign(nl.num_gates(), 0.0);
  q.gate_vss_pc.assign(nl.num_gates(), 0.0);
  q.flop_vdd_pc.assign(nl.num_flops(), 0.0);
  q.flop_vss_pc.assign(nl.num_flops(), 0.0);
  for (const ref::ToggleEvent& t : rt.toggles) {
    const double q_pc = soc.parasitics.net_load_pf(t.net) * lib.vdd();
    const Net& nr = nl.net(t.net);
    if (nr.driver_kind == DriverKind::kGate) {
      (t.rising ? q.gate_vdd_pc : q.gate_vss_pc)[nr.driver] += q_pc;
    } else if (nr.driver_kind == DriverKind::kFlop) {
      (t.rising ? q.flop_vdd_pc : q.flop_vss_pc)[nr.driver] += q_pc;
    }
  }
  q.window_ns = std::max(rt.stw_ns(), 1e-3);
  return q;
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

void expect_charges_identical(const RailCharges& a, const RailCharges& b) {
  EXPECT_EQ(a.gate_vdd_pc, b.gate_vdd_pc);
  EXPECT_EQ(a.gate_vss_pc, b.gate_vss_pc);
  EXPECT_EQ(a.flop_vdd_pc, b.flop_vdd_pc);
  EXPECT_EQ(a.flop_vss_pc, b.flop_vss_pc);
  EXPECT_EQ(a.window_ns, b.window_ns);
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

/// One value change of a VCD body: time [ps], net, new value.
struct VcdChange {
  long long ps;
  NetId net;
  bool rising;
  bool operator==(const VcdChange&) const = default;
  friend void PrintTo(const VcdChange& c, std::ostream* os) {
    *os << "{#" << c.ps << " net " << c.net << (c.rising ? " 1}" : " 0}");
  }
};

/// Parse a VcdSink document: checks the $var declarations name every net in
/// id order and the $dumpvars snapshot equals `initial`, then returns the
/// value changes in document order.
std::vector<VcdChange> parse_vcd(const Netlist& nl, const std::string& vcd,
                                 std::span<const std::uint8_t> initial) {
  std::istringstream in(vcd);
  std::string line;
  std::unordered_map<std::string, NetId> net_of;
  while (std::getline(in, line) && line != "$enddefinitions $end") {
    std::istringstream decl(line);
    std::string kw, kind, width, id, name;
    if (!(decl >> kw >> kind >> width >> id >> name) || kw != "$var") continue;
    const auto net = static_cast<NetId>(net_of.size());
    EXPECT_EQ(name, nl.net_name(net));
    net_of.emplace(id, net);
  }
  EXPECT_EQ(net_of.size(), nl.num_nets());
  std::getline(in, line);
  EXPECT_EQ(line, "$dumpvars");
  for (NetId n = 0; n < nl.num_nets() && std::getline(in, line); ++n) {
    EXPECT_EQ(line[0] - '0', static_cast<int>(initial[n])) << "net " << n;
    EXPECT_EQ(net_of.at(line.substr(1)), n);
  }
  std::getline(in, line);
  EXPECT_EQ(line, "$end");

  std::vector<VcdChange> changes;
  long long ps = -1;
  while (std::getline(in, line)) {
    if (line[0] == '#') {
      ps = std::stoll(line.substr(1));
    } else {
      changes.push_back(
          VcdChange{ps, net_of.at(line.substr(1)), line[0] == '1'});
    }
  }
  return changes;
}

/// The value changes a VCD of the reference trace carries: timestamps at the
/// trace's float precision, rounded to whole picoseconds.
std::vector<VcdChange> reference_changes(const ref::SimTrace& rt) {
  std::vector<VcdChange> changes;
  for (const ref::ToggleEvent& t : rt.toggles) {
    changes.push_back(VcdChange{
        std::llround(static_cast<double>(t.t_ns) * 1000.0), t.net, t.rising});
  }
  return changes;
}

// One warm analyzer, a fanout of every concrete sink, random patterns: each
// sink must agree with the reference simulation of the same input. The
// recorded production pass must also equal the reference trace itself.
TEST(StreamEquiv, AllSinksMatchReference) {
  const SocDesign& soc = test::small_soc();
  const Netlist& nl = soc.netlist;
  const TechLibrary& lib = TechLibrary::generic180();
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const PatternSet pats = random_pattern_set(12, ctx.num_vars(), 42);

  PatternAnalyzer analyzer(soc, lib);
  ref::TraceRecorder rec;
  ScapAccumulator scap_acc(analyzer.scap_calculator(),
                           soc.config.tester_period_ns);
  DynamicIrBinner binner(nl, soc.parasitics, lib);
  SettleTimeTracker settle;

  for (std::size_t i = 0; i < pats.size(); ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i));
    std::ostringstream vcd_stream;
    VcdSink vcd_sink(nl, vcd_stream, "top");
    FanoutSink fan{&rec, &scap_acc, &binner, &settle, &vcd_sink};
    analyzer.analyze_into(ctx, pats.patterns[i], fan);
    const ref::SimTrace rt =
        reference_trace(soc, analyzer, analyzer.nominal_delays());
    ASSERT_FALSE(rt.toggles.empty());

    std::string why;
    EXPECT_TRUE(ref::compare_traces(rec.trace(), rt, &why)) << why;
    expect_scap_matches(scap_acc.report(), soc, lib, rt);
    const std::vector<double> settled(settle.settle().begin(),
                                      settle.settle().end());
    EXPECT_EQ(settled, reference_settle(nl, rt));
    expect_charges_identical(binner.charges(),
                             reference_charges(soc, lib, rt));
    EXPECT_EQ(parse_vcd(nl, vcd_stream.str(), analyzer.frame1()),
              reference_changes(rt));
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

/// Figure 2/6 pipelines: the streaming SCAP profile of a whole ATPG set must
/// match the reference simulation of every pattern.
void expect_profile_matches_reference(const Experiment& exp,
                                      const PatternSet& patterns) {
  const std::vector<ScapReport> streamed =
      scap_profile(exp.soc, *exp.lib, exp.ctx, patterns);
  ASSERT_EQ(streamed.size(), patterns.size());
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    SCOPED_TRACE("pattern " + std::to_string(i));
    analyzer.analyze_scap(exp.ctx, patterns.patterns[i]);
    expect_scap_matches(
        streamed[i], exp.soc, *exp.lib,
        reference_trace(exp.soc, analyzer, analyzer.nominal_delays()));
  }
}

// Figure 2 pipeline: conventional ATPG, then the streaming SCAP profile.
TEST(StreamEquiv, Fig2ProfileMatchesReference) {
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kRandom;
  const FlowResult flow =
      run_conventional_atpg(exp.soc.netlist, exp.ctx, exp.faults, opt);
  expect_profile_matches_reference(exp, flow.patterns);
}

// Figure 6 pipeline: the stepwise power-aware flow, same comparison.
TEST(StreamEquiv, Fig6ProfileMatchesReference) {
  const Experiment& exp = exp_fixture();
  AtpgOptions opt;
  opt.seed = 99;
  opt.fill = FillMode::kQuiet;
  const StepPlan plan = StepPlan::paper_default(exp.soc.netlist.block_count());
  const FlowResult flow = run_power_aware_atpg(exp.soc.netlist, exp.ctx,
                                               exp.faults, plan, opt);
  expect_profile_matches_reference(exp, flow.patterns);
}

// validate_pattern_ir (one streaming pass + grid solves + scaled re-sim)
// against the same flow composed from reference simulations: reference SCAP,
// charges binned from the reference toggles, reference settle times.
TEST(StreamEquiv, ValidatePatternIrMatchesReference) {
  const Experiment& exp = exp_fixture();
  const SocDesign& soc = exp.soc;
  const TechLibrary& lib = *exp.lib;
  const PatternSet pats = random_pattern_set(1, exp.ctx.num_vars(), 2007);
  const Pattern& pattern = pats.patterns[0];

  const IrValidationResult streamed =
      validate_pattern_ir(soc, lib, exp.grid, exp.ctx, pattern);

  // Nominal pass: the analyzer only supplies frame 1 and the stimuli.
  PatternAnalyzer analyzer(soc, lib);
  EXPECT_EQ(streamed.nominal.launched_flops,
            analyzer.analyze(exp.ctx, pattern).launched_flops);
  const ref::SimTrace nominal =
      reference_trace(soc, analyzer, analyzer.nominal_delays());
  expect_scap_matches(streamed.nominal.scap, soc, lib, nominal);
  const DynamicIrReport ir = analyze_pattern_ir(
      soc.netlist, soc.placement, lib, soc.floorplan, exp.grid,
      reference_charges(soc, lib, nominal), &soc.clock_tree, exp.ctx.domain);
  expect_ir_identical(streamed.ir, ir);
  std::vector<double> nominal_arr(soc.netlist.num_flops());
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    nominal_arr[f] = soc.clock_tree.nominal_arrival_ns(f);
  }
  EXPECT_EQ(streamed.nominal_arrival_ns, nominal_arr);
  EXPECT_EQ(streamed.nominal_endpoint_ns,
            analyzer.endpoint_delays_from_settle(
                reference_settle(soc.netlist, nominal), nominal_arr));

  // Scaled pass: cell and clock-buffer delays derated by the droop.
  DelayModel scaled_dm = analyzer.nominal_delays();
  scaled_dm.set_droop(lib, ir.gate_droop_v);
  const std::vector<double> scaled_arr = soc.clock_tree.arrivals_with_droop(
      lib, [&](Point p) { return ir.droop_at(p); });
  EXPECT_EQ(streamed.scaled_arrival_ns, scaled_arr);
  const PatternAnalysis rescaled =
      analyzer.analyze(exp.ctx, pattern, &scaled_dm, scaled_arr);
  EXPECT_EQ(streamed.scaled.launched_flops, rescaled.launched_flops);
  const ref::SimTrace scaled = reference_trace(soc, analyzer, scaled_dm);
  expect_scap_matches(streamed.scaled.scap, soc, lib, scaled);
  EXPECT_EQ(streamed.scaled_endpoint_ns,
            analyzer.endpoint_delays_from_settle(
                reference_settle(soc.netlist, scaled), scaled_arr));
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
  ref::TraceRecorder rec;
  ScapCalculator calc(nl, par, lib);
  ScapAccumulator acc(calc, /*period_ns=*/20.0);
  FanoutSink fan{&rec, &acc};
  sim.run(init, stims, ws, fan);
  const ref::SimTrace& trace = rec.trace();

  // The superseded slow edge was cancelled, and y never pulses: the only
  // committed toggles are the two stimulus edges on `a`.
  EXPECT_GT(trace.num_events_cancelled, 0u);
  ASSERT_EQ(trace.toggles.size(), 2u);
  EXPECT_EQ(trace.toggles[0].net, a);
  EXPECT_EQ(trace.toggles[1].net, a);

  // The reference simulator cancels the same edge, and the streaming
  // accounting matches its trace.
  const ref::SimTrace rt = ref::EventSimRef(nl, dm).run(init, stims);
  std::string why;
  EXPECT_TRUE(ref::compare_traces(trace, rt, &why)) << why;
  EXPECT_TRUE(ref::compare_scap(acc.report(),
                                ref::scap_ref(nl, par, lib, rt, 20.0), &why))
      << why;

  // Control: widen the pulse past the slow delay and the hazard propagates
  // (two toggles on y).
  std::vector<Stimulus> wide = stims;
  wide[1].t_ns = (dr > df ? dr : df) + 0.01;
  sim.run(init, wide, ws, rec);
  int y_toggles = 0;
  for (const ref::ToggleEvent& t : rec.trace().toggles) {
    y_toggles += (t.net == y);
  }
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
