// scap-lint subsystem tests: each corrupted fixture must report exactly the
// injected violation (right rule id, right severity, right location), the
// clean fixtures must report nothing, and the JSON / SARIF emitters must
// round-trip through the obs/json.h reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "lint/baseline.h"
#include "lint/lint.h"
#include "netlist/netlist.h"
#include "netlist/verilog.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "soc/generator.h"

namespace scap {
namespace {

using lint::LintConfig;
using lint::LintInput;
using lint::LintReport;
using lint::Severity;

Severity severity_of(const LintReport& rep, std::string_view rule) {
  for (const auto& d : rep.diagnostics) {
    if (d.rule == rule) return d.severity;
  }
  ADD_FAILURE() << "no diagnostic for rule " << rule;
  return Severity::kInfo;
}

const lint::Diagnostic& diag_of(const LintReport& rep, std::string_view rule) {
  for (const auto& d : rep.diagnostics) {
    if (d.rule == rule) return d;
  }
  throw std::runtime_error("no diagnostic for rule " + std::string(rule));
}

/// A minimal clean design: a -> g0 -> f0 -> g1 -> f1.
Netlist clean_netlist() {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  const NetId q0 = nl.add_net("q0");
  const NetId n2 = nl.add_net("n2");
  const NetId q1 = nl.add_net("q1");
  const NetId in0[] = {a};
  nl.add_gate(CellType::kBuf, in0, n1);
  nl.add_flop(n1, q0, /*domain=*/0, /*block=*/0);
  const NetId in1[] = {q0};
  nl.add_gate(CellType::kBuf, in1, n2);
  nl.add_flop(n2, q1, /*domain=*/0, /*block=*/0);
  nl.mark_output(q1);
  return nl;
}

// ---------------------------------------------------------------------------
// Corrupted fixtures: exactly one rule fires, with the injected location.
// ---------------------------------------------------------------------------

TEST(LintFixtures, InjectedCombLoop) {
  // a AND y -> x, x BUF -> y: a two-gate cycle fed by a primary input.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, y};
  nl.add_gate(CellType::kAnd2, in0, x);
  const NetId in1[] = {x};
  nl.add_gate(CellType::kBuf, in1, y);
  nl.mark_output(x);
  nl.mark_output(y);

  const LintReport rep = lint::run(nl);
  ASSERT_EQ(rep.count(lint::rule::kCombLoop), 1u) << lint::to_text(rep);
  EXPECT_EQ(severity_of(rep, lint::rule::kCombLoop), Severity::kError);
  const auto& d = diag_of(rep, lint::rule::kCombLoop);
  EXPECT_EQ(d.loc.kind, "gate");
  EXPECT_EQ(d.loc.id, 0u);  // lowest gate of the cycle
  EXPECT_NE(d.message.find("b0_g0 -> b0_g1"), std::string::npos) << d.message;
  // The dataflow pass sees through the consequence: the cycle's nets cannot
  // be justified from the scan state.
  EXPECT_GE(rep.count(lint::rule::kNetUncontrollable), 2u)
      << lint::to_text(rep);
}

TEST(LintFixtures, InjectedDoubleDriver) {
  Netlist nl;
  nl.set_permissive(true);  // strict mode would throw at add_gate
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a};
  nl.add_gate(CellType::kBuf, in0, y);
  const NetId in1[] = {b};
  nl.add_gate(CellType::kInv, in1, y);
  nl.mark_output(y);

  const LintReport rep = lint::run(nl);
  ASSERT_EQ(rep.total(), 1u) << lint::to_text(rep);
  EXPECT_EQ(rep.count(lint::rule::kNetMultiDriven), 1u);
  EXPECT_EQ(severity_of(rep, lint::rule::kNetMultiDriven), Severity::kError);
  EXPECT_EQ(rep.diagnostics[0].loc.kind, "net");
  EXPECT_EQ(rep.diagnostics[0].loc.name, "y");
  EXPECT_NE(rep.diagnostics[0].message.find("2 drivers"), std::string::npos);
}

TEST(LintFixtures, InjectedFloatingInput) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId fl = nl.add_net("fl");  // never driven
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, fl};
  nl.add_gate(CellType::kAnd2, in0, y);
  nl.mark_output(y);

  const LintReport rep = lint::run(nl);
  ASSERT_EQ(rep.count(lint::rule::kGateFloatingInput), 1u)
      << lint::to_text(rep);
  EXPECT_EQ(severity_of(rep, lint::rule::kGateFloatingInput),
            Severity::kError);
  const auto& d = diag_of(rep, lint::rule::kGateFloatingInput);
  EXPECT_EQ(d.loc.kind, "gate");
  EXPECT_EQ(d.loc.name, "b0_g0");
  EXPECT_NE(d.message.find("input 1"), std::string::npos) << d.message;
  // Consequences the dataflow pass derives: y = AND(a, fl) can never be 1,
  // and a is unobservable through the un-sensitizable AND.
  EXPECT_EQ(rep.count(lint::rule::kNetUncontrollable), 1u)
      << lint::to_text(rep);
  EXPECT_EQ(rep.count(lint::rule::kNetUnobservable), 1u);
}

TEST(LintFixtures, InjectedBrokenScanChain) {
  Netlist nl = clean_netlist();
  nl.finalize();
  // Flop 1 is left off every chain.
  const std::vector<std::vector<FlopId>> chains = {{0}};

  LintInput in;
  in.netlist = &nl;
  in.scan_chains = chains;
  const LintReport rep = lint::run(in);
  ASSERT_EQ(rep.total(), 1u) << lint::to_text(rep);
  EXPECT_EQ(rep.count(lint::rule::kScanMissingFlop), 1u);
  EXPECT_EQ(severity_of(rep, lint::rule::kScanMissingFlop), Severity::kError);
  EXPECT_EQ(rep.diagnostics[0].loc.kind, "flop");
  EXPECT_EQ(rep.diagnostics[0].loc.id, 1u);
}

TEST(LintFixtures, InjectedCrossDomainCapture) {
  // A domain-1 flop's output feeds the D cone of a domain-0 flop.
  Netlist nl;
  nl.set_domain_count(2);
  const NetId a = nl.add_input("a");
  const NetId q0 = nl.add_net("q0");
  const NetId n1 = nl.add_net("n1");
  nl.add_flop(/*d=*/a, q0, /*domain=*/1, /*block=*/0);
  const NetId in0[] = {a, q0};
  nl.add_gate(CellType::kAnd2, in0, n1);
  const NetId q1 = nl.add_net("q1");
  nl.add_flop(n1, q1, /*domain=*/0, /*block=*/0);

  const LintReport rep = lint::run(nl);
  ASSERT_EQ(rep.total(), 1u) << lint::to_text(rep);
  EXPECT_EQ(rep.count(lint::rule::kCdcCombPath), 1u);
  EXPECT_EQ(severity_of(rep, lint::rule::kCdcCombPath), Severity::kWarning);
  EXPECT_EQ(rep.diagnostics[0].loc.kind, "flop");
  EXPECT_EQ(rep.diagnostics[0].loc.id, 1u);
  EXPECT_NE(rep.diagnostics[0].message.find("domain(s) 1"), std::string::npos);
}

TEST(LintFixtures, InjectedFillPolicyViolation) {
  // Two flops in two blocks; the plan's only step targets block 0, fill-0
  // applies elsewhere -- but the don't-care cell of block 1 is filled with 1.
  Netlist nl;
  nl.set_block_count(2);
  const NetId a = nl.add_input("a");
  const NetId n1 = nl.add_net("n1");
  const NetId q0 = nl.add_net("q0");
  const NetId n2 = nl.add_net("n2");
  const NetId q1 = nl.add_net("q1");
  const NetId in0[] = {a};
  nl.add_gate(CellType::kBuf, in0, n1);
  nl.add_flop(n1, q0, /*domain=*/0, /*block=*/0);
  const NetId in1[] = {q0};
  nl.add_gate(CellType::kBuf, in1, n2);
  nl.add_flop(n2, q1, /*domain=*/0, /*block=*/1);
  nl.mark_output(q1);
  nl.finalize();

  PatternSet ps;
  ps.patterns.push_back(Pattern{{1, 1}});  // var 1 should be fill-0
  std::vector<TestCube> cubes(1);
  cubes[0].s1 = {1, kBitX};
  StepPlan plan;
  plan.steps.push_back(StepPlan::Step{{1, 0}, 1.0});
  const std::size_t step_start[] = {0};

  LintInput in;
  in.netlist = &nl;
  in.patterns = &ps;
  in.cubes = cubes;
  in.plan = &plan;
  in.step_start = step_start;
  in.fill_value = 0;
  const LintReport rep = lint::run(in);
  ASSERT_EQ(rep.total(), 1u) << lint::to_text(rep);
  EXPECT_EQ(rep.count(lint::rule::kFillNonconforming), 1u);
  EXPECT_EQ(severity_of(rep, lint::rule::kFillNonconforming),
            Severity::kError);
  EXPECT_EQ(rep.diagnostics[0].loc.kind, "pattern");
  EXPECT_EQ(rep.diagnostics[0].loc.id, 0u);
  EXPECT_NE(rep.diagnostics[0].message.find("untargeted block 1"),
            std::string::npos)
      << rep.diagnostics[0].message;
}

// ---------------------------------------------------------------------------
// Clean fixtures.
// ---------------------------------------------------------------------------

TEST(LintClean, HandBuiltNetlistHasNoFindings) {
  Netlist nl = clean_netlist();
  nl.finalize();
  const LintReport rep = lint::run(nl);
  EXPECT_EQ(rep.total(), 0u) << lint::to_text(rep);
}

TEST(LintClean, GeneratedSocHasNoErrors) {
  const SocDesign soc = build_soc(SocConfig::tiny());
  LintInput in;
  in.netlist = &soc.netlist;
  in.scan_chains = soc.scan.chains;
  const LintReport rep = lint::run(in);
  EXPECT_EQ(rep.errors, 0u) << lint::to_text(rep);

  // The experiment designs the benches and examples run on, linted with
  // their stitched scan chains and their test context.
  for (const double scale : {0.012, 0.04}) {
    const Experiment exp = Experiment::standard(scale, 2007);
    LintInput ein;
    ein.netlist = &exp.soc.netlist;
    ein.scan_chains = exp.soc.scan.chains;
    ein.ctx = &exp.ctx;
    const LintReport erep = lint::run(ein);
    EXPECT_EQ(erep.errors, 0u) << "scale " << scale << "\n"
                               << lint::to_text(erep);
  }
}

// ---------------------------------------------------------------------------
// Configuration: disables, overrides, caps.
// ---------------------------------------------------------------------------

TEST(LintConfigTest, DisabledRuleDoesNotFire) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId fl = nl.add_net("fl");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, fl};
  nl.add_gate(CellType::kAnd2, in0, y);
  nl.mark_output(y);

  LintConfig cfg;
  cfg.disabled.emplace_back(lint::rule::kGateFloatingInput);
  const LintReport rep = lint::run(nl, cfg);
  EXPECT_EQ(rep.count(lint::rule::kGateFloatingInput), 0u)
      << lint::to_text(rep);
  EXPECT_EQ(rep.errors, 0u);
}

TEST(LintConfigTest, SeverityOverrideApplies) {
  Netlist nl;
  nl.set_domain_count(2);
  const NetId a = nl.add_input("a");
  const NetId q0 = nl.add_net("q0");
  const NetId n1 = nl.add_net("n1");
  nl.add_flop(a, q0, 1, 0);
  const NetId in0[] = {a, q0};
  nl.add_gate(CellType::kAnd2, in0, n1);
  const NetId q1 = nl.add_net("q1");
  nl.add_flop(n1, q1, 0, 0);

  LintConfig cfg;
  cfg.severity_overrides.emplace_back(std::string(lint::rule::kCdcCombPath),
                                      Severity::kError);
  const LintReport rep = lint::run(nl, cfg);
  ASSERT_EQ(rep.total(), 1u);
  EXPECT_EQ(rep.errors, 1u);
  EXPECT_TRUE(rep.has_errors());
}

TEST(LintConfigTest, PerRuleCapKeepsExactCounts) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId fl = nl.add_net("fl");
  for (int i = 0; i < 5; ++i) {
    std::string name = "y";
    name += std::to_string(i);  // two steps: gcc-12 -Wrestrict false positive
    const NetId y = nl.add_net(std::move(name));
    const NetId ins[] = {a, fl};
    nl.add_gate(CellType::kAnd2, ins, y);
    nl.mark_output(y);
  }
  LintConfig cfg;
  cfg.max_per_rule = 2;
  cfg.disabled.emplace_back(lint::rule::kNetUncontrollable);
  cfg.disabled.emplace_back(lint::rule::kNetUnobservable);
  const LintReport rep = lint::run(nl, cfg);
  EXPECT_EQ(rep.diagnostics.size(), 2u);
  EXPECT_EQ(rep.count(lint::rule::kGateFloatingInput), 5u);  // exact
  EXPECT_EQ(rep.errors, 5u);
  EXPECT_EQ(rep.suppressed, 3u);
}

// ---------------------------------------------------------------------------
// Netlist / parser hardening (the bugs this subsystem exposed).
// ---------------------------------------------------------------------------

TEST(LintNetlist, FinalizeRejectsMultiDriven) {
  Netlist nl;
  nl.set_permissive(true);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a};
  nl.add_gate(CellType::kBuf, in0, y);
  const NetId in1[] = {b};
  nl.add_gate(CellType::kInv, in1, y);
  nl.mark_output(y);
  try {
    nl.finalize();
    FAIL() << "finalize accepted a multi-driven net";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("multi-driven"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("y"), std::string::npos);
  }
}

TEST(LintNetlist, FinalizeRejectsEveryStructuralError) {
  // No engine lints the netlists it is given, because finalize() already
  // rejects every defect an error-severity rule of lint::run(netlist) can
  // report: one fixture per such rule, flagged by lint and refused by
  // finalize().
  struct Case {
    std::string_view rule;
    std::function<void(Netlist&)> build;
  };
  const Case cases[] = {
      {lint::rule::kNetMultiDriven,
       [](Netlist& nl) {
         nl.set_permissive(true);
         const NetId a = nl.add_input("a");
         const NetId y = nl.add_net("y");
         const NetId in0[] = {a};
         nl.add_gate(CellType::kBuf, in0, y);
         nl.add_gate(CellType::kInv, in0, y);
         nl.mark_output(y);
       }},
      {lint::rule::kNetUndriven,
       [](Netlist& nl) {
         const NetId a = nl.add_input("a");
         nl.mark_output(a);
         nl.mark_output(nl.add_net("po"));  // an output nothing drives
       }},
      {lint::rule::kGateFloatingInput,
       [](Netlist& nl) {
         const NetId a = nl.add_input("a");
         const NetId fl = nl.add_net("fl");
         const NetId y = nl.add_net("y");
         const NetId in0[] = {a, fl};
         nl.add_gate(CellType::kAnd2, in0, y);
         nl.mark_output(y);
       }},
      {lint::rule::kFlopFloatingD,
       [](Netlist& nl) {
         const NetId d = nl.add_net("d");
         const NetId q = nl.add_net("q");
         nl.add_flop(d, q, /*domain=*/0, /*block=*/0);
         nl.mark_output(q);
       }},
      {lint::rule::kCombLoop,
       [](Netlist& nl) {
         const NetId a = nl.add_input("a");
         const NetId x = nl.add_net("x");
         const NetId y = nl.add_net("y");
         const NetId in0[] = {a, y};
         nl.add_gate(CellType::kAnd2, in0, x);
         const NetId in1[] = {x};
         nl.add_gate(CellType::kBuf, in1, y);
         nl.mark_output(x);
       }},
  };
  std::vector<std::string_view> covered;
  for (const Case& c : cases) {
    Netlist nl;
    c.build(nl);
    const LintReport rep = lint::run(nl);
    ASSERT_GE(rep.count(c.rule), 1u) << c.rule << "\n" << lint::to_text(rep);
    EXPECT_EQ(severity_of(rep, c.rule), Severity::kError) << c.rule;
    EXPECT_THROW(nl.finalize(), std::runtime_error) << c.rule;
    covered.push_back(c.rule);
  }

  // The table is complete: every other rule run(netlist) evaluates -- the
  // rest of the structural family and the dataflow family -- is at most a
  // warning by default.
  const std::string_view netlist_only_rules[] = {
      lint::rule::kNetMultiDriven,     lint::rule::kNetUndriven,
      lint::rule::kGateFloatingInput,  lint::rule::kFlopFloatingD,
      lint::rule::kCombLoop,           lint::rule::kGateUnreachable,
      lint::rule::kFlopUnreachable,    lint::rule::kNetDangling,
      lint::rule::kBlockTagInconsistent, lint::rule::kCdcCombPath,
      lint::rule::kNetUncontrollable,  lint::rule::kNetUnobservable,
      lint::rule::kNetConstant,        lint::rule::kFlopConstantD,
      lint::rule::kCaptureXContaminated,
  };
  for (const std::string_view id : netlist_only_rules) {
    const lint::RuleInfo* info = lint::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    const bool in_table =
        std::find(covered.begin(), covered.end(), id) != covered.end();
    EXPECT_EQ(info->severity == Severity::kError, in_table) << id;
  }
}

TEST(LintNetlist, RelaxedParseSurvivesDoubleDriver) {
  const char* src =
      "module t (a, b, clk0, y);\n"
      "  input a;\n  input b;\n  input clk0;\n  output y;\n"
      "  wire y;\n"
      "  BUF b0_g0 (.Y(y), .A(a));\n"
      "  INV b0_g1 (.Y(y), .A(b));\n"
      "endmodule\n";
  EXPECT_THROW((void)parse_verilog(src), std::runtime_error);
  const Netlist nl = parse_verilog_relaxed(src);
  EXPECT_FALSE(nl.finalized());
  const LintReport rep = lint::run(nl);
  EXPECT_EQ(rep.count(lint::rule::kNetMultiDriven), 1u);
}

TEST(LintNetlist, ParserHandlesNonNumericClockName) {
  // "clk_late" used to escape as a bare std::invalid_argument from stoi.
  const char* src =
      "module t (a, clk0, y);\n"
      "  input a;\n  input clk0;\n  output y;\n"
      "  wire y;\n  wire d;\n"
      "  BUF b0_g0 (.Y(d), .A(a));\n"
      "  SDFF b0_f0 (.Q(y), .D(d), .CK(clk_late));\n"
      "endmodule\n";
  const Netlist nl = parse_verilog_relaxed(src);
  EXPECT_EQ(nl.flop(0).domain, 0);  // falls back to domain 0
}

TEST(LintNetlist, ParserCoversUndeclaredClockDomains) {
  // A CK connection to clk3 without a clk3 port must still be covered by
  // domain_count (flops_by_domain used to index out of bounds).
  const char* src =
      "module t (a, clk0, y);\n"
      "  input a;\n  input clk0;\n  output y;\n"
      "  wire y;\n  wire d;\n"
      "  BUF b0_g0 (.Y(d), .A(a));\n"
      "  SDFF b0_f0 (.Q(y), .D(d), .CK(clk3));\n"
      "endmodule\n";
  const Netlist nl = parse_verilog_relaxed(src);
  EXPECT_EQ(nl.domain_count(), 4);
  EXPECT_EQ(nl.flops_by_domain().at(3).size(), 1u);
}

// ---------------------------------------------------------------------------
// Emission round-trips.
// ---------------------------------------------------------------------------

LintReport fixture_report() {
  Netlist nl;
  nl.set_permissive(true);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net(R"(we"ird\name)");  // exercise escaping
  const NetId in0[] = {a};
  nl.add_gate(CellType::kBuf, in0, y);
  const NetId in1[] = {b};
  nl.add_gate(CellType::kInv, in1, y);
  nl.mark_output(y);
  return lint::run(nl);
}

TEST(LintEmit, JsonRoundTrip) {
  const LintReport rep = fixture_report();
  const std::string text = lint::to_json(rep);
  auto v = obs::json::parse(text);
  ASSERT_TRUE(v.has_value()) << text;
  EXPECT_EQ(v->find("tool")->string, "scap_lint");
  EXPECT_EQ(v->find("summary")->find("errors")->number, 1.0);
  const auto& diags = v->find("diagnostics")->array;
  ASSERT_EQ(diags.size(), rep.diagnostics.size());
  EXPECT_EQ(diags[0].find("rule")->string, lint::rule::kNetMultiDriven);
  EXPECT_EQ(diags[0].find("severity")->string, "error");
  EXPECT_EQ(diags[0].find("name")->string, R"(we"ird\name)");
  // parse(dump(parse(x))) == parse(x): canonical re-serialization is stable.
  auto v2 = obs::json::parse(v->dump());
  ASSERT_TRUE(v2.has_value());
  EXPECT_TRUE(*v == *v2);
}

TEST(LintEmit, SarifRoundTrip) {
  const LintReport rep = fixture_report();
  const std::string text = lint::to_sarif(rep);
  auto v = obs::json::parse(text);
  ASSERT_TRUE(v.has_value()) << text;
  EXPECT_EQ(v->find("version")->string, "2.1.0");
  const auto& runs = v->find("runs")->array;
  ASSERT_EQ(runs.size(), 1u);
  const auto* driver = runs[0].find("tool")->find("driver");
  EXPECT_EQ(driver->find("name")->string, "scap_lint");
  const auto& rules = driver->find("rules")->array;
  const auto& results = runs[0].find("results")->array;
  ASSERT_EQ(results.size(), rep.diagnostics.size());
  for (const auto& res : results) {
    EXPECT_EQ(res.find("level")->string, "error");
    const auto idx = static_cast<std::size_t>(res.find("ruleIndex")->number);
    ASSERT_LT(idx, rules.size());
    EXPECT_EQ(rules[idx].find("id")->string, res.find("ruleId")->string);
  }
  auto v2 = obs::json::parse(v->dump());
  ASSERT_TRUE(v2.has_value());
  EXPECT_TRUE(*v == *v2);
}

TEST(LintEmit, TextMentionsRuleAndHint) {
  const LintReport rep = fixture_report();
  const std::string text = lint::to_text(rep);
  EXPECT_NE(text.find("error [net-multi-driven]"), std::string::npos) << text;
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baselines (tools/scap_lint --baseline) and metric export.
// ---------------------------------------------------------------------------

TEST(LintBaseline, ParseHandlesCommentsWhitespaceAndRejects) {
  std::vector<std::string> rejects;
  const lint::Baseline base = lint::Baseline::parse(
      "# header comment\n"
      "net-multi-driven|net|y\n"
      "  comb-loop|gate|b0_g0   # trailing comment\n"
      "\n"
      "not-a-fingerprint\n"
      "net-multi-driven|net|y\n",  // duplicate collapses
      &rejects);
  EXPECT_EQ(base.size(), 2u);
  EXPECT_TRUE(base.contains("net-multi-driven|net|y"));
  EXPECT_TRUE(base.contains("comb-loop|gate|b0_g0"));
  EXPECT_FALSE(base.contains("comb-loop|gate|b0_g1"));
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0], "not-a-fingerprint");
}

TEST(LintBaseline, ApplyBaselineSuppressesOnlyKnownFindings) {
  const LintReport full = fixture_report();
  ASSERT_GE(full.total(), 1u);
  const auto& first = full.diagnostics[0];

  LintReport rep = fixture_report();
  lint::Baseline base;
  base.insert(lint::fingerprint(first));
  const std::size_t dropped = lint::apply_baseline(rep, base);
  EXPECT_GE(dropped, 1u);  // every same-fingerprint finding goes
  EXPECT_EQ(rep.total(), full.total() - dropped);
  EXPECT_EQ(rep.suppressed, full.suppressed + dropped);
  for (const auto& d : rep.diagnostics) {
    EXPECT_NE(lint::fingerprint(d), lint::fingerprint(first));
  }
}

TEST(LintBaseline, FullBaselineRoundTripSuppressesEverything) {
  LintReport rep = fixture_report();
  const std::size_t before = rep.total();
  ASSERT_GE(before, 1u);
  // serialize -> parse round trip, as --write-baseline / --baseline do.
  const lint::Baseline base =
      lint::Baseline::parse(lint::baseline_from(rep).serialize());
  EXPECT_EQ(lint::apply_baseline(rep, base), before);
  EXPECT_EQ(rep.total(), 0u);
  EXPECT_FALSE(rep.has_errors());
  EXPECT_TRUE(rep.diagnostics.empty());
  EXPECT_TRUE(rep.rule_counts.empty());
  EXPECT_EQ(rep.suppressed, before);
}

TEST(LintMetrics, ExportsPerRuleAndSuppressedCounters) {
  auto& reg = obs::Registry::global();
  const std::uint64_t rule0 =
      reg.counter("lint.rule.net-multi-driven").value();
  const std::uint64_t sup0 = reg.counter("lint.suppressed").value();

  Netlist nl;
  nl.set_permissive(true);
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  for (int i = 0; i < 3; ++i) {
    std::string name = "y";
    name += std::to_string(i);
    const NetId y = nl.add_net(std::move(name));
    const NetId in0[] = {a};
    nl.add_gate(CellType::kBuf, in0, y);
    const NetId in1[] = {b};
    nl.add_gate(CellType::kInv, in1, y);
    nl.mark_output(y);
  }
  LintConfig cfg;
  cfg.max_per_rule = 1;  // 3 multi-driver findings, 2 capped
  const LintReport rep = lint::run(nl, cfg);
  ASSERT_EQ(rep.count(lint::rule::kNetMultiDriven), 3u) << lint::to_text(rep);

  EXPECT_EQ(reg.counter("lint.rule.net-multi-driven").value(), rule0 + 3);
  EXPECT_EQ(reg.counter("lint.suppressed").value(), sup0 + rep.suppressed);
  EXPECT_GE(rep.suppressed, 2u);
}

TEST(LintRegistry, AllRulesResolvable) {
  for (const lint::RuleInfo& r : lint::all_rules()) {
    EXPECT_EQ(lint::find_rule(r.id), &r);
    EXPECT_FALSE(r.summary.empty());
    EXPECT_FALSE(r.fix_hint.empty());
  }
  EXPECT_EQ(lint::find_rule("no-such-rule"), nullptr);
  EXPECT_GE(lint::all_rules().size(), 19u);
}

}  // namespace
}  // namespace scap
