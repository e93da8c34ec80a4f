// scap-lint: static verification of the invariants every engine assumes.
//
// The ATPG / SCAP / IR-drop flow silently corrupts its numbers when fed a
// malformed design or pattern set: a multi-driven net makes the logic values
// driver-order-dependent, a combinational loop breaks levelized simulation,
// a flop missing from its scan chain makes patterns unloadable on a tester,
// and a fill-policy violation in the stepwise Step1/Step2/Step3 sets quietly
// re-inflates the SCAP of untargeted blocks (the exact effect the paper's
// procedure exists to remove). This subsystem checks those invariants
// *statically* -- no simulation -- and reports machine-readable diagnostics.
//
// Two entry points, both outside the engines it checks (no library module
// calls lint; only tools and tests do):
//  - lint::run(input, config): the library API. Structural rules always run;
//    scan-chain, pattern and threshold rules run when the corresponding
//    optional inputs are present.
//  - the scap_lint CLI (tools/scap_lint.cpp): text / JSON / SARIF output.
//
// Every run also counts its findings in the obs metrics registry
// ("lint.findings", "lint.errors", "lint.rule.<id>"); the LintReport itself
// carries the same counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "core/power_aware.h"
#include "core/thresholds.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "netlist/netlist.h"
#include "sim/scap.h"

namespace scap::lint {

/// Everything a lint run may look at. Only `netlist` is required; each
/// optional group enables the corresponding rule family. The netlist may be
/// unfinalized (and built with Netlist::set_permissive), which is how broken
/// designs -- the ones finalize() rejects -- get linted at all.
struct LintInput {
  const Netlist* netlist = nullptr;

  /// Scan chains in shift order (scan-in first), e.g. ScanChains::chains.
  std::span<const std::vector<FlopId>> scan_chains;

  // -- pattern / flow checks -------------------------------------------------
  const PatternSet* patterns = nullptr;
  const TestContext* ctx = nullptr;
  /// Pre-fill ATPG cubes matching `patterns` index-for-index: the care-bit
  /// masks for X-consistency and fill-policy conformance.
  std::span<const TestCube> cubes;
  /// Stepwise plan and per-step first-pattern indices (FlowResult::step_start)
  /// for fill-policy conformance of untargeted blocks.
  const StepPlan* plan = nullptr;
  std::span<const std::size_t> step_start;
  /// Expected fill for don't-care cells of untargeted blocks: the quiet state
  /// when provided (FillMode::kQuiet flows), else this constant (fill-0).
  std::uint8_t fill_value = 0;
  std::span<const std::uint8_t> quiet_state;

  /// Per-pattern SCAP reports + block thresholds for the screening rule.
  const ScapThresholds* thresholds = nullptr;
  std::span<const ScapReport> scap_reports;
};

LintReport run(const LintInput& in, const LintConfig& cfg = {});
/// Structural rules only.
LintReport run(const Netlist& nl, const LintConfig& cfg = {});

// Individual rule families (run() composes these; exposed for tooling).
void check_structure(const Netlist& nl, Diagnostics& diag);
void check_scan_chains(const Netlist& nl,
                       std::span<const std::vector<FlopId>> chains,
                       Diagnostics& diag);
void check_patterns(const LintInput& in, Diagnostics& diag);
void check_dataflow(const LintInput& in, Diagnostics& diag);

// -- report emission (emit.cpp) ---------------------------------------------
std::string to_text(const LintReport& rep);
std::string to_json(const LintReport& rep);
/// SARIF 2.1.0 (one run, logical locations; validates against the schema's
/// required fields and round-trips through obs/json.h).
std::string to_sarif(const LintReport& rep);

}  // namespace scap::lint
