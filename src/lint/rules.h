// Rule registry of the static-analysis subsystem.
//
// Every rule has a stable kebab-case id (the anchor for config overrides,
// JSON/SARIF output and the obs counters "lint.rule.<id>"), a default
// severity, a one-line summary and a fix hint. The registry is a compile-time
// table; check implementations live in structural.cpp / patterns.cpp.
#pragma once

#include <span>
#include <string_view>

#include "lint/diagnostics.h"

namespace scap::lint {

namespace rule {

// -- structural netlist rules ------------------------------------------------
inline constexpr std::string_view kNetMultiDriven = "net-multi-driven";
inline constexpr std::string_view kNetUndriven = "net-undriven";
inline constexpr std::string_view kGateFloatingInput = "gate-floating-input";
inline constexpr std::string_view kFlopFloatingD = "flop-floating-d";
inline constexpr std::string_view kCombLoop = "comb-loop";
inline constexpr std::string_view kGateUnreachable = "gate-unreachable";
inline constexpr std::string_view kFlopUnreachable = "flop-unreachable";
inline constexpr std::string_view kNetDangling = "net-dangling";
inline constexpr std::string_view kBlockTagInconsistent = "block-tag-inconsistent";
inline constexpr std::string_view kCdcCombPath = "cdc-comb-path";

// -- scan-chain integrity ----------------------------------------------------
inline constexpr std::string_view kScanMissingFlop = "scan-missing-flop";
inline constexpr std::string_view kScanDuplicateFlop = "scan-duplicate-flop";
inline constexpr std::string_view kScanBadFlop = "scan-bad-flop";
inline constexpr std::string_view kScanEdgeOrder = "scan-edge-order";

// -- pattern / flow rules ----------------------------------------------------
inline constexpr std::string_view kPatternDomainMismatch = "pattern-domain-mismatch";
inline constexpr std::string_view kCaptureFlopDomain = "capture-flop-domain";
inline constexpr std::string_view kPatternSizeMismatch = "pattern-size-mismatch";
inline constexpr std::string_view kPatternUnfilledX = "pattern-unfilled-x";
inline constexpr std::string_view kPatternCareMismatch = "pattern-care-mismatch";
inline constexpr std::string_view kFillNonconforming = "fill-nonconforming";
inline constexpr std::string_view kScapOverThreshold = "scap-over-threshold";

// -- dataflow rules (dataflow_rules.cpp, powered by lint/dataflow.h) ---------
inline constexpr std::string_view kNetUncontrollable = "net-uncontrollable";
inline constexpr std::string_view kNetUnobservable = "net-unobservable";
inline constexpr std::string_view kNetConstant = "net-constant";
inline constexpr std::string_view kFlopConstantD = "flop-constant-d";
inline constexpr std::string_view kCaptureXContaminated =
    "capture-x-contaminated";

}  // namespace rule

struct RuleInfo {
  std::string_view id;
  Severity severity;
  std::string_view summary;
  std::string_view fix_hint;
};

/// Every registered rule, in registry order.
std::span<const RuleInfo> all_rules();

/// Lookup by id; nullptr when unknown.
const RuleInfo* find_rule(std::string_view id);

}  // namespace scap::lint
