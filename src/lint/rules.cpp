#include "lint/rules.h"

namespace scap::lint {

namespace {

constexpr RuleInfo kRules[] = {
    // -- structural ----------------------------------------------------------
    {rule::kNetMultiDriven, Severity::kError,
     "net has more than one driver",
     "keep exactly one driver per net; insert a mux or rename the extra "
     "drivers' outputs"},
    {rule::kNetUndriven, Severity::kError,
     "net has no driver and no reader to blame it on",
     "drive the net from a gate, flop or primary input, or delete it"},
    {rule::kGateFloatingInput, Severity::kError,
     "gate input connects to an undriven net",
     "tie the input to a driven net or a TIE0/TIE1 cell"},
    {rule::kFlopFloatingD, Severity::kError,
     "flop D pin connects to an undriven net",
     "drive the D net; an undriven D makes every capture value X"},
    {rule::kCombLoop, Severity::kError,
     "combinational cycle through the gate graph",
     "break the cycle with a flop or re-wire the feedback path"},
    {rule::kGateUnreachable, Severity::kWarning,
     "gate unreachable from any primary input or flop output",
     "remove the dead cone or connect it to live logic"},
    {rule::kFlopUnreachable, Severity::kWarning,
     "flop D cone contains no primary input or flop output",
     "a constant-capturing flop detects no transition faults; connect or "
     "remove it"},
    {rule::kNetDangling, Severity::kWarning,
     "gate output drives nothing and is not a primary output",
     "mark the net as an output or remove the unloaded gate"},
    {rule::kBlockTagInconsistent, Severity::kWarning,
     "gate's block tag disagrees with its entire cone",
     "retag the gate to the surrounding block so per-block SCAP attributes "
     "its switching correctly"},
    {rule::kCdcCombPath, Severity::kWarning,
     "flop captures a combinational path launched in another clock domain",
     "exclude the crossing from at-speed test or align the launch/capture "
     "domains; cross-domain captures are invalid for per-domain TDF patterns"},
    // -- scan-chain integrity ------------------------------------------------
    {rule::kScanMissingFlop, Severity::kError,
     "flop is on no scan chain",
     "stitch the flop into a chain; unscanned state is uncontrollable and "
     "unobservable"},
    {rule::kScanDuplicateFlop, Severity::kError,
     "flop appears more than once across the scan chains",
     "remove the duplicate; shift data would be loaded twice"},
    {rule::kScanBadFlop, Severity::kError,
     "scan chain references a flop id outside the netlist",
     "rebuild the chains against the current netlist"},
    {rule::kScanEdgeOrder, Severity::kWarning,
     "negative-edge flop placed after a positive-edge flop in a chain",
     "order negative-edge cells ahead of positive-edge cells (or add a "
     "lockup latch) so shift data does not race through"},
    // -- pattern / flow ------------------------------------------------------
    {rule::kPatternDomainMismatch, Severity::kError,
     "pattern set's clock domain differs from the test context's",
     "regenerate the patterns for the context's domain"},
    {rule::kCaptureFlopDomain, Severity::kError,
     "context marks a flop active whose clock domain is not under test",
     "rebuild the context with TestContext::for_domain; a foreign-domain "
     "capture flop sees no launch/capture pulse pair"},
    {rule::kPatternSizeMismatch, Severity::kError,
     "pattern bit count differs from the context's test-variable count",
     "regenerate or re-parse the patterns against the current design"},
    {rule::kPatternUnfilledX, Severity::kError,
     "pattern contains an unfilled don't-care bit",
     "apply a fill mode before hand-off; testers load fully-specified "
     "vectors"},
    {rule::kPatternCareMismatch, Severity::kError,
     "pattern disagrees with its cube on an ATPG care bit",
     "fill must preserve care bits; re-run apply_fill on the original cube"},
    {rule::kFillNonconforming, Severity::kError,
     "don't-care cell of an untargeted block deviates from the quiet fill",
     "re-fill the step's don't-cares with the quiet value; deviations "
     "re-inflate the untargeted blocks' SCAP"},
    {rule::kScapOverThreshold, Severity::kWarning,
     "pattern's block SCAP exceeds the Case2-derived threshold",
     "replace or regenerate the pattern (see core/power_aware.h); it is an "
     "IR-drop overkill risk"},
    // -- dataflow ------------------------------------------------------------
    {rule::kNetUncontrollable, Severity::kWarning,
     "net cannot be justified to both logic values from the scan state",
     "review held primary-input constants or add a control test point; "
     "transition faults on the net are untestable"},
    {rule::kNetUnobservable, Severity::kWarning,
     "net has no sensitizable path to any scan cell or primary output",
     "add an observe test point or re-wire the cone; faults on the net "
     "escape every pattern"},
    {rule::kNetConstant, Severity::kInfo,
     "net is provably stuck at one value for every loadable scan state",
     "driven by tie-derived or held-PI logic; consider removing the "
     "constant cone or freeing the held input"},
    {rule::kFlopConstantD, Severity::kWarning,
     "scan cell captures a constant: its D cone settles to a fixed value",
     "the cell observes nothing at capture; connect its D cone to live "
     "logic or drop it from at-speed test"},
    {rule::kCaptureXContaminated, Severity::kWarning,
     "pattern launches X into capture: unfilled cells reach active flops",
     "fill the contributing don't-care scan cells (or mask the capture); "
     "an X launch value makes the measured response unpredictable"},
};

}  // namespace

std::span<const RuleInfo> all_rules() { return kRules; }

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

}  // namespace scap::lint
