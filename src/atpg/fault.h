// Transition delay fault (TDF) model.
//
// A TDF is a slow-to-rise or slow-to-fall defect at a circuit node. Under
// the standard gross-delay approximation used by commercial scan ATPG (and
// by the paper, which wraps such a tool), a launch-off-capture pattern
// detects a slow-to-rise fault at site s iff
//   - frame 1 (the scanned-in state) drives s to 0,
//   - frame 2 (after the launch pulse) drives s to 1, and
//   - a stuck-at-0 at s in frame 2 propagates to a captured scan flop.
// The dual holds for slow-to-fall faults.
//
// Fault sites cover every cell pin: stem faults on driver outputs (gate
// outputs and flop Q pins), branch faults on individual gate input pins, and
// branch faults on flop D pins. Structural equivalence collapsing removes
// single-fanout branch duplicates and folds faults through BUF/INV chains.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "netlist/netlist.h"

namespace scap {

enum class TdfType : std::uint8_t { kSlowToRise, kSlowToFall };

enum class FaultSite : std::uint8_t {
  kStem,        ///< driver output; effect fans out everywhere
  kGateBranch,  ///< one gate input pin
  kFlopBranch,  ///< one flop D pin (captured directly)
};

struct TdfFault {
  NetId net = kNullId;  ///< the net carrying the slow transition
  FaultSite site = FaultSite::kStem;
  std::uint32_t load = kNullId;  ///< GateId (kGateBranch) or FlopId (kFlopBranch)
  std::uint8_t pin = 0;          ///< input pin index for kGateBranch
  TdfType type = TdfType::kSlowToRise;

  /// Initial (frame-1) value the launch needs at the site; the frame-2
  /// stuck-at value of the gross-delay model is the same.
  int v1() const { return type == TdfType::kSlowToRise ? 0 : 1; }
  /// Final (frame-2 fault-free) value.
  int v2() const { return 1 - v1(); }

  friend bool operator==(const TdfFault&, const TdfFault&) = default;
};

/// Full (uncollapsed) TDF universe of the netlist.
std::vector<TdfFault> enumerate_faults(const Netlist& nl);

/// Structural equivalence collapsing:
///  - branch faults on single-fanout nets fold into the stem,
///  - BUF output stems fold into the input stem (same polarity),
///  - INV output stems fold into the input stem (opposite polarity).
std::vector<TdfFault> collapse_faults(const Netlist& nl,
                                      const std::vector<TdfFault>& faults);

/// Block of the fault's structural location (driver block for stems, load
/// block for branches).
BlockId fault_block(const Netlist& nl, const TdfFault& f);

/// Static observability under `ctx`: per net, 1 when a combinational path
/// leads from it to the D pin of a flop that captures in the tested domain.
/// One reverse sweep over the topological order; the fault simulator, PODEM
/// and the ATPG engine all classify faults from this one map.
std::vector<std::uint8_t> observable_nets(const Netlist& nl,
                                          const TestContext& ctx);

/// True when no pattern can detect `f` under `ctx`, given `observable` from
/// observable_nets(): a stem whose net is unobservable, a gate branch whose
/// load gate's output is unobservable, or a flop branch whose load flop
/// does not capture.
bool statically_unobservable(const Netlist& nl, const TestContext& ctx,
                             std::span<const std::uint8_t> observable,
                             const TdfFault& f);

/// "net[STR]" / "gate:pin[STF]"-style description for logs and tests.
std::string describe_fault(const Netlist& nl, const TdfFault& f);

}  // namespace scap
