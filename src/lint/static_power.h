// Static per-block SCAP upper bound -- the tier-1 screening proxy.
//
// Maps a test pattern's care bits + fill directly to a *sound* upper bound
// on the per-block switching-cycle average power the event simulator would
// report, without running EventSim. The bound rests on the event-driven
// semantics of sim/event_sim.cpp:
//
//   Toggle-count bound. A committed toggle on a net is a value change; each
//   committed toggle on an input net triggers exactly one evaluation per
//   connected fanout pin, and each evaluation schedules at most one output
//   event (schedule cancels any pending event at >= t first). Hence the
//   committed-toggle count obeys T(out) <= sum over input *pins* of T(in).
//   Launched flop Q nets toggle exactly once (build_launch only emits
//   stimuli whose value differs from frame 1); PI nets never toggle.
//   Refinements, each individually sound:
//     - controlling-stable pruning: an input pin proven toggle-free whose
//       settled value is the gate's controlling value pins the output, so
//       T(out) = 0;
//     - mux select-stable pruning: with a stable known select, the output's
//       committed-value sequence is a subsequence of the selected data
//       input's, so T(out) <= T(selected);
//     - parity rounding: the committed-toggle count's parity equals
//       (frame1 != frame2) when both endpoint values are known, so a
//       mismatching bound loses one count.
//
//   Rail split. Toggles on a net alternate direction starting opposite its
//   initial value, so rising <= ceil/floor(T/2) by the frame-1 value (both
//   rails get ceil(T/2) when it is X). Rising energy bounds the VDD rail,
//   falling the VSS rail, with the exact calculator's per-toggle energy
//   E = C_net * VDD^2 and driver-block attribution (sim/scap.cpp).
//
//   STW lower bound. The switching time window is last - first committed
//   toggle. Certain launches (S1 and S2 both known and different) commit at
//   exactly their clock arrival, so first <= min certain arrival and
//   last >= max certain arrival. A net whose frame-1 and frame-2 settled
//   values are both known and differ is guaranteed a final commit at or
//   after its min-delay forward arrival from the possibly-launching flop
//   set (droop only scales delays up from nominal, so nominal min delays
//   stay valid lower bounds). With no certain launch the window cannot be
//   bounded away from zero and the SCAP bound degrades to +infinity --
//   "cannot be proven clean", never "clean".
//
// Dividing the per-block energy upper bound by the STW lower bound gives a
// per-block SCAP that is >= the exact report's on every pattern; a pattern
// whose bound clears the block threshold therefore provably needs no event
// simulation (the two-tier cascade in core/validation.h). Calibration
// against exact SCAP over the seed corpus (tests/dataflow_test.cpp) pins
// the bound's looseness: total switching energy within kStaticEnergySlack
// of exact on fully-specified patterns, asserted per scenario.
//
// The model takes plain per-net / per-flop / per-gate spans so scap_lint
// keeps its no-sim-link layering; PatternAnalyzer assembles them from the
// SOC's parasitics, clock tree and delay model (core/pattern_sim.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "netlist/levelized_view.h"
#include "netlist/netlist.h"

namespace scap::lint {

/// Empirical calibration slack of the static energy bound vs exact SCAP on
/// fully-specified patterns of the seed corpus: bound <= slack * exact
/// (per scenario total; per-pattern with a small absolute floor). The bound
/// is loose exactly where reconvergent fanout lets scheduled glitches
/// cancel; the corpus-driven test (tests/dataflow_test.cpp) measures
/// per-scenario ratios of 1.5-2.9 on the seed corpus and asserts they stay
/// under this 2x-headroom ceiling.
inline constexpr double kStaticEnergySlack = 6.0;

struct StaticScapBound {
  double stw_lb_ns = 0.0;      ///< lower bound on the switching window
  double toggle_bound = 0.0;   ///< upper bound on total committed toggles
  std::size_t certain_launches = 0;   ///< flops guaranteed to launch
  std::size_t possible_launches = 0;  ///< flops that may launch (X-dependent)

  std::vector<double> vdd_energy_pj;  ///< per block, upper bound
  std::vector<double> vss_energy_pj;  ///< per block, upper bound
  double vdd_energy_total_pj = 0.0;
  double vss_energy_total_pj = 0.0;

  /// Both-rail block SCAP bound [mW]; +infinity when switching energy
  /// exists but the window could not be bounded away from zero.
  double block_scap_mw(std::size_t block) const;
  double total_scap_mw() const;
  double total_energy_pj() const {
    return vdd_energy_total_pj + vss_energy_total_pj;
  }

  /// True when every block's bound clears its threshold: the pattern
  /// provably cannot violate, no event simulation needed (soundness).
  bool certainly_clean(std::span<const double> block_thresholds_mw) const;
};

class StaticScapModel {
 public:
  /// `net_energy_pj`: per-net single-toggle switching energy (C * VDD^2,
  /// exactly the ScapCalculator's); `flop_arrival_ns`: per-flop nominal
  /// launch-clock arrival; `gate_min_delay_ns`: per-gate min(rise, fall)
  /// nominal delay. The netlist must be finalized (cycle-free); the model
  /// sweeps its levelized view.
  /// Throws std::invalid_argument on size mismatches or an unfinalized
  /// netlist.
  StaticScapModel(const Netlist& nl, std::span<const double> net_energy_pj,
                  std::span<const double> flop_arrival_ns,
                  std::span<const double> gate_min_delay_ns);

  /// Screen one pattern (bits may be 0/1/kBitX; X bits model unfilled scan
  /// cells). The returned reference stays valid until the next screen call;
  /// a single model instance must not be shared across threads.
  const StaticScapBound& screen(const TestContext& ctx,
                                const Pattern& pattern) const;

  /// Screen a pre-fill ATPG cube under a fill policy: kFill0/kFill1 resolve
  /// the don't-cares, anything else leaves them X (which is conservative
  /// for every fill, since X widens the bound monotonically).
  const StaticScapBound& screen_cube(const TestContext& ctx,
                                     const TestCube& cube,
                                     FillMode fill) const;

  /// Core entry: `vars` holds one 0/1/kBitX value per test variable
  /// (ctx.num_vars()).
  const StaticScapBound& screen_vars(const TestContext& ctx,
                                     std::span<const std::uint8_t> vars) const;

  const StaticScapBound& bound() const { return bound_; }

 private:
  const Netlist* nl_;
  /// Gate schedule, fanin pool, compact net ids and flop / PI maps. The
  /// scratch arrays below are indexed by compact ids only; everything
  /// external keeps netlist ids.
  std::shared_ptr<const LevelizedView> view_;
  std::vector<double> flop_arrival_ns_;

  // The model's own per-gate extras, in schedule order (per flop for f_*).
  std::vector<std::int8_t> g_cv_;  ///< controlling value; -1 = none
  std::vector<double> g_delay_;    ///< min nominal delay [ns]
  std::vector<double> g_energy_;   ///< output-net toggle energy [pJ]
  std::vector<BlockId> g_block_;   ///< output-net driver block
  std::vector<double> f_energy_;   ///< Q-net toggle energy [pJ]
  std::vector<BlockId> f_block_;   ///< Q-net driver block

  // Reusable per-screen scratch.
  mutable std::vector<V3> value1_;      ///< frame-1 settled values
  mutable std::vector<V3> value2_;      ///< frame-2 settled values
  /// Per net, interleaved {committed-toggle bound, min-delay arrival} so the
  /// forward pass's paired loads share a cache line.
  mutable std::vector<double> ta_;
  mutable std::vector<std::uint8_t> fill_bits_;
  mutable StaticScapBound bound_;
};

}  // namespace scap::lint
