// Per-pattern launch-to-capture analysis pipeline.
//
// Chains the engines exactly the way the paper's Figure 5 flow does:
// scan state -> zero-delay frame-1 settle -> launch stimuli at per-flop clock
// arrivals -> event-driven timing simulation -> streaming toggle sinks ->
// SCAP / IR / settle reports. Optionally the delay model and the clock
// arrivals are derated by a voltage map (the Section 3.2 "simulation with
// IR-drop effects").
//
// One PatternAnalyzer owns a warm EventSim::Workspace plus reusable frame-1 /
// stimulus / SCAP-report buffers, so screening a pattern stream through
// analyze_scap()/analyze_into() is allocation-free in steady state. A single
// instance must therefore not be used from two threads concurrently; give
// each thread its own analyzer instead (scap_profile_patterns keeps one per
// pool lane).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/pattern.h"
#include "netlist/tech_library.h"
#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sim/scap.h"
#include "soc/generator.h"

namespace scap {

struct PatternAnalysis {
  ScapReport scap;
  std::size_t launched_flops = 0;  ///< flops that toggled at launch
};

class PatternAnalyzer {
 public:
  /// Immutable per-design analysis tables: the nominal delay model and the
  /// SCAP calculator, the two expensive per-net/per-gate precomputations an
  /// analyzer needs. They are read-only after construction, so parallel
  /// screens build them once and hand every thread-private analyzer the same
  /// instance instead of recomputing them per analyzer (see
  /// scap_profile_patterns / serve::WorkspacePool).
  struct SharedTables {
    DelayModel dm;
    ScapCalculator scap;
    SharedTables(const SocDesign& soc, const TechLibrary& lib)
        : dm(soc.netlist, lib, soc.parasitics),
          scap(soc.netlist, soc.parasitics, lib) {}
    static std::shared_ptr<const SharedTables> build(const SocDesign& soc,
                                                     const TechLibrary& lib) {
      return std::make_shared<const SharedTables>(soc, lib);
    }
  };

  PatternAnalyzer(const SocDesign& soc, const TechLibrary& lib);

  /// Share prebuilt tables (must have been built from the same soc/lib).
  PatternAnalyzer(const SocDesign& soc, const TechLibrary& lib,
                  std::shared_ptr<const SharedTables> tables);

  /// Analyze one pattern into an owned SCAP report. `delay_model` overrides
  /// the nominal model (pass a droop-derated one for IR-aware simulation);
  /// `clock_arrivals` overrides the nominal per-flop launch-clock arrivals.
  PatternAnalysis analyze(const TestContext& ctx, const Pattern& pattern,
                          const DelayModel* delay_model = nullptr,
                          std::span<const double> clock_arrivals = {}) const;

  /// Streaming core: settle frame 1, build the launch stimuli and run the
  /// timing simulation, pushing every toggle into `sink`. The settled
  /// pre-launch state stays readable via frame1() until the next analysis.
  /// Returns the number of launched flops. Every analysis entry point throws
  /// std::invalid_argument on a pattern shorter than ctx.num_vars() or a
  /// non-empty `clock_arrivals` without one entry per flop.
  std::size_t analyze_into(const TestContext& ctx, const Pattern& pattern,
                           ToggleSink& sink,
                           const DelayModel* delay_model = nullptr,
                           std::span<const double> clock_arrivals = {}) const;

  /// SCAP-only screening path (Figures 2 & 6 profiling): one simulation pass
  /// into the internal accumulator, zero steady-state allocations. The
  /// returned reference is valid until the next analyze_scap() call.
  const ScapReport& analyze_scap(const TestContext& ctx,
                                 const Pattern& pattern) const;

  /// Endpoint path delay per flop over per-net settle times captured by a
  /// SettleTimeTracker: last D-pin transition relative to the flop's own
  /// clock arrival (the paper's Figure 7 measurement). Inactive endpoints
  /// (no transition observed) report 0. Throws std::invalid_argument unless
  /// `settle` has one entry per net and a non-empty `clock_arrivals` one per
  /// flop.
  std::vector<double> endpoint_delays_from_settle(
      std::span<const double> settle,
      std::span<const double> clock_arrivals) const;

  /// Settled frame-1 net values of the most recent analysis.
  std::span<const std::uint8_t> frame1() const { return frame1_; }

  /// Launch stimuli of the most recent analysis (flop Q flips at their clock
  /// arrivals). Together with frame1() this is the oracle hook the
  /// differential harness (src/ref) uses to replay the exact same simulation
  /// input through the reference engine.
  std::span<const Stimulus> stimuli() const { return stimuli_; }

  const DelayModel& nominal_delays() const { return tables_->dm; }
  const ScapCalculator& scap_calculator() const { return tables_->scap; }
  std::shared_ptr<const SharedTables> shared_tables() const { return tables_; }
  const EventSim::Workspace& workspace() const { return ws_; }

 private:
  /// Fill frame1_ / stimuli_ for this pattern; returns launched flop count.
  std::size_t build_launch(const TestContext& ctx, const Pattern& pattern,
                           std::span<const double> clock_arrivals) const;

  const SocDesign* soc_;
  const TechLibrary* lib_;
  BatchSim frame_sim_;  ///< W = 1: lane 0 carries the pattern
  std::shared_ptr<const SharedTables> tables_;

  // Reusable per-pattern scratch (capacity persists across analyses).
  mutable EventSim::Workspace ws_;
  mutable std::vector<std::uint64_t> q_words_, pi_words_, net_words_;
  mutable std::vector<std::uint8_t> frame1_;
  mutable std::vector<Stimulus> stimuli_;
  mutable ScapAccumulator scap_acc_;
};

}  // namespace scap
