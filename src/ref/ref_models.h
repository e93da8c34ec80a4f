// Naive, obviously-correct reference implementations of the library's four
// optimized kernels, for differential testing (the analogue of the paper's
// PLI-based SCAP calculator that double-checks its ATPG wrapper).
//
// Ground rules, deliberately the opposite of the production code's:
//  - no shared code paths with the kernels under test: a private cell
//    evaluator (ref_eval_cell), flat ordered std::map event queues instead
//    of the workspace pools, full-netlist fixpoint sweeps instead of
//    levelized cones, one-fault-at-a-time scalar grading instead of 64-way
//    words, dense/natural-order Gauss-Seidel instead of red-black SOR;
//  - no reuse, no allocation discipline, no parallelism -- clarity only.
//
// Each reference is paired with a comparator in ref/compare.h; the fuzz
// driver (ref/fuzz.h) runs optimized-vs-reference on randomized scenarios.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "atpg/pattern.h"
#include "layout/floorplan.h"
#include "layout/parasitics.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "power/power_grid.h"
#include "sim/event_sim.h"
#include "sim/scap.h"

namespace scap::ref {

/// Independent scalar evaluation of one cell (own truth tables, not the
/// production eval_scalar): a bug in the cell kit shows up as a divergence
/// instead of being replicated on both sides.
std::uint8_t ref_eval_cell(CellType t, std::span<const std::uint8_t> ins);

/// Reference event-driven timing simulator: same transport-delay semantics
/// as EventSim (cancel-on-reschedule, (time, stamp) commit order) expressed
/// with flat ordered std::map queues -- no workspace, no pending pools, no
/// heap. Produces a trace that must match EventSim bit-for-bit, event
/// statistics included.
class EventSimRef {
 public:
  EventSimRef(const Netlist& nl, const DelayModel& dm) : nl_(&nl), dm_(&dm) {}

  SimTrace run(std::span<const std::uint8_t> initial_net_values,
               std::span<const Stimulus> stimuli) const;

 private:
  const Netlist* nl_;
  const DelayModel* dm_;
};

/// Reference SCAP accounting: recompute the switching time window from the
/// full toggle list and Kahan-sum the per-block rail energies (Eq. 1-2 of
/// the paper applied literally). Compare with compare_scap, not ==: the
/// optimized path sums in plain double.
ScapReport scap_ref(const Netlist& nl, const Parasitics& par,
                    const TechLibrary& lib, const SimTrace& trace,
                    double period_ns);

/// Reference zero-delay frame settle: sweep every gate in id order until no
/// net changes (a fixpoint, not a levelized schedule). Returns one 0/1 value
/// per net from the flop Q states and PI values (sizes must match the
/// netlist's flop / PI counts).
std::vector<std::uint8_t> eval_frame_ref(const Netlist& nl,
                                         std::span<const std::uint8_t> flop_q,
                                         std::span<const std::uint8_t> pi);

/// Reference transition-fault grading: one fault at a time, one pattern at a
/// time, each via full-netlist fixpoint frame evaluation with the stuck value
/// forced at the site. Returns the first detecting pattern index per fault
/// (kRefUndetected if none) -- the exact contract of FaultSimulator::grade.
inline constexpr std::size_t kRefUndetected = static_cast<std::size_t>(-1);
std::vector<std::size_t> fault_grade_ref(const Netlist& nl,
                                         const TestContext& ctx,
                                         std::span<const Pattern> patterns,
                                         std::span<const TdfFault> faults);

/// Reference IR-drop solve: assemble the mesh conductance equations
/// independently from the floorplan and relax them with plain natural-order
/// Gauss-Seidel (a dense matrix for small meshes, the 5-point stencil above
/// kDenseNodeLimit nodes -- same arithmetic either way). Iterates an order
/// of magnitude past the production tolerance so comparator slack covers
/// both solvers' truncation.
inline constexpr std::size_t kDenseNodeLimit = 256;
GridSolution grid_solve_ref(const Floorplan& fp, const PowerGridOptions& opt,
                            std::span<const Point> where,
                            std::span<const double> amps, bool vdd_rail,
                            std::size_t max_sweeps = 200000);

/// Irregular-topology reference. The finalized PdnTopology (per-edge
/// conductances, voids, pad anchors, injection snap map) is the *problem
/// statement* shared with the production solvers; everything downstream of
/// it -- matrix assembly, factorization, iteration -- is independent. At or
/// below kDenseNodeLimit active nodes the system is solved exactly by dense
/// LU with partial pivoting (so the oracle carries no iteration truncation
/// at all); above it, natural-order Gauss-Seidel on the per-edge 5-point
/// stencil, iterated well past the production tolerance.
GridSolution grid_solve_ref(const Rect& die, const PdnTopology& topo,
                            const PowerGridOptions& opt,
                            std::span<const Point> where,
                            std::span<const double> amps, bool vdd_rail,
                            std::size_t max_sweeps = 200000);

}  // namespace scap::ref
