// Tolerance-aware comparators between optimized kernels and their naive
// reference oracles (src/ref/ref_models.h).
//
// Tolerance policy, in one place instead of ad-hoc epsilons per test:
//  - Energies (SCAP sums): the optimized accumulators sum doubles in commit
//    order while the references Kahan-sum the same toggles, so the results
//    differ only by plain-summation rounding, bounded by ~n_toggles * eps *
//    total. kEnergyRelTol = 1e-9 is ~1e3x that bound for the largest traces
//    the fuzzer generates, yet still catches any real accounting bug (one
//    mis-attributed toggle shifts a block sum by >= one full toggle energy).
//  - Switching time windows: the optimized path keeps first/last commit times
//    in double, while the reference recomputes the window from the recorded
//    toggle list, whose timestamps are floats -- a deliberate re-derivation,
//    not a copy. Float quantization is ~1e-7 *of the timestamps*, and the
//    window is a difference of two timestamps -- so the error is absolute in
//    the timestamp magnitude (up to ~1e-5 ns for 100 ns commits) even when
//    the window itself is near zero. Hence both a relative term (1e-6) and
//    an absolute floor kStwAbsTolNs = 1e-4 ns; the self-test's injected
//    0.05 ns window bug sits 500x above the floor.
//  - Grid node voltages: the production SOR stops at a finite update-delta,
//    not at the exact solution, so an error up to ~delta / (1 - rho)
//    survives on its side; the banded-Cholesky reference is exact to
//    rounding. kGridRelTol/kGridAbsTolV bound the node-wise disagreement of
//    an honest SOR and the reference; indexing or stamping bugs produce
//    errors orders of magnitude larger.
//  - Traces and fault grades are discrete and compare exactly.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "power/power_grid.h"
#include "ref/trace.h"
#include "sim/scap.h"

namespace scap::ref {

inline constexpr double kEnergyRelTol = 1e-9;
inline constexpr double kStwRelTol = 1e-6;
inline constexpr double kStwAbsTolNs = 1e-4;
inline constexpr double kGridRelTol = 1e-3;
inline constexpr double kGridAbsTolV = 1e-5;
inline constexpr double kDefaultAbsTol = 1e-12;

/// Symmetric relative comparison with an absolute floor:
///   |a - b| <= max(abs, rel * max(|a|, |b|)).
inline bool close_enough(double a, double b, double rel = kEnergyRelTol,
                         double abs = kDefaultAbsTol) {
  const double diff = std::fabs(a - b);
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= std::fmax(abs, rel * scale);
}

/// One optimized-vs-reference mismatch, with enough context to debug it.
struct Divergence {
  std::string oracle;  ///< "eventsim" | "scap" | "grade" | "grid"
  std::string detail;  ///< human-readable what/where/by-how-much
  std::size_t pattern = static_cast<std::size_t>(-1);  ///< index, if per-pattern
};

/// Exact comparison of two simulation traces (toggle-by-toggle, stats
/// included). Returns true when identical; otherwise fills `why`.
bool compare_traces(const SimTrace& optimized, const SimTrace& reference,
                    std::string* why);

/// SCAP reports: exact toggle counts, tolerance-aware windows and energies.
bool compare_scap(const ScapReport& optimized, const ScapReport& reference,
                  std::string* why);

/// First-detect indices from fault grading (exact; kUndetected included).
bool compare_grade(std::span<const std::size_t> optimized,
                   std::span<const std::size_t> reference, std::string* why);

/// Grid solutions: node-wise within kGridRelTol/kGridAbsTolV (overridable).
bool compare_grid(const GridSolution& optimized, const GridSolution& reference,
                  std::string* why, double rel = kGridRelTol,
                  double abs = kGridAbsTolV);

}  // namespace scap::ref
