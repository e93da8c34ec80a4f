// Geometric multigrid for the PDN DC solve.
//
// SOR's iteration count grows with the mesh diameter (spectral radius
// ~1 - O(1/n^2) even over-relaxed), which is exactly why the 512x512 bench
// mesh was out of reach: ~2e4 sweeps to 1e-7 V. Multigrid keeps the
// contraction factor mesh-independent by pairing cheap high-frequency
// smoothing with a coarse-grid solve of the smooth remainder:
//
//  - W-cycle: pre-smooth, restrict the residual, recurse twice (a single
//    coarse visit leaves the rediscretized coarse problems under-solved and
//    the contraction degrades with depth), prolongate the coarse
//    correction, post-smooth;
//  - smoother: red-black Gauss-Seidel (the same bipartite coloring as the
//    SOR solver, so sweeps parallelize on the rt pool with bit-identical
//    results at any SCAP_THREADS -- see src/rt/parallel.h);
//  - restriction: full weighting (transpose of the prolongation, stencil
//    weights 1, 1/2, 1/4 -- in 2D this also conserves total injected
//    current and pad conductance between levels);
//  - prolongation: bilinear, renormalized at boundaries and void edges;
//  - coarsest level: dense LU with partial pivoting (a few dozen nodes).
//
// Irregular topologies coarsen structurally: a coarse node sits on every
// even-even fine node that is active, a coarse edge is twice the series
// conductance of the two fine edges it spans (scale-invariant on a uniform
// 2D sheet), and pad anchors aggregate under the restriction weights. The
// hierarchy is built once per PowerGrid and is immutable afterwards;
// solve() allocates its work vectors locally, so concurrent solves on the
// same hierarchy (the statistical analysis solves both rails in parallel)
// are safe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "power/pdn_topology.h"

namespace scap::mg {

struct Level {
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  std::size_t n = 0;  ///< nx * ny
  std::vector<double> g_h, g_v;
  std::vector<std::uint8_t> active;
  std::vector<double> anchor_vdd, anchor_vss;
  /// anchor + sum of incident edge conductances, per rail; 1.0 on inactive
  /// nodes so the smoother never divides by zero.
  std::vector<double> diag_vdd, diag_vss;
};

struct SolveResult {
  std::uint32_t cycles = 0;
  double final_delta_v = 0.0;
  bool converged = false;
};

class Hierarchy {
 public:
  /// `topo` must be finalized. Coarsening stops at 64 active nodes, where
  /// the dense direct solve takes over, or when the mesh cannot halve any
  /// further.
  explicit Hierarchy(const PdnTopology& topo);

  /// W-cycle iteration to max-update tolerance `tol_v` on the finest level.
  /// b is the per-node injected current [A] (finest lattice, row-major);
  /// x is resized and overwritten with the node drops [V]. Re-entrant.
  SolveResult solve(std::span<const double> b, bool vdd_rail, double tol_v,
                    std::uint32_t max_cycles, std::vector<double>& x) const;

  std::size_t num_levels() const { return levels_.size(); }
  const Level& level(std::size_t l) const { return levels_[l]; }

 private:
  struct DenseSolve {
    std::vector<std::uint32_t> ids;  ///< node -> dense index + 1 (0 = none)
    std::vector<double> lu;          ///< n x n, factored in place
    std::vector<std::uint32_t> perm;
    std::uint32_t n = 0;
  };

  void factor_coarsest(bool vdd_rail, DenseSolve& out) const;
  void smooth(std::size_t l, bool vdd_rail, std::span<const double> b,
              std::vector<double>& x, std::uint32_t sweeps, bool par) const;
  void residual(std::size_t l, bool vdd_rail, std::span<const double> b,
                std::span<const double> x, std::vector<double>& r,
                bool par) const;
  void restrict_to(std::size_t lc, std::span<const double> fine_r,
                   std::vector<double>& coarse_b, bool par) const;
  void prolong_add(std::size_t lf, std::span<const double> coarse_x,
                   std::vector<double>& fine_x, bool par) const;
  void solve_coarsest(const DenseSolve& ds, std::span<const double> b,
                      std::vector<double>& x) const;

  std::vector<Level> levels_;
  DenseSolve dense_vdd_, dense_vss_;
};

}  // namespace scap::mg
