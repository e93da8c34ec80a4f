#include "power/multigrid.h"

#include <algorithm>
#include <cmath>

#include "rt/parallel.h"

namespace scap::mg {

namespace {

/// Same inline threshold as the SOR solver: below this many nodes the pool
/// dispatch overhead dominates a sweep.
constexpr std::size_t kParallelNodeThreshold = 8192;
constexpr std::size_t kRowGrain = 16;

/// Red-black Gauss-Seidel sweeps before and after each coarse-grid
/// correction, and the active-node count at which coarsening stops and the
/// dense direct solve takes over.
constexpr std::uint32_t kPreSweeps = 2;
constexpr std::uint32_t kPostSweeps = 2;
constexpr std::size_t kCoarsestNodes = 64;

/// Restriction / prolongation stencil weight along one axis: 1 on the
/// coarse point itself, 1/2 one fine step away.
constexpr double kW[2] = {1.0, 0.5};

std::size_t count_active(const Level& l) {
  std::size_t c = 0;
  for (const std::uint8_t a : l.active) c += a ? 1 : 0;
  return c;
}

void compute_diag(Level& l) {
  l.diag_vdd.assign(l.n, 1.0);
  l.diag_vss.assign(l.n, 1.0);
  for (std::uint32_t iy = 0; iy < l.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < l.nx; ++ix) {
      const std::size_t i = static_cast<std::size_t>(iy) * l.nx + ix;
      if (!l.active[i]) continue;
      double gsum = 0.0;
      if (ix > 0) gsum += l.g_h[iy * (l.nx - 1) + (ix - 1)];
      if (ix + 1 < l.nx) gsum += l.g_h[iy * (l.nx - 1) + ix];
      if (iy > 0) gsum += l.g_v[(iy - 1) * l.nx + ix];
      if (iy + 1 < l.ny) gsum += l.g_v[iy * l.nx + ix];
      const double dv = gsum + l.anchor_vdd[i];
      const double ds = gsum + l.anchor_vss[i];
      // A node with no wires and no anchor on some rail has no equation on
      // that rail; deactivating it keeps every remaining diagonal positive.
      if (dv <= 0.0 || ds <= 0.0) {
        l.active[i] = 0;
        continue;
      }
      l.diag_vdd[i] = dv;
      l.diag_vss[i] = ds;
    }
  }
}

Level make_fine_level(const PdnTopology& t) {
  Level l;
  l.nx = t.nx;
  l.ny = t.ny;
  l.n = static_cast<std::size_t>(t.nx) * t.ny;
  l.g_h = t.g_h;
  l.g_v = t.g_v;
  l.active = t.active;
  l.anchor_vdd = t.vdd_pad_g;
  l.anchor_vss = t.vss_pad_g;
  compute_diag(l);
  return l;
}

Level coarsen(const Level& f) {
  Level c;
  c.nx = (f.nx + 1) / 2;
  c.ny = (f.ny + 1) / 2;
  c.n = static_cast<std::size_t>(c.nx) * c.ny;
  c.g_h.assign(static_cast<std::size_t>(c.nx - 1) * c.ny, 0.0);
  c.g_v.assign(static_cast<std::size_t>(c.nx) * (c.ny - 1), 0.0);
  c.active.assign(c.n, 0);
  c.anchor_vdd.assign(c.n, 0.0);
  c.anchor_vss.assign(c.n, 0.0);

  for (std::uint32_t J = 0; J < c.ny; ++J) {
    for (std::uint32_t I = 0; I < c.nx; ++I) {
      const std::size_t ci = static_cast<std::size_t>(J) * c.nx + I;
      const std::uint32_t fx = 2 * I, fy = 2 * J;
      if (!f.active[static_cast<std::size_t>(fy) * f.nx + fx]) continue;
      c.active[ci] = 1;
      // Pad anchors aggregate under the restriction weights (the transpose
      // of bilinear interpolation); total anchor conductance is conserved.
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::int64_t gx = static_cast<std::int64_t>(fx) + dx;
          const std::int64_t gy = static_cast<std::int64_t>(fy) + dy;
          if (gx < 0 || gy < 0 || gx >= f.nx || gy >= f.ny) continue;
          const double w = kW[dx ? 1 : 0] * kW[dy ? 1 : 0];
          const std::size_t fi = static_cast<std::size_t>(gy) * f.nx + gx;
          c.anchor_vdd[ci] += w * f.anchor_vdd[fi];
          c.anchor_vss[ci] += w * f.anchor_vss[fi];
        }
      }
    }
  }

  // A coarse edge spans two fine edges in series; doubling the series
  // conductance keeps a uniform 2D sheet exactly scale-invariant (the
  // re-discretized coarse operator equals the fine one on uniform meshes).
  auto series2 = [](double g1, double g2) {
    return (g1 > 0.0 && g2 > 0.0) ? 2.0 * (g1 * g2) / (g1 + g2) : 0.0;
  };
  for (std::uint32_t J = 0; J < c.ny; ++J) {
    for (std::uint32_t I = 0; I + 1 < c.nx; ++I) {
      const std::size_t a = static_cast<std::size_t>(J) * c.nx + I;
      if (!c.active[a] || !c.active[a + 1]) continue;
      const std::uint32_t fy = 2 * J;
      c.g_h[J * (c.nx - 1) + I] = series2(f.g_h[fy * (f.nx - 1) + 2 * I],
                                          f.g_h[fy * (f.nx - 1) + 2 * I + 1]);
    }
  }
  for (std::uint32_t J = 0; J + 1 < c.ny; ++J) {
    for (std::uint32_t I = 0; I < c.nx; ++I) {
      const std::size_t a = static_cast<std::size_t>(J) * c.nx + I;
      if (!c.active[a] || !c.active[a + c.nx]) continue;
      const std::uint32_t fx = 2 * I;
      c.g_v[J * c.nx + I] = series2(f.g_v[(2 * J) * f.nx + fx],
                                    f.g_v[(2 * J + 1) * f.nx + fx]);
    }
  }
  compute_diag(c);
  return c;
}

}  // namespace

Hierarchy::Hierarchy(const PdnTopology& topo) {
  levels_.push_back(make_fine_level(topo));
  while (count_active(levels_.back()) > kCoarsestNodes &&
         levels_.back().nx >= 3 && levels_.back().ny >= 3) {
    Level c = coarsen(levels_.back());
    if (count_active(c) == 0) break;
    levels_.push_back(std::move(c));
  }
  factor_coarsest(true, dense_vdd_);
  factor_coarsest(false, dense_vss_);
}

void Hierarchy::factor_coarsest(bool vdd_rail, DenseSolve& out) const {
  const Level& l = levels_.back();
  const std::vector<double>& anchor = vdd_rail ? l.anchor_vdd : l.anchor_vss;
  out.ids.assign(l.n, 0);
  std::vector<std::uint32_t> nodes;
  for (std::size_t i = 0; i < l.n; ++i) {
    if (l.active[i]) {
      nodes.push_back(static_cast<std::uint32_t>(i));
      out.ids[i] = static_cast<std::uint32_t>(nodes.size());
    }
  }
  const std::uint32_t n = static_cast<std::uint32_t>(nodes.size());
  out.n = n;
  out.lu.assign(static_cast<std::size_t>(n) * n, 0.0);
  auto at = [&](std::uint32_t r, std::uint32_t cc) -> double& {
    return out.lu[static_cast<std::size_t>(r) * n + cc];
  };
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::uint32_t i = nodes[r];
    const std::uint32_t ix = i % l.nx, iy = i / l.nx;
    double gsum = anchor[i];
    auto couple = [&](std::uint32_t j, double g) {
      if (g <= 0.0) return;
      gsum += g;
      if (out.ids[j]) at(r, out.ids[j] - 1) = -g;
    };
    if (ix > 0) couple(i - 1, l.g_h[iy * (l.nx - 1) + (ix - 1)]);
    if (ix + 1 < l.nx) couple(i + 1, l.g_h[iy * (l.nx - 1) + ix]);
    if (iy > 0) couple(i - l.nx, l.g_v[(iy - 1) * l.nx + ix]);
    if (iy + 1 < l.ny) couple(i + l.nx, l.g_v[iy * l.nx + ix]);
    at(r, r) = gsum;
  }
  // In-place LU with partial pivoting. A vanishing pivot means a floating
  // (anchorless on this rail) component slipped through coarsening; pinning
  // that unknown to zero is a valid particular correction and keeps the
  // factorization deterministic.
  out.perm.assign(n, 0);
  for (std::uint32_t k = 0; k < n; ++k) {
    std::uint32_t p = k;
    for (std::uint32_t r = k + 1; r < n; ++r) {
      if (std::abs(at(r, k)) > std::abs(at(p, k))) p = r;
    }
    out.perm[k] = p;
    if (p != k) {
      for (std::uint32_t cc = 0; cc < n; ++cc) std::swap(at(k, cc), at(p, cc));
    }
    if (std::abs(at(k, k)) < 1e-300) {
      for (std::uint32_t cc = 0; cc < n; ++cc) at(k, cc) = cc == k ? 1.0 : 0.0;
      for (std::uint32_t r = k + 1; r < n; ++r) at(r, k) = 0.0;
      continue;
    }
    const double inv = 1.0 / at(k, k);
    for (std::uint32_t r = k + 1; r < n; ++r) {
      const double m = at(r, k) * inv;
      if (m == 0.0) continue;
      at(r, k) = m;
      for (std::uint32_t cc = k + 1; cc < n; ++cc) at(r, cc) -= m * at(k, cc);
    }
  }
}

void Hierarchy::solve_coarsest(const DenseSolve& ds, std::span<const double> b,
                               std::vector<double>& x) const {
  const Level& l = levels_.back();
  const std::uint32_t n = ds.n;
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < l.n; ++i) {
    if (ds.ids[i]) y[ds.ids[i] - 1] = b[i];
  }
  auto at = [&](std::uint32_t r, std::uint32_t cc) {
    return ds.lu[static_cast<std::size_t>(r) * n + cc];
  };
  for (std::uint32_t k = 0; k < n; ++k) {
    if (ds.perm[k] != k) std::swap(y[k], y[ds.perm[k]]);
    for (std::uint32_t r = k + 1; r < n; ++r) y[r] -= at(r, k) * y[k];
  }
  for (std::uint32_t k = n; k-- > 0;) {
    for (std::uint32_t cc = k + 1; cc < n; ++cc) y[k] -= at(k, cc) * y[cc];
    y[k] /= at(k, k);
  }
  std::fill(x.begin(), x.end(), 0.0);
  for (std::size_t i = 0; i < l.n; ++i) {
    if (ds.ids[i]) x[i] = y[ds.ids[i] - 1];
  }
}

void Hierarchy::smooth(std::size_t li, bool vdd_rail, std::span<const double> b,
                       std::vector<double>& x, std::uint32_t sweeps,
                       bool par) const {
  const Level& l = levels_[li];
  const std::vector<double>& diag = vdd_rail ? l.diag_vdd : l.diag_vss;
  const std::uint32_t nx = l.nx, ny = l.ny;
  for (std::uint32_t s = 0; s < sweeps; ++s) {
    for (int color = 0; color < 2; ++color) {
      auto body = [&](std::size_t y0, std::size_t y1) {
        for (std::uint32_t iy = static_cast<std::uint32_t>(y0);
             iy < static_cast<std::uint32_t>(y1); ++iy) {
          for (std::uint32_t ix = (iy + static_cast<std::uint32_t>(color)) & 1u;
               ix < nx; ix += 2) {
            const std::size_t i = static_cast<std::size_t>(iy) * nx + ix;
            if (!l.active[i]) continue;
            double flow = b[i];
            if (ix > 0) flow += l.g_h[iy * (nx - 1) + (ix - 1)] * x[i - 1];
            if (ix + 1 < nx) flow += l.g_h[iy * (nx - 1) + ix] * x[i + 1];
            if (iy > 0) flow += l.g_v[(iy - 1) * nx + ix] * x[i - nx];
            if (iy + 1 < ny) flow += l.g_v[iy * nx + ix] * x[i + nx];
            x[i] = flow / diag[i];
          }
        }
      };
      if (par) {
        rt::parallel_for(ny, kRowGrain, body);
      } else {
        body(0, ny);
      }
    }
  }
}

void Hierarchy::residual(std::size_t li, bool vdd_rail,
                         std::span<const double> b, std::span<const double> x,
                         std::vector<double>& r, bool par) const {
  const Level& l = levels_[li];
  const std::vector<double>& diag = vdd_rail ? l.diag_vdd : l.diag_vss;
  const std::uint32_t nx = l.nx, ny = l.ny;
  auto body = [&](std::size_t y0, std::size_t y1) {
    for (std::uint32_t iy = static_cast<std::uint32_t>(y0);
         iy < static_cast<std::uint32_t>(y1); ++iy) {
      for (std::uint32_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = static_cast<std::size_t>(iy) * nx + ix;
        if (!l.active[i]) {
          r[i] = 0.0;
          continue;
        }
        double flow = 0.0;
        if (ix > 0) flow += l.g_h[iy * (nx - 1) + (ix - 1)] * x[i - 1];
        if (ix + 1 < nx) flow += l.g_h[iy * (nx - 1) + ix] * x[i + 1];
        if (iy > 0) flow += l.g_v[(iy - 1) * nx + ix] * x[i - nx];
        if (iy + 1 < ny) flow += l.g_v[iy * nx + ix] * x[i + nx];
        r[i] = b[i] - (diag[i] * x[i] - flow);
      }
    }
  };
  if (par) {
    rt::parallel_for(ny, kRowGrain, body);
  } else {
    body(0, ny);
  }
}

void Hierarchy::restrict_to(std::size_t lc, std::span<const double> fine_r,
                            std::vector<double>& coarse_b, bool par) const {
  const Level& c = levels_[lc];
  const Level& f = levels_[lc - 1];
  auto body = [&](std::size_t j0, std::size_t j1) {
    for (std::uint32_t J = static_cast<std::uint32_t>(j0);
         J < static_cast<std::uint32_t>(j1); ++J) {
      for (std::uint32_t I = 0; I < c.nx; ++I) {
        const std::size_t ci = static_cast<std::size_t>(J) * c.nx + I;
        if (!c.active[ci]) {
          coarse_b[ci] = 0.0;
          continue;
        }
        const std::uint32_t fx = 2 * I, fy = 2 * J;
        double acc = 0.0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const std::int64_t gx = static_cast<std::int64_t>(fx) + dx;
            const std::int64_t gy = static_cast<std::int64_t>(fy) + dy;
            if (gx < 0 || gy < 0 || gx >= f.nx || gy >= f.ny) continue;
            acc += kW[dx ? 1 : 0] * kW[dy ? 1 : 0] *
                   fine_r[static_cast<std::size_t>(gy) * f.nx + gx];
          }
        }
        coarse_b[ci] = acc;
      }
    }
  };
  if (par) {
    rt::parallel_for(c.ny, kRowGrain, body);
  } else {
    body(0, c.ny);
  }
}

void Hierarchy::prolong_add(std::size_t lf, std::span<const double> coarse_x,
                            std::vector<double>& fine_x, bool par) const {
  const Level& f = levels_[lf];
  const Level& c = levels_[lf + 1];
  auto body = [&](std::size_t y0, std::size_t y1) {
    for (std::uint32_t iy = static_cast<std::uint32_t>(y0);
         iy < static_cast<std::uint32_t>(y1); ++iy) {
      const std::uint32_t J0 = iy / 2;
      const bool oy = (iy & 1u) != 0;
      for (std::uint32_t ix = 0; ix < f.nx; ++ix) {
        const std::size_t i = static_cast<std::size_t>(iy) * f.nx + ix;
        if (!f.active[i]) continue;
        const std::uint32_t I0 = ix / 2;
        const bool ox = (ix & 1u) != 0;
        double acc = 0.0, wt = 0.0;
        for (int pj = 0; pj <= (oy ? 1 : 0); ++pj) {
          const std::uint32_t J = J0 + static_cast<std::uint32_t>(pj);
          if (J >= c.ny) continue;
          const double wy = oy ? 0.5 : 1.0;
          for (int pi = 0; pi <= (ox ? 1 : 0); ++pi) {
            const std::uint32_t I = I0 + static_cast<std::uint32_t>(pi);
            if (I >= c.nx) continue;
            const double w = wy * (ox ? 0.5 : 1.0);
            const std::size_t ci = static_cast<std::size_t>(J) * c.nx + I;
            if (!c.active[ci]) continue;
            acc += w * coarse_x[ci];
            wt += w;
          }
        }
        if (wt > 0.0) fine_x[i] += acc / wt;
      }
    }
  };
  if (par) {
    rt::parallel_for(f.ny, kRowGrain, body);
  } else {
    body(0, f.ny);
  }
}

SolveResult Hierarchy::solve(std::span<const double> b, bool vdd_rail,
                             double tol_v, std::uint32_t max_cycles,
                             std::vector<double>& x) const {
  const std::size_t depth = levels_.size();
  const DenseSolve& ds = vdd_rail ? dense_vdd_ : dense_vss_;

  // All per-solve state is local: the statistical analysis solves both rails
  // concurrently on one hierarchy.
  std::vector<std::vector<double>> xs(depth), bs(depth), rs(depth);
  std::vector<char> par(depth);
  const bool pool_ok =
      rt::concurrency() > 1 && !rt::ThreadPool::on_worker_thread();
  for (std::size_t l = 0; l < depth; ++l) {
    const std::size_t n = levels_[l].n;
    xs[l].assign(n, 0.0);
    bs[l].assign(n, 0.0);
    rs[l].assign(n, 0.0);
    par[l] = pool_ok && n >= kParallelNodeThreshold;
  }
  std::copy(b.begin(), b.end(), bs[0].begin());

  auto vcycle = [&](auto&& self, std::size_t l) -> void {
    if (l + 1 == depth) {
      solve_coarsest(ds, bs[l], xs[l]);
      return;
    }
    smooth(l, vdd_rail, bs[l], xs[l], kPreSweeps, par[l]);
    residual(l, vdd_rail, bs[l], xs[l], rs[l], par[l]);
    restrict_to(l + 1, rs[l], bs[l + 1], par[l + 1]);
    std::fill(xs[l + 1].begin(), xs[l + 1].end(), 0.0);
    self(self, l + 1);
    // Second coarse visit (W-cycle). With a single visit the contraction
    // degrades with depth (0.18 two-grid -> 0.61 at seven levels on a
    // 512x512 sheet: the rediscretized coarse problems are left under-
    // solved); revisiting keeps it depth-independent at ~0.23. The coarse
    // levels are 4x smaller each, so the extra visits cost well under one
    // fine-level smoothing pass in total.
    if (l + 2 < depth) self(self, l + 1);
    prolong_add(l, xs[l + 1], xs[l], par[l]);
    smooth(l, vdd_rail, bs[l], xs[l], kPostSweeps, par[l]);
  };

  SolveResult res;
  std::vector<double> prev(levels_[0].n, 0.0);
  for (std::uint32_t cycle = 0; cycle < max_cycles; ++cycle) {
    std::copy(xs[0].begin(), xs[0].end(), prev.begin());
    vcycle(vcycle, 0);
    double delta = 0.0;
    for (std::size_t i = 0; i < prev.size(); ++i) {
      delta = std::max(delta, std::abs(xs[0][i] - prev[i]));
    }
    res.cycles = cycle + 1;
    res.final_delta_v = delta;
    if (delta < tol_v) {
      res.converged = true;
      break;
    }
  }
  x = std::move(xs[0]);
  return res;
}

}  // namespace scap::mg
