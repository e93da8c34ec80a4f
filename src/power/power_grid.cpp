#include "power/power_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/multigrid.h"
#include "rt/parallel.h"

namespace scap {

// The SOR stencil on a (nx+2) x (ny+2) lattice: the mesh inside a ring of
// nodes that have no edges and zero drop. Every mesh node then has four
// neighbours, an absent edge is a zero conductance, and a sweep tests no
// edges. Each drop is finite, so an absent edge adds exactly 0.0 to the
// inflow and the sums equal the edge-tested ones bit for bit.
struct PowerGrid::SorOperator {
  std::uint32_t nx = 0, ny = 0;  ///< the mesh, without the ring
  std::size_t px = 0;            ///< padded row length, nx + 2
  std::vector<double> g_left, g_right, g_up, g_down;
  /// Per rail: pad + left + right + up + down, summed in that order.
  std::vector<double> gsum_vdd, gsum_vss;
  std::vector<std::uint8_t> active;  ///< 0 on the ring and in voids

  explicit SorOperator(const PdnTopology& t)
      : nx(t.nx), ny(t.ny), px(t.nx + 2) {
    const std::size_t n = px * (ny + 2);
    for (auto* v : {&g_left, &g_right, &g_up, &g_down, &gsum_vdd, &gsum_vss}) {
      v->assign(n, 0.0);
    }
    active.assign(n, 0);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      for (std::uint32_t ix = 0; ix < nx; ++ix) {
        const std::size_t p = at(ix, iy);
        const std::uint32_t i = t.node(ix, iy);
        active[p] = t.active[i];
        if (ix > 0) g_left[p] = t.edge_h(ix - 1, iy);
        if (ix + 1 < nx) g_right[p] = t.edge_h(ix, iy);
        if (iy > 0) g_up[p] = t.edge_v(ix, iy - 1);
        if (iy + 1 < ny) g_down[p] = t.edge_v(ix, iy);
        gsum_vdd[p] =
            t.vdd_pad_g[i] + g_left[p] + g_right[p] + g_up[p] + g_down[p];
        gsum_vss[p] =
            t.vss_pad_g[i] + g_left[p] + g_right[p] + g_up[p] + g_down[p];
      }
    }
  }

  std::size_t at(std::uint32_t ix, std::uint32_t iy) const {
    return (iy + 1) * px + ix + 1;
  }

  /// b + the four neighbours' g * d, added left, right, up, down.
  double flow(std::size_t p, double b, const double* d) const {
    double f = b;
    f += g_left[p] * d[p - 1];
    f += g_right[p] * d[p + 1];
    f += g_up[p] * d[p - px];
    f += g_down[p] * d[p + px];
    return f;
  }

  /// A row-major nx * ny map in the padded layout (0 on the ring).
  std::vector<double> pad(std::span<const double> v) const {
    std::vector<double> out(active.size(), 0.0);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(iy) * nx, nx,
                  out.begin() + static_cast<std::ptrdiff_t>(at(0, iy)));
    }
    return out;
  }

  /// The inverse of pad: the mesh nodes of `padded`, row-major.
  std::vector<double> unpad(const std::vector<double>& padded) const {
    std::vector<double> out(static_cast<std::size_t>(nx) * ny);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      std::copy_n(padded.begin() + static_cast<std::ptrdiff_t>(at(0, iy)), nx,
                  out.begin() + static_cast<std::ptrdiff_t>(iy) * nx);
    }
    return out;
  }
};

double GridSolution::drop_at(Point p) const {
  // Map p to fractional grid coordinates; clamp to the node lattice.
  const double fx = (p.x - die.x0) / die.width() * (nx - 1);
  const double fy = (p.y - die.y0) / die.height() * (ny - 1);
  const double cx = std::clamp(fx, 0.0, static_cast<double>(nx - 1));
  const double cy = std::clamp(fy, 0.0, static_cast<double>(ny - 1));
  const auto ix = static_cast<std::uint32_t>(cx);
  const auto iy = static_cast<std::uint32_t>(cy);
  const std::uint32_t ix1 = std::min(ix + 1, nx - 1);
  const std::uint32_t iy1 = std::min(iy + 1, ny - 1);
  const double tx = cx - ix;
  const double ty = cy - iy;
  const double v00 = node(ix, iy), v10 = node(ix1, iy);
  const double v01 = node(ix, iy1), v11 = node(ix1, iy1);
  return (1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10 +
         (1 - tx) * ty * v01 + tx * ty * v11;
}

double GridSolution::worst() const {
  double m = 0.0;
  for (double d : drop_v) m = std::max(m, d);
  return m;
}

double GridSolution::worst_in(const Rect& r) const {
  double m = 0.0;
  for (std::uint32_t iy = 0; iy < ny; ++iy) {
    for (std::uint32_t ix = 0; ix < nx; ++ix) {
      const Point p{die.x0 + die.width() * ix / (nx - 1),
                    die.y0 + die.height() * iy / (ny - 1)};
      if (r.contains(p)) m = std::max(m, node(ix, iy));
    }
  }
  return m;
}

double GridSolution::average_in(const Rect& r) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::uint32_t iy = 0; iy < ny; ++iy) {
    for (std::uint32_t ix = 0; ix < nx; ++ix) {
      const Point p{die.x0 + die.width() * ix / (nx - 1),
                    die.y0 + die.height() * iy / (ny - 1)};
      if (r.contains(p)) {
        sum += node(ix, iy);
        ++n;
      }
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

PowerGrid::PowerGrid(const Floorplan& fp, PowerGridOptions opt)
    : opt_(opt), die_(fp.die()) {
  topo_ = PdnTopology::uniform(opt_.nx, opt_.ny, 1.0 / opt_.segment_res_ohm);
  const double gpad = 1.0 / opt_.pad_res_ohm;
  for (const PowerPad& pad : fp.pads()) {
    topo_.add_pad_at(die_, pad.pos, pad.is_vdd, gpad);
  }
  topo_.finalize();
  init_solver();
}

PowerGrid::PowerGrid(const Rect& die, PowerGridOptions opt, PdnTopology topo)
    : opt_(opt), die_(die), topo_(std::move(topo)) {
  opt_.nx = topo_.nx;
  opt_.ny = topo_.ny;
  init_solver();
}

void PowerGrid::init_solver() {
  sor_ = std::make_shared<const SorOperator>(topo_);
  resolved_ = opt_.solver;
  if (resolved_ == GridSolver::kAuto) {
    // SOR converges comfortably on small meshes and keeps its decade of
    // bit-identical history there; multigrid takes over where SOR's
    // iteration count (and wall clock) explodes.
    resolved_ = std::min(opt_.nx, opt_.ny) >= 64 ? GridSolver::kMultigrid
                                                 : GridSolver::kSor;
  }
  if (resolved_ == GridSolver::kMultigrid) {
    mg_ = std::make_shared<mg::Hierarchy>(topo_,
                                          std::max(1u, opt_.mg_coarsest_nodes));
  }
}

std::uint32_t PowerGrid::nearest_node(Point p) const {
  const double fx = (p.x - die_.x0) / die_.width() * (opt_.nx - 1);
  const double fy = (p.y - die_.y0) / die_.height() * (opt_.ny - 1);
  const auto ix = static_cast<std::uint32_t>(
      std::clamp(std::lround(fx), 0l, static_cast<long>(opt_.nx - 1)));
  const auto iy = static_cast<std::uint32_t>(
      std::clamp(std::lround(fy), 0l, static_cast<long>(opt_.ny - 1)));
  return node_index(ix, iy);
}

std::vector<double> PowerGrid::gather_currents(
    std::span<const Point> where, std::span<const double> amps) const {
  const std::size_t n = static_cast<std::size_t>(opt_.nx) * opt_.ny;
  std::vector<double> current(n, 0.0);
  for (std::size_t i = 0; i < where.size(); ++i) {
    // Loads that land inside a void snap to the nearest surviving node
    // (identity on uniform meshes).
    current[topo_.snap[nearest_node(where[i])]] += amps[i];
  }
  return current;
}

GridSolution PowerGrid::solve(std::span<const Point> where,
                              std::span<const double> amps,
                              bool vdd_rail) const {
  SCAP_TRACE_SCOPE("power.grid_solve");
  const std::vector<double> current = gather_currents(where, amps);
  GridSolution sol = resolved_ == GridSolver::kMultigrid
                         ? solve_multigrid(current, vdd_rail)
                         : solve_sor(current, vdd_rail);
  obs::count("power.grid_solves_total");
  if (!sol.converged) {
    obs::count("power.grid_solve_nonconverged");
    std::fprintf(stderr,
                 "scapgen: warning: power-grid solve stopped non-converged "
                 "after %u iterations (residual %.3e V > tol %.3e V); the IR "
                 "map may understate drops\n",
                 sol.iterations, sol.final_delta_v, opt_.tolerance_v);
  }
  return sol;
}

GridSolution PowerGrid::solve_sor(std::span<const double> current,
                                  bool vdd_rail) const {
  const SorOperator& op = *sor_;
  const std::uint32_t nx = opt_.nx, ny = opt_.ny;
  const std::vector<double>& gsum = vdd_rail ? op.gsum_vdd : op.gsum_vss;
  const std::vector<std::uint8_t>& act = op.active;
  const double omega = opt_.sor_omega;
  const std::vector<double> b = op.pad(current);

  GridSolution sol;
  sol.nx = nx;
  sol.ny = ny;
  sol.die = die_;
  sol.solver = GridSolver::kSor;

  // Red-black SOR sweeps. The 4-neighbour mesh is bipartite under
  // (ix + iy) parity, so every update of one colour reads only the other
  // colour: within a colour pass the node updates are order-independent,
  // which makes the sweep safe to run on the rt pool AND bit-identical at
  // any thread count (max-of-|delta| is an exact reduction). Large meshes
  // split the pass into row bands; small ones stay inline -- both paths
  // produce the same values by construction.
  std::vector<double> d(b.size(), 0.0);  // padded drops; the ring stays 0
  const bool parallel = static_cast<std::size_t>(nx) * ny >= 8192 &&
                        rt::concurrency() > 1 &&
                        !rt::ThreadPool::on_worker_thread();
  for (std::uint32_t it = 0; it < opt_.max_iterations; ++it) {
    double max_delta = 0.0;
    for (std::uint32_t color = 0; color < 2; ++color) {
      auto sweep_rows = [&](std::size_t y0, std::size_t y1) {
        double local = 0.0;
        for (std::uint32_t iy = static_cast<std::uint32_t>(y0);
             iy < static_cast<std::uint32_t>(y1); ++iy) {
          const std::size_t row = op.at(0, iy);
          for (std::uint32_t ix = (iy + color) & 1u; ix < nx; ix += 2) {
            const std::size_t p = row + ix;
            if (!act[p]) continue;
            const double next = op.flow(p, b[p], d.data()) / gsum[p];
            const double relaxed = d[p] + omega * (next - d[p]);
            local = std::max(local, std::abs(relaxed - d[p]));
            d[p] = relaxed;
          }
        }
        return local;
      };
      double color_delta;
      if (parallel) {
        color_delta = rt::parallel_transform_reduce(
            ny, /*grain=*/16, 0.0, sweep_rows,
            [](double a, double c) { return std::max(a, c); });
      } else {
        color_delta = sweep_rows(0, ny);
      }
      max_delta = std::max(max_delta, color_delta);
    }
    sol.iterations = it + 1;
    sol.final_delta_v = max_delta;
    if (max_delta < opt_.tolerance_v) {
      sol.converged = true;
      break;
    }
  }
  sol.drop_v = op.unpad(d);
  return sol;
}

GridSolution PowerGrid::solve_multigrid(std::span<const double> current,
                                        bool vdd_rail) const {
  GridSolution sol;
  sol.nx = opt_.nx;
  sol.ny = opt_.ny;
  sol.die = die_;
  sol.solver = GridSolver::kMultigrid;
  const mg::SolveResult r =
      mg_->solve(current, vdd_rail, opt_.tolerance_v, opt_.max_iterations,
                 opt_.mg_pre_sweeps, opt_.mg_post_sweeps, sol.drop_v);
  sol.iterations = r.cycles;
  sol.final_delta_v = r.final_delta_v;
  sol.converged = r.converged;
  return sol;
}

double PowerGrid::residual_inf(const GridSolution& sol,
                               std::span<const Point> where,
                               std::span<const double> amps,
                               bool vdd_rail) const {
  const SorOperator& op = *sor_;
  const std::vector<double> b = gather_currents(where, amps);
  const std::vector<double>& gsum = vdd_rail ? op.gsum_vdd : op.gsum_vss;
  const std::vector<double> d = op.pad(sol.drop_v);
  double worst = 0.0;
  for (std::uint32_t iy = 0; iy < opt_.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < opt_.nx; ++ix) {
      const std::size_t p = op.at(ix, iy);
      if (!op.active[p]) continue;
      const double flow = op.flow(p, 0.0, d.data());
      worst = std::max(worst, std::abs(b[node_index(ix, iy)] -
                                       (gsum[p] * d[p] - flow)));
    }
  }
  return worst;
}

std::string PowerGrid::ascii_map(const GridSolution& sol, double alarm_v,
                                 std::uint32_t max_cols) {
  static constexpr char kRamp[] = " .:-=+*%@";
  constexpr std::size_t kRampLevels = sizeof(kRamp) - 2;  // last is '@'
  const std::uint32_t step = std::max(1u, sol.nx / max_cols);
  std::string out;
  for (std::uint32_t iy = sol.ny; iy-- > 0;) {
    if (iy % step) continue;
    for (std::uint32_t ix = 0; ix < sol.nx; ix += step) {
      const double v = sol.node(ix, iy);
      if (v >= alarm_v) {
        out.push_back('#');
      } else {
        const auto level = static_cast<std::size_t>(
            std::clamp(v / alarm_v, 0.0, 0.999) * kRampLevels);
        out.push_back(kRamp[level]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace scap
