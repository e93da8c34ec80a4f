#include "power/power_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

namespace {

/// SOR over-relaxation factor.
constexpr double kSorOmega = 1.9;

/// One colour pass of one SOR solve: the mesh conductance, the colour's
/// diagonal, current and drop planes (each (ny + 2) * width slots, slot 0
/// of row 0 first) and the other colour's drop plane.
struct SorPass {
  double g = 0.0;                ///< every edge's conductance [S]
  const double* gsum = nullptr;  ///< the rail's diagonal: pad + the edges
  const double* b = nullptr;     ///< node currents [A]
  double* d = nullptr;           ///< this colour's drops [V], updated
  const double* other = nullptr;  ///< the other colour's drops [V], read
  std::size_t width = 0;          ///< slots per row, nx / 2 + 2
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  std::uint32_t colour = 0;  ///< 0: nodes with (ix + iy) even
};

// The row kernel works two nodes at a time in GCC vector types: GCC does
// not vectorize the max reduction of a plain loop on its own.
constexpr std::size_t kLanes = 2;
using Vec [[gnu::vector_size(kLanes * sizeof(double))]] = double;
using Bits [[gnu::vector_size(kLanes * sizeof(double))]] = std::uint64_t;

Vec load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// |x| lane by lane: the sign bit cleared, as fabs does.
Vec vabs(Vec x) {
  return reinterpret_cast<Vec>(reinterpret_cast<Bits>(x) &
                               (~std::uint64_t{0} >> 1));
}

/// Relax every node of the pass's colour; returns the largest |update| [V]
/// (0 when nothing moved).
///
/// Node q of row iy (column s + 2q with s = (iy + colour) & 1) sits at slot
/// (iy + 1) * W + 1 + q; its left and right neighbours are slots q + s - 1
/// and q + s of the other colour's row (counted from that row's first
/// node), its up and down neighbours slot q of the other colour's rows
/// iy - 1 and iy + 1; a neighbour off the mesh is a zero ring slot. Per
/// node the arithmetic is the edge-tested scalar kernel's, in its order:
/// f = b, then + left, + right, + up, + down (each g * d), next = f / gsum,
/// d + omega * (next - d). This TU is built with
/// -ffp-contract=off, so no product is fused into an add and every lane
/// rounds as scalar code does; the max is a compare-select with std::max's
/// operand order, so it is exact in any lane grouping.
double sweep_rows(const SorPass& p) {
  const std::size_t w = p.width;
  const Vec omega = Vec{} + kSorOmega;
  const Vec g = Vec{} + p.g;
  Vec vmax = {};
  double smax = 0.0;
  for (std::uint32_t iy = 0; iy < p.ny; ++iy) {
    const std::uint32_t s = (iy + p.colour) & 1u;
    const std::size_t n = (p.nx + 1 - s) / 2;  // the colour's nodes in row iy
    const std::size_t row = (iy + 1) * w + 1;
    const double* gs = p.gsum + row;
    const double* b = p.b + row;
    double* d = p.d + row;
    const double* left = p.other + row + s - 1;
    const double* right = p.other + row + s;
    const double* up = p.other + row - w;
    const double* down = p.other + row + w;
    std::size_t q = 0;
    for (; q + kLanes <= n; q += kLanes) {
      Vec f = load(b + q);
      f += g * load(left + q);
      f += g * load(right + q);
      f += g * load(up + q);
      f += g * load(down + q);
      const Vec next = f / load(gs + q);
      const Vec old = load(d + q);
      const Vec relaxed = old + omega * (next - old);
      const Vec delta = vabs(relaxed - old);
      vmax = vmax < delta ? delta : vmax;
      store(d + q, relaxed);
    }
    for (; q < n; ++q) {
      double f = b[q];
      f += p.g * left[q];
      f += p.g * right[q];
      f += p.g * up[q];
      f += p.g * down[q];
      const double next = f / gs[q];
      const double relaxed = d[q] + kSorOmega * (next - d[q]);
      smax = std::max(smax, std::abs(relaxed - d[q]));
      d[q] = relaxed;
    }
  }
  for (std::size_t k = 0; k < kLanes; ++k) smax = std::max(smax, vmax[k]);
  return smax;
}

}  // namespace

// The SOR operator in the split-colour layout the row kernel sweeps (see
// power_grid.h and sweep_rows above): node (ix, iy) has colour
// (ix + iy) & 1 and sits at slot (iy + 1) * width + ix / 2 + 1 of its
// colour's plane; every slot outside the mesh is zero. Every edge has the
// conductance g; a boundary node's absent edge reads a zero ring slot, so
// it adds g * 0 = +0.0 to the inflow, and the sums equal the edge-tested
// ones bit for bit.
struct PowerGrid::SorOperator {
  std::uint32_t nx = 0, ny = 0;  ///< the mesh, without the ring
  std::size_t width = 0;         ///< slots per row, nx / 2 + 2
  std::size_t plane = 0;         ///< slots per colour, (ny + 2) * width
  double g = 0.0;                ///< every edge's conductance [S]
  /// Per rail: pad + left + right + up + down, summed in that order (0 for
  /// an absent edge); both colours' planes, colour 0 first.
  std::vector<double> gsum_vdd, gsum_vss;

  /// `vdd_pad` and `vss_pad`: each node's pad conductance [S], row-major.
  SorOperator(std::uint32_t nx_, std::uint32_t ny_, double g_,
              const std::vector<double>& vdd_pad,
              const std::vector<double>& vss_pad)
      : nx(nx_), ny(ny_), width(nx_ / 2 + 2), plane((ny_ + 2) * width),
        g(g_) {
    gsum_vdd.assign(2 * plane, 0.0);
    gsum_vss.assign(2 * plane, 0.0);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      for (std::uint32_t ix = 0; ix < nx; ++ix) {
        const std::size_t p = at(ix, iy);
        const std::size_t i = static_cast<std::size_t>(iy) * nx + ix;
        const double left = ix > 0 ? g : 0.0;
        const double right = ix + 1 < nx ? g : 0.0;
        const double up = iy > 0 ? g : 0.0;
        const double down = iy + 1 < ny ? g : 0.0;
        gsum_vdd[p] = vdd_pad[i] + left + right + up + down;
        gsum_vss[p] = vss_pad[i] + left + right + up + down;
      }
    }
  }

  std::size_t at(std::uint32_t ix, std::uint32_t iy) const {
    return ((ix + iy) & 1u) * plane + (iy + 1) * width + ix / 2 + 1;
  }

  /// A row-major nx * ny map in the split layout, 0 on the ring.
  std::vector<double> split(std::span<const double> v) const {
    std::vector<double> out(2 * plane, 0.0);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      for (std::uint32_t ix = 0; ix < nx; ++ix) {
        out[at(ix, iy)] = v[static_cast<std::size_t>(iy) * nx + ix];
      }
    }
    return out;
  }

  /// The inverse of split: the mesh nodes, row-major.
  std::vector<double> unsplit(const std::vector<double>& s) const {
    std::vector<double> out(static_cast<std::size_t>(nx) * ny);
    for (std::uint32_t iy = 0; iy < ny; ++iy) {
      for (std::uint32_t ix = 0; ix < nx; ++ix) {
        out[static_cast<std::size_t>(iy) * nx + ix] = s[at(ix, iy)];
      }
    }
    return out;
  }

  /// One colour's pass over split currents `b` and drops `d`.
  SorPass pass(std::uint32_t colour, bool vdd_rail, const double* b,
               double* d) const {
    const std::size_t own = colour * plane;
    const std::size_t other = (1 - colour) * plane;
    SorPass p;
    p.g = g;
    p.gsum = (vdd_rail ? gsum_vdd : gsum_vss).data() + own;
    p.b = b + own;
    p.d = d + own;
    p.other = d + other;
    p.width = width;
    p.nx = nx;
    p.ny = ny;
    p.colour = colour;
    return p;
  }

  /// b + the four neighbours' g * d at node (ix, iy), added left, right,
  /// up, down: the kernel's stencil, one node at a time.
  double flow(std::uint32_t ix, std::uint32_t iy, double b,
              const double* d) const {
    // Row iy of the other colour; column x of it sits at slot x / 2 + 1,
    // and column -1 (left of the mesh) at ring slot 0.
    const std::size_t o = ((ix + iy + 1) & 1u) * plane + (iy + 1) * width;
    double f = b;
    f += g * d[o + (ix + 1) / 2];
    f += g * d[o + (ix + 1) / 2 + 1];
    f += g * d[o - width + ix / 2 + 1];
    f += g * d[o + width + ix / 2 + 1];
    return f;
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
  if (opt_.nx < 2 || opt_.ny < 2) {
    throw std::runtime_error("PowerGrid: mesh must be at least 2x2");
  }
  const std::size_t n = static_cast<std::size_t>(opt_.nx) * opt_.ny;
  std::vector<double> vdd_pad(n, 0.0), vss_pad(n, 0.0);
  const double gpad = 1.0 / opt_.pad_res_ohm;
  double vdd_anchor = 0.0, vss_anchor = 0.0;
  for (const PowerPad& pad : fp.pads()) {
    (pad.is_vdd ? vdd_pad : vss_pad)[nearest_node(pad.pos)] += gpad;
    (pad.is_vdd ? vdd_anchor : vss_anchor) += gpad;
  }
  if (!(vdd_anchor > 0.0) || !(vss_anchor > 0.0)) {
    throw std::runtime_error(
        "PowerGrid: the floorplan needs a VDD and a VSS pad");
  }
  sor_ = std::make_shared<const SorOperator>(
      opt_.nx, opt_.ny, 1.0 / opt_.segment_res_ohm, vdd_pad, vss_pad);
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
  if (amps.size() != where.size()) {
    throw std::invalid_argument(
        "PowerGrid: " + std::to_string(where.size()) + " load sites but " +
        std::to_string(amps.size()) + " currents");
  }
  const std::size_t n = static_cast<std::size_t>(opt_.nx) * opt_.ny;
  std::vector<double> current(n, 0.0);
  for (std::size_t i = 0; i < where.size(); ++i) {
    if (!std::isfinite(amps[i])) {
      throw std::invalid_argument("PowerGrid: load " + std::to_string(i) +
                                  " has a non-finite current");
    }
    // std::lround of a NaN or infinite coordinate is unspecified; in
    // practice it clamped the load silently onto node (0, 0).
    if (!std::isfinite(where[i].x) || !std::isfinite(where[i].y)) {
      throw std::invalid_argument("PowerGrid: load " + std::to_string(i) +
                                  " has a non-finite position");
    }
    current[nearest_node(where[i])] += amps[i];
  }
  return current;
}

GridSolution PowerGrid::solve(std::span<const Point> where,
                              std::span<const double> amps,
                              bool vdd_rail) const {
  SCAP_TRACE_SCOPE("power.grid_solve");
  const SorOperator& op = *sor_;
  const std::vector<double> b = op.split(gather_currents(where, amps));

  GridSolution sol;
  sol.nx = opt_.nx;
  sol.ny = opt_.ny;
  sol.die = die_;

  // Red-black SOR sweeps. The 4-neighbour mesh is bipartite under
  // (ix + iy) parity, so every update of one colour reads only the other
  // colour's drops.
  std::vector<double> d(b.size(), 0.0);  // split drops; the ring stays 0
  const SorPass passes[2] = {
      op.pass(0, vdd_rail, b.data(), d.data()),
      op.pass(1, vdd_rail, b.data(), d.data())};
  for (std::uint32_t it = 0; it < opt_.max_iterations; ++it) {
    double max_delta = 0.0;
    for (const SorPass& pass : passes) {
      max_delta = std::max(max_delta, sweep_rows(pass));
    }
    sol.iterations = it + 1;
    sol.final_delta_v = max_delta;
    if (max_delta < opt_.tolerance_v) {
      sol.converged = true;
      break;
    }
  }
  sol.drop_v = op.unsplit(d);

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

double PowerGrid::residual_inf(const GridSolution& sol,
                               std::span<const Point> where,
                               std::span<const double> amps,
                               bool vdd_rail) const {
  const SorOperator& op = *sor_;
  if (sol.nx != opt_.nx || sol.ny != opt_.ny ||
      sol.drop_v.size() != static_cast<std::size_t>(opt_.nx) * opt_.ny) {
    throw std::invalid_argument(
        "PowerGrid::residual_inf: the drop map is not this grid's");
  }
  const std::vector<double> b = gather_currents(where, amps);
  const std::vector<double>& gsum = vdd_rail ? op.gsum_vdd : op.gsum_vss;
  const std::vector<double> d = op.split(sol.drop_v);
  double worst = 0.0;
  for (std::uint32_t iy = 0; iy < opt_.ny; ++iy) {
    for (std::uint32_t ix = 0; ix < opt_.nx; ++ix) {
      const std::size_t p = op.at(ix, iy);
      const double flow = op.flow(ix, iy, 0.0, d.data());
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
