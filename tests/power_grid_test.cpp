#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "layout/floorplan.h"
#include "obs/metrics.h"
#include "power/power_grid.h"
#include "rt/thread_pool.h"
#include "util/rng.h"

namespace scap {
namespace {

struct GridRig {
  Floorplan fp = Floorplan::turbo_eagle_like(1000.0, 8);
  PowerGridOptions opt;
  GridRig() {
    opt.nx = 24;
    opt.ny = 24;
  }
};

TEST(PowerGrid, ZeroCurrentZeroDrop) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const GridSolution sol = grid.solve({}, {}, true);
  EXPECT_TRUE(sol.converged);
  EXPECT_DOUBLE_EQ(sol.worst(), 0.0);
}

TEST(PowerGrid, CenterInjectionDropsMostAtCenter) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point center{500.0, 500.0};
  const double amps = 0.1;
  const GridSolution sol =
      grid.solve(std::span<const Point>(&center, 1),
                 std::span<const double>(&amps, 1), true);
  ASSERT_TRUE(sol.converged);
  EXPECT_GT(sol.worst(), 0.0);
  // The injection snaps to the nearest mesh node; the bilinear sample at
  // the exact center is slightly below the nodal worst.
  EXPECT_GT(sol.drop_at(center), 0.6 * sol.worst());
  // Drop decays toward the pad ring.
  EXPECT_LT(sol.drop_at({10.0, 10.0}), 0.5 * sol.worst());
}

TEST(PowerGrid, Linearity) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point p1{300.0, 600.0}, p2{700.0, 200.0};
  const double i1 = 0.05, i2 = 0.08;

  const GridSolution a = grid.solve(std::span<const Point>(&p1, 1),
                                    std::span<const double>(&i1, 1), true);
  const GridSolution b = grid.solve(std::span<const Point>(&p2, 1),
                                    std::span<const double>(&i2, 1), true);
  const Point both_p[] = {p1, p2};
  const double both_i[] = {i1, i2};
  const GridSolution ab = grid.solve(both_p, both_i, true);

  for (std::size_t i = 0; i < ab.drop_v.size(); i += 37) {
    EXPECT_NEAR(ab.drop_v[i], a.drop_v[i] + b.drop_v[i], 1e-5);
  }
}

TEST(PowerGrid, DropScalesWithCurrent) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point p{500.0, 500.0};
  const double i1 = 0.05, i2 = 0.10;
  const GridSolution a = grid.solve(std::span<const Point>(&p, 1),
                                    std::span<const double>(&i1, 1), true);
  const GridSolution b = grid.solve(std::span<const Point>(&p, 1),
                                    std::span<const double>(&i2, 1), true);
  EXPECT_NEAR(b.worst(), 2.0 * a.worst(), 1e-5);
}

TEST(PowerGrid, VssRailMirrorsVddGeometry) {
  // Pads alternate positions but both rails cover the ring uniformly; a
  // centered load must see nearly identical drops on both rails.
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point p{500.0, 500.0};
  const double amps = 0.1;
  const GridSolution vdd = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), true);
  const GridSolution vss = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), false);
  EXPECT_NEAR(vdd.worst(), vss.worst(), 0.05 * vdd.worst());
}

TEST(PowerGrid, MorePadsLowerDrop) {
  GridRig rig;
  PowerGrid sparse(Floorplan::turbo_eagle_like(1000.0, 4), rig.opt);
  PowerGrid dense(Floorplan::turbo_eagle_like(1000.0, 32), rig.opt);
  const Point p{500.0, 500.0};
  const double amps = 0.1;
  const double d_sparse = sparse
                              .solve(std::span<const Point>(&p, 1),
                                     std::span<const double>(&amps, 1), true)
                              .worst();
  const double d_dense = dense
                             .solve(std::span<const Point>(&p, 1),
                                    std::span<const double>(&amps, 1), true)
                             .worst();
  EXPECT_LT(d_dense, d_sparse);
}

TEST(GridSolution, WorstInAndAverageIn) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point p{500.0, 500.0};
  const double amps = 0.1;
  const GridSolution sol = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), true);
  const Rect center_box{400, 400, 600, 600};
  const Rect corner_box{0, 0, 100, 100};
  EXPECT_GT(sol.worst_in(center_box), sol.worst_in(corner_box));
  EXPECT_LE(sol.average_in(center_box), sol.worst_in(center_box));
  EXPECT_GT(sol.average_in(center_box), 0.0);
  EXPECT_NEAR(sol.worst_in(rig.fp.die()), sol.worst(), 1e-12);
}

TEST(GridSolution, BilinearSampleInterpolates) {
  GridSolution sol;
  sol.nx = 2;
  sol.ny = 2;
  sol.die = Rect{0, 0, 10, 10};
  sol.drop_v = {0.0, 1.0, 0.0, 1.0};  // gradient along x
  EXPECT_NEAR(sol.drop_at({5.0, 5.0}), 0.5, 1e-12);
  EXPECT_NEAR(sol.drop_at({0.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(sol.drop_at({10.0, 10.0}), 1.0, 1e-12);
  // Out-of-die samples clamp.
  EXPECT_NEAR(sol.drop_at({-5.0, 5.0}), 0.0, 1e-12);
  EXPECT_NEAR(sol.drop_at({15.0, 5.0}), 1.0, 1e-12);
}

TEST(PowerGrid, AsciiMapMarksAlarmRegion) {
  GridRig rig;
  PowerGrid grid(rig.fp, rig.opt);
  const Point p{500.0, 500.0};
  const double amps = 1.0;  // huge load -> alarm in the middle
  const GridSolution sol = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), true);
  const std::string map = PowerGrid::ascii_map(sol, 0.18);
  EXPECT_NE(map.find('#'), std::string::npos);
  EXPECT_NE(map.find(' '), std::string::npos);
  // One row per grid line (steps of 1 at 24 <= 64 columns).
  EXPECT_EQ(static_cast<std::size_t>(std::count(map.begin(), map.end(), '\n')),
            rig.opt.ny);
}

TEST(PowerGrid, ConvergenceFlagHonest) {
  GridRig rig;
  rig.opt.max_iterations = 1;  // force non-convergence
  PowerGrid grid(rig.fp, rig.opt);
  const Point p{500.0, 500.0};
  const double amps = 0.1;
  const GridSolution sol = grid.solve(std::span<const Point>(&p, 1),
                                      std::span<const double>(&amps, 1), true);
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.iterations, 1u);
  // The reported residual must reflect the unfinished sweep, and the
  // non-converged solve must be visible in the metrics registry.
  EXPECT_GT(sol.final_delta_v, rig.opt.tolerance_v);
  EXPECT_GE(
      obs::Registry::global().counter("power.grid_solve_nonconverged").value(),
      1u);

  // And the converged solve drives the true equation residual orders of
  // magnitude below the one-sweep map's.
  const GridRig full;  // the default sweep budget
  const PowerGrid grid_full(full.fp, full.opt);
  const GridSolution conv = grid_full.solve(std::span<const Point>(&p, 1),
                                            std::span<const double>(&amps, 1),
                                            true);
  EXPECT_TRUE(conv.converged);
  const double res_one = grid_full.residual_inf(
      sol, std::span<const Point>(&p, 1), std::span<const double>(&amps, 1),
      true);
  const double res_conv = grid_full.residual_inf(
      conv, std::span<const Point>(&p, 1), std::span<const double>(&amps, 1),
      true);
  EXPECT_GT(res_one, 0.0);
  EXPECT_LT(res_conv, res_one * 1e-2);
}

TEST(PowerGrid, RejectsDegenerateMeshOrPadlessRail) {
  // Either rail's system is singular without a pad; a mesh needs two nodes
  // per axis.
  const Floorplan fp = Floorplan::turbo_eagle_like(1000.0, 8);
  PowerGridOptions thin;
  thin.nx = 1;
  EXPECT_THROW(PowerGrid(fp, thin), std::runtime_error);
  std::vector<PowerPad> vdd_only;
  for (const PowerPad& pad : fp.pads()) {
    if (pad.is_vdd) vdd_only.push_back(pad);
  }
  const Floorplan no_vss(fp.die(), {}, vdd_only);
  EXPECT_THROW(PowerGrid(no_vss, PowerGridOptions{}), std::runtime_error);
}

/// FNV-1a over the bit patterns of a drop map: equal hashes mean the maps
/// agree in every bit, not just to a tolerance.
std::uint64_t bit_hash(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : v) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct SorGolden {
  std::uint32_t iterations;
  std::uint64_t final_delta_bits;
  std::uint64_t drop_hash;
};

void expect_sor_golden(const GridSolution& sol, const SorGolden& g,
                       const char* what) {
  EXPECT_TRUE(sol.converged) << what;
  EXPECT_EQ(sol.iterations, g.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.final_delta_v),
            g.final_delta_bits)
      << what << std::hex << ": final_delta_v bits 0x"
      << std::bit_cast<std::uint64_t>(sol.final_delta_v);
  EXPECT_EQ(bit_hash(sol.drop_v), g.drop_hash)
      << what << std::hex << ": drop_v hash 0x" << bit_hash(sol.drop_v);
}

/// 64 fixed point loads over the die.
void fixed_loads(const Rect& die, std::vector<Point>& where,
                 std::vector<double>& amps) {
  Rng r(2007);
  for (int i = 0; i < 64; ++i) {
    where.push_back({r.uniform(die.x0, die.x1), r.uniform(die.y0, die.y1)});
    amps.push_back(r.uniform(1e-3, 2e-2));
  }
}

TEST(PowerGrid, SorGoldenBitForBit) {
  // Recorded from the edge-tested SOR kernel before it became a sweep over
  // a padded operator, and (case c) from the split-colour operator with
  // per-edge conductance planes, before they became the one mesh
  // conductance: the iteration count, the final update and every bit of
  // the drop maps must stay exactly as they were, at 1 and 4 threads.
  // Never re-baseline these to make a kernel change pass.
  const Floorplan fp = Floorplan::turbo_eagle_like(1000.0, 8);
  std::vector<Point> where;
  std::vector<double> amps;
  fixed_loads(fp.die(), where, amps);

  // (a) The default 48x48 uniform mesh, the one every validation solves.
  const PowerGrid uniform(fp);

  // (b) A 96x96 mesh, four times the default's nodes.
  PowerGridOptions big;
  big.nx = 96;
  big.ny = 96;
  const PowerGrid big_grid(fp, big);

  // (c) An odd-width mesh: a colour's rows alternate between 24 and 23
  // nodes, so the kernel runs its scalar tail.
  PowerGridOptions odd;
  odd.nx = 47;
  odd.ny = 33;
  const PowerGrid odd_grid(fp, odd);

  struct Case {
    const char* what;
    const PowerGrid* grid;
    bool vdd_rail;
    SorGolden golden;
    std::uint64_t residual_bits;  ///< residual_inf's bits; 0: not pinned
  };
  const Case cases[] = {
      {"uniform vdd", &uniform, true,
       {370, 0x3e7ab60f42d80000ull, 0x7f20c68520f28659ull}, 0},
      {"uniform vss", &uniform, false,
       {307, 0x3e7a63e51aa00000ull, 0x867af9ce5b1030b6ull}, 0},
      {"96x96 vdd", &big_grid, true,
       {1648, 0x3e7ac870b9580000ull, 0x06feb736375da845ull}, 0},
      {"odd vdd", &odd_grid, true,
       {228, 0x3e7a8be301600000ull, 0x8d4c0b558bb4a342ull},
       0x3ea3109e7e700000ull},
      {"odd vss", &odd_grid, false,
       {187, 0x3e7a90124b980000ull, 0x6b2c66192b7de31dull},
       0x3ea2dbd6f6000000ull},
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    rt::ThreadPool::set_global_concurrency(threads);
    for (const Case& c : cases) {
      const std::string what =
          std::string(c.what) + ", threads " + std::to_string(threads);
      const GridSolution sol = c.grid->solve(where, amps, c.vdd_rail);
      expect_sor_golden(sol, c.golden, what.c_str());
      // residual_inf evaluates the same stencil.
      if (c.residual_bits != 0) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      c.grid->residual_inf(sol, where, amps, c.vdd_rail)),
                  c.residual_bits)
            << what;
      }
    }
  }
  rt::ThreadPool::set_global_concurrency(0);
}

TEST(PowerGrid, RejectsNonFiniteOrMismatchedCurrents) {
  // Each bad input throws before any sweep. Before the checks a NaN or +Inf
  // current came back as a "converged" map of non-finite drops whose
  // worst() read 0, a short amps span was read past its end, and a load at
  // a non-finite position was injected at node (0, 0).
  GridRig rig;
  const PowerGrid grid(rig.fp, rig.opt);
  PowerGridOptions other_opt;
  other_opt.nx = 64;
  other_opt.ny = 64;
  const PowerGrid other_grid(rig.fp, other_opt);

  const std::vector<Point> where = {{300.0, 600.0}, {700.0, 200.0}};
  const std::vector<double> good = {0.05, 0.08};
  const std::vector<double> nan = {
      0.05, std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> inf = {std::numeric_limits<double>::infinity(),
                                   0.08};
  const std::vector<double> short_amps = {0.05};
  // A load at a NaN or infinite position used to land silently on node
  // (0, 0) and come back converged.
  const std::vector<Point> nan_where = {
      {300.0, 600.0}, {std::numeric_limits<double>::quiet_NaN(), 200.0}};
  const std::vector<Point> inf_where = {
      {300.0, -std::numeric_limits<double>::infinity()}, {700.0, 200.0}};
  for (const bool vdd : {true, false}) {
    const GridSolution sol = grid.solve(where, good, vdd);
    for (const std::vector<double>* bad : {&nan, &inf, &short_amps}) {
      EXPECT_THROW(grid.solve(where, *bad, vdd), std::invalid_argument);
      EXPECT_THROW(other_grid.solve(where, *bad, vdd), std::invalid_argument);
      EXPECT_THROW(grid.residual_inf(sol, where, *bad, vdd),
                   std::invalid_argument);
    }
    for (const std::vector<Point>* bad : {&nan_where, &inf_where}) {
      EXPECT_THROW(grid.solve(*bad, good, vdd), std::invalid_argument);
      EXPECT_THROW(other_grid.solve(*bad, good, vdd), std::invalid_argument);
      EXPECT_THROW(grid.residual_inf(sol, *bad, good, vdd),
                   std::invalid_argument);
    }
    EXPECT_NO_THROW(grid.residual_inf(sol, where, good, vdd));
    // A drop map of another mesh size is not this grid's solution.
    EXPECT_THROW(other_grid.residual_inf(sol, where, good, vdd),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace scap
