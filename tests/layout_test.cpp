#include <gtest/gtest.h>

#include "layout/clock_tree.h"
#include "layout/floorplan.h"
#include "layout/parasitics.h"
#include "layout/placement.h"
#include "test_helpers.h"

namespace scap {
namespace {

TEST(Floorplan, BlocksInsideDieAndDisjoint) {
  const Floorplan fp = Floorplan::turbo_eagle_like(3000.0, 37);
  ASSERT_EQ(fp.block_count(), 6u);
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    const Rect& r = fp.block(i).rect;
    EXPECT_GE(r.x0, fp.die().x0);
    EXPECT_LE(r.x1, fp.die().x1);
    EXPECT_GE(r.y0, fp.die().y0);
    EXPECT_LE(r.y1, fp.die().y1);
    for (std::size_t j = i + 1; j < fp.block_count(); ++j) {
      EXPECT_FALSE(r.overlaps(fp.block(j).rect))
          << fp.block(i).name << " vs " << fp.block(j).name;
    }
  }
}

TEST(Floorplan, B5IsCentralAndLargest) {
  const Floorplan fp = Floorplan::turbo_eagle_like(3000.0, 37);
  const Rect& b5 = fp.block(4).rect;
  const Point die_center = fp.die().center();
  EXPECT_TRUE(b5.contains(die_center));
  for (std::size_t i = 0; i < fp.block_count(); ++i) {
    if (i != 4) {
      EXPECT_GT(b5.area(), fp.block(i).rect.area());
    }
  }
}

TEST(Floorplan, PadCountsAndPlacement) {
  const Floorplan fp = Floorplan::turbo_eagle_like(3000.0, 37);
  std::size_t vdd = 0, vss = 0;
  for (const PowerPad& p : fp.pads()) {
    (p.is_vdd ? vdd : vss) += 1;
    // Pads sit on the die periphery.
    const bool on_edge = p.pos.x == fp.die().x0 || p.pos.x == fp.die().x1 ||
                         p.pos.y == fp.die().y0 || p.pos.y == fp.die().y1;
    EXPECT_TRUE(on_edge) << "(" << p.pos.x << "," << p.pos.y << ")";
  }
  EXPECT_EQ(vdd, 37u);
  EXPECT_EQ(vss, 37u);
}

TEST(Floorplan, BlockAtLookup) {
  const Floorplan fp = Floorplan::turbo_eagle_like(3000.0, 37);
  EXPECT_EQ(fp.block_at(fp.block(4).rect.center()), 4u);
  EXPECT_EQ(fp.block_at(fp.block(0).rect.center()), 0u);
  // Die corner is outside every block.
  EXPECT_EQ(fp.block_at({1.0, 1.0}), fp.block_count());
}

TEST(Placement, InstancesInsideTheirBlocks) {
  const SocDesign& soc = test::tiny_soc();
  const Floorplan& fp = soc.floorplan;
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    const BlockId b = soc.netlist.flop(f).block;
    EXPECT_TRUE(fp.block(b).rect.contains(soc.placement.flop_pos(f)))
        << "flop " << f;
  }
  for (GateId g = 0; g < soc.netlist.num_gates(); ++g) {
    const BlockId b = soc.netlist.gate(g).block;
    const Rect& r = fp.block(b).rect;
    const Point p = soc.placement.gate_pos(g);
    // clamp() may place a gate exactly on the closed upper edge.
    EXPECT_TRUE(p.x >= r.x0 && p.x <= r.x1 && p.y >= r.y0 && p.y <= r.y1)
        << "gate " << g;
  }
}

TEST(Placement, NetDriverPositions) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const NetId q0 = nl.flop(0).q;
  EXPECT_EQ(soc.placement.net_driver_pos(nl, q0), soc.placement.flop_pos(0));
  const NetId g0 = nl.gate(0).out;
  EXPECT_EQ(soc.placement.net_driver_pos(nl, g0), soc.placement.gate_pos(0));
}

TEST(Parasitics, LoadsArePositiveAndComposed) {
  const SocDesign& soc = test::tiny_soc();
  const Netlist& nl = soc.netlist;
  const TechLibrary& lib = TechLibrary::generic180();
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double load = soc.parasitics.gate_load_pf(nl, g);
    EXPECT_GT(load, 0.0);
    // Self cap alone is a lower bound.
    EXPECT_GE(load, lib.timing(nl.gate(g).type).self_cap_pf);
  }
  EXPECT_GT(soc.parasitics.total_load_pf(), 0.0);
  EXPECT_GT(soc.parasitics.total_wirelength_um(), 0.0);
}

TEST(Parasitics, FanoutIncreasesLoad) {
  // Build: one driver with 1 sink vs one with 3 sinks at same positions.
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  std::vector<NetId> sinks;
  const NetId qi[] = {q};
  nl.add_gate(CellType::kBuf, qi, a);  // gate 0: 1 load (gate 1)
  const NetId ai[] = {a};
  nl.add_gate(CellType::kBuf, ai, b);  // gate 1 drives b
  // b feeds three inverters.
  for (int i = 0; i < 3; ++i) {
    const NetId y = nl.add_net();
    const NetId bi[] = {b};
    nl.add_gate(CellType::kInv, bi, y);
    nl.mark_output(y);
    sinks.push_back(y);
  }
  nl.add_flop(a, q, 0, 0);
  nl.finalize();

  const Floorplan fp = Floorplan::turbo_eagle_like(200.0, 4);
  Rng rng(2);
  const Placement pl = Placement::place(nl, fp, rng);
  const Parasitics par = Parasitics::extract(nl, pl, TechLibrary::generic180());
  EXPECT_GT(par.net_load_pf(b), par.net_load_pf(a));
}

TEST(ClockTree, EveryFlopHasAnArrival) {
  const SocDesign& soc = test::tiny_soc();
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    EXPECT_GT(soc.clock_tree.nominal_arrival_ns(f), 0.0) << "flop " << f;
    EXPECT_LT(soc.clock_tree.nominal_arrival_ns(f), 5.0) << "flop " << f;
  }
}

TEST(ClockTree, SkewIsSmallButNonzero) {
  const SocDesign& soc = test::tiny_soc();
  const auto by_domain = soc.netlist.flops_by_domain();
  double lo = 1e9, hi = 0.0;
  for (FlopId f : by_domain[0]) {
    lo = std::min(lo, soc.clock_tree.nominal_arrival_ns(f));
    hi = std::max(hi, soc.clock_tree.nominal_arrival_ns(f));
  }
  EXPECT_GT(hi - lo, 0.0);
  EXPECT_LT(hi - lo, 1.0);  // under a nanosecond of skew
}

TEST(ClockTree, DroopSlowsArrivals) {
  const SocDesign& soc = test::tiny_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  const auto nominal = soc.clock_tree.arrivals_with_droop(lib, nullptr);
  const auto drooped = soc.clock_tree.arrivals_with_droop(
      lib, [](Point) { return 0.2; });  // 200 mV everywhere
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    EXPECT_NEAR(nominal[f], soc.clock_tree.nominal_arrival_ns(f), 1e-12);
    EXPECT_GT(drooped[f], nominal[f]);
  }
}

TEST(ClockTree, LocalizedDroopShiftsOnlyNearbyArrivals) {
  const SocDesign& soc = test::tiny_soc();
  const TechLibrary& lib = TechLibrary::generic180();
  const Rect hot = soc.floorplan.block(4).rect;  // B5 only
  const auto drooped = soc.clock_tree.arrivals_with_droop(
      lib, [&](Point p) { return hot.contains(p) ? 0.3 : 0.0; });
  bool some_shifted = false, some_stable = false;
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    const double delta = drooped[f] - soc.clock_tree.nominal_arrival_ns(f);
    if (delta > 1e-6) some_shifted = true;
    if (delta < 1e-9) some_stable = true;
  }
  EXPECT_TRUE(some_shifted);
  EXPECT_TRUE(some_stable);
}

TEST(ClockTree, DomainCapsPositiveForPopulatedDomains) {
  const SocDesign& soc = test::tiny_soc();
  const auto by_domain = soc.netlist.flops_by_domain();
  for (DomainId d = 0; d < soc.netlist.domain_count(); ++d) {
    if (by_domain[d].empty()) continue;
    EXPECT_GT(soc.clock_tree.domain_clock_cap_pf(d), 0.0) << "domain " << int(d);
  }
}

TEST(ClockTree, BuffersBelongToDomains) {
  const SocDesign& soc = test::tiny_soc();
  for (const ClockBuffer& b : soc.clock_tree.buffers()) {
    EXPECT_LT(b.domain, soc.netlist.domain_count());
    EXPECT_GE(b.cell_delay_ns, 0.0);
    if (b.parent != kNullId) {
      EXPECT_LT(b.parent, soc.clock_tree.buffer_count());
    }
  }
}

}  // namespace
}  // namespace scap
