#include "layout/clock_tree.h"

#include <algorithm>
#include <array>

#include "layout/parasitics.h"

namespace scap {

namespace {

constexpr std::uint32_t kLeafCapacity = 16;  ///< max flops per leaf buffer
/// Buffers chained ahead of each domain root. Real SOC clock trees carry
/// nanoseconds of insertion delay; it matters because IR-drop on the
/// capture flop's clock path shifts the *measured* endpoint delay (the
/// paper's Figure 7 Region 2).
constexpr std::uint32_t kRootChainBuffers = 8;
constexpr double kWireDelayNsPerUm = 5e-5;
constexpr double kFlopClkPinCapPf = 0.0045;

struct BuildCtx {
  const Placement& pl;
  const TechLibrary& lib;
  std::vector<ClockBuffer>& buffers;
  std::vector<std::uint32_t>& flop_leaf;
  std::vector<double>& flop_wire_ns;
};

/// Recursively subdivide the flop set; returns the subtree root buffer index.
std::uint32_t build_region(BuildCtx& ctx, DomainId domain,
                           std::span<FlopId> flops, std::uint32_t parent) {
  // Buffer at the centroid of the region's flops.
  Point centroid{0.0, 0.0};
  for (FlopId f : flops) centroid = centroid + ctx.pl.flop_pos(f);
  centroid = centroid * (1.0 / static_cast<double>(flops.size()));

  const std::uint32_t me = static_cast<std::uint32_t>(ctx.buffers.size());
  ClockBuffer buf;
  buf.pos = centroid;
  buf.parent = parent;
  buf.domain = domain;
  if (parent != kNullId) {
    buf.wire_from_parent_ns =
        manhattan(centroid, ctx.buffers[parent].pos) * kWireDelayNsPerUm;
  }
  ctx.buffers.push_back(buf);

  if (flops.size() <= kLeafCapacity) {
    double load = 0.0;
    for (FlopId f : flops) {
      ctx.flop_leaf[f] = me;
      const double dist = manhattan(ctx.pl.flop_pos(f), centroid);
      ctx.flop_wire_ns[f] = dist * kWireDelayNsPerUm;
      load += kFlopClkPinCapPf + dist * kWireCapPfPerUm;
    }
    ctx.buffers[me].load_pf = load;
    return me;
  }

  // Quadrant split around the centroid; degenerate splits fall back to a
  // median bisection so recursion always terminates.
  std::array<std::vector<FlopId>, 4> quads;
  for (FlopId f : flops) {
    const Point p = ctx.pl.flop_pos(f);
    const int qi = (p.x >= centroid.x ? 1 : 0) | (p.y >= centroid.y ? 2 : 0);
    quads[static_cast<std::size_t>(qi)].push_back(f);
  }
  std::size_t nonempty = 0;
  for (const auto& q : quads) nonempty += q.empty() ? 0 : 1;
  if (nonempty <= 1) {
    std::vector<FlopId> sorted(flops.begin(), flops.end());
    std::sort(sorted.begin(), sorted.end(), [&](FlopId a, FlopId b) {
      return ctx.pl.flop_pos(a).x < ctx.pl.flop_pos(b).x;
    });
    const std::size_t half = sorted.size() / 2;
    quads = {};
    quads[0].assign(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(half));
    quads[1].assign(sorted.begin() + static_cast<std::ptrdiff_t>(half), sorted.end());
  }

  const double buf_in_cap = ctx.lib.timing(CellType::kClkBuf).input_cap_pf;
  double load = 0.0;
  for (auto& q : quads) {
    if (q.empty()) continue;
    const std::uint32_t child = build_region(ctx, domain, q, me);
    load += buf_in_cap +
            manhattan(ctx.buffers[child].pos, centroid) * kWireCapPfPerUm;
  }
  ctx.buffers[me].load_pf = load;
  return me;
}

}  // namespace

ClockTree ClockTree::synthesize(const Netlist& nl, const Placement& pl,
                                const TechLibrary& lib) {
  ClockTree ct;
  ct.flop_leaf_.assign(nl.num_flops(), kNullId);
  ct.flop_wire_ns_.assign(nl.num_flops(), 0.0);

  BuildCtx ctx{pl, lib, ct.buffers_, ct.flop_leaf_, ct.flop_wire_ns_};
  auto by_domain = nl.flops_by_domain();
  const double buf_in_cap = lib.timing(CellType::kClkBuf).input_cap_pf;
  for (DomainId d = 0; d < by_domain.size(); ++d) {
    if (by_domain[d].empty()) continue;
    // Root chain: insertion-delay buffers between the clock source and the
    // distribution tree, placed at the domain centroid.
    Point centroid{0.0, 0.0};
    for (FlopId f : by_domain[d]) centroid = centroid + pl.flop_pos(f);
    centroid = centroid * (1.0 / static_cast<double>(by_domain[d].size()));
    std::uint32_t parent = kNullId;
    for (std::uint32_t i = 0; i < kRootChainBuffers; ++i) {
      ClockBuffer buf;
      buf.pos = centroid;
      buf.parent = parent;
      buf.domain = d;
      buf.load_pf = 4.0 * buf_in_cap;  // drives the next stage (sized up)
      parent = static_cast<std::uint32_t>(ct.buffers_.size());
      ct.buffers_.push_back(buf);
    }
    build_region(ctx, d, by_domain[d], parent);
  }

  // Buffer cell delays from their (now known) loads.
  const CellTiming& bt = lib.timing(CellType::kClkBuf);
  for (ClockBuffer& b : ct.buffers_) {
    b.cell_delay_ns = 0.5 * (bt.intrinsic_rise_ns + bt.intrinsic_fall_ns) +
                      bt.drive_res_ns_per_pf * b.load_pf;
  }

  // Nominal arrivals.
  ct.nominal_arrival_.assign(nl.num_flops(), 0.0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    double t = ct.flop_wire_ns_[f];
    for (std::uint32_t b = ct.flop_leaf_[f]; b != kNullId;
         b = ct.buffers_[b].parent) {
      t += ct.buffers_[b].cell_delay_ns + ct.buffers_[b].wire_from_parent_ns;
    }
    ct.nominal_arrival_[f] = t;
  }

  ct.domain_clock_cap_pf_.assign(nl.domain_count(), 0.0);
  for (const ClockBuffer& b : ct.buffers_) {
    ct.domain_clock_cap_pf_[b.domain] += b.load_pf;
  }
  return ct;
}

std::vector<double> ClockTree::arrivals_with_droop(
    const TechLibrary& lib,
    const std::function<double(Point)>& droop) const {
  // Scaled delay per buffer, then accumulate along each flop's path.
  std::vector<double> scaled(buffers_.size());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const double dv = droop ? droop(buffers_[i].pos) : 0.0;
    scaled[i] = buffers_[i].cell_delay_ns * (1.0 + lib.k_volt() * dv) +
                buffers_[i].wire_from_parent_ns;
  }
  std::vector<double> arrivals(flop_leaf_.size(), 0.0);
  for (std::size_t f = 0; f < flop_leaf_.size(); ++f) {
    double t = flop_wire_ns_[f];
    for (std::uint32_t b = flop_leaf_[f]; b != kNullId; b = buffers_[b].parent) {
      t += scaled[b];
    }
    arrivals[f] = t;
  }
  return arrivals;
}

double ClockTree::domain_clock_cap_pf(DomainId d) const {
  return d < domain_clock_cap_pf_.size() ? domain_clock_cap_pf_[d] : 0.0;
}

}  // namespace scap
