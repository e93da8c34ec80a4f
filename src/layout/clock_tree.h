// Clock-tree synthesis and clock-arrival computation.
//
// Each clock domain gets a recursively subdivided buffer tree (quad H-tree
// style) over its flop placement. Per-flop clock arrival = sum of buffer cell
// delays and wire delays along the root-to-leaf path. Buffer cell delays
// scale with the local voltage droop exactly like data-path cells, which is
// what produces the paper's Figure 7 "Region 2" effect: when IR-drop slows
// the capture flop's clock path, the *measured* endpoint delay (relative to
// its own clock) can decrease.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "layout/placement.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "util/geometry.h"

namespace scap {

struct ClockBuffer {
  Point pos;
  std::uint32_t parent = kNullId;  ///< buffer index; kNullId at the domain root
  DomainId domain = 0;
  double cell_delay_ns = 0.0;      ///< load-dependent buffer delay
  double wire_from_parent_ns = 0.0;
  double load_pf = 0.0;            ///< switched cap at this buffer's output
};

class ClockTree {
 public:
  static ClockTree synthesize(const Netlist& nl, const Placement& pl,
                              const TechLibrary& lib);

  std::span<const ClockBuffer> buffers() const { return buffers_; }
  std::size_t buffer_count() const { return buffers_.size(); }

  /// Nominal (no-droop) clock arrival at a flop [ns].
  double nominal_arrival_ns(FlopId f) const { return nominal_arrival_[f]; }

  /// Arrivals with per-location voltage droop applied to buffer cell delays.
  /// droop(pos) returns the local VDD loss + VSS bounce in volts.
  std::vector<double> arrivals_with_droop(
      const TechLibrary& lib,
      const std::function<double(Point)>& droop) const;

  /// Total capacitance switched per clock edge in one domain [pF]
  /// (buffer outputs + leaf wires + flop clock pins).
  double domain_clock_cap_pf(DomainId d) const;

 private:
  std::vector<ClockBuffer> buffers_;
  std::vector<std::uint32_t> flop_leaf_;      ///< per flop: leaf buffer index
  std::vector<double> flop_wire_ns_;          ///< per flop: leaf-to-flop wire
  std::vector<double> nominal_arrival_;       ///< per flop
  std::vector<double> domain_clock_cap_pf_;   ///< per domain
};

}  // namespace scap
