// CAP / SCAP power accounting from the simulator's toggles (Section 2.3).
//
//   CAP_j  = (sum_i C_i * VDD^2) / T        -- cycle average power
//   SCAP_j = (sum_i C_i * VDD^2) / STW_j    -- switching-cycle average power
//
// where C_i is the output load of each switching gate, T the tester cycle
// and STW_j the pattern's switching time window. Rising output toggles draw
// their charge from the VDD network, falling toggles dump it into VSS, which
// yields the separate per-rail numbers the paper reports. Energies are kept
// per block so block-level thresholds (Table 3 / Figures 2 & 6) fall out.
//
// This module is the "SCAP calculator" of Figure 5: ScapAccumulator consumes
// the event simulator's toggle stream directly, the way the paper's PLI taps
// VCS without writing a VCD file.
#pragma once

#include <cstddef>
#include <vector>

#include "layout/parasitics.h"
#include "netlist/netlist.h"
#include "netlist/tech_library.h"
#include "sim/toggle_sink.h"

namespace scap {

enum class Rail : std::uint8_t { kVdd, kVss };

struct ScapReport {
  double stw_ns = 0.0;     ///< switching time window of this pattern
  double period_ns = 0.0;  ///< tester cycle T
  std::size_t num_toggles = 0;

  std::vector<double> vdd_energy_pj;  ///< per block
  std::vector<double> vss_energy_pj;  ///< per block
  double vdd_energy_total_pj = 0.0;
  double vss_energy_total_pj = 0.0;

  // pJ / ns == mW.
  double cap_mw(Rail r) const {
    return period_ns > 0.0 ? energy(r) / period_ns : 0.0;
  }
  double scap_mw(Rail r) const {
    return stw_ns > 0.0 ? energy(r) / stw_ns : 0.0;
  }
  double block_cap_mw(Rail r, std::size_t block) const {
    return period_ns > 0.0 ? block_energy(r, block) / period_ns : 0.0;
  }
  double block_scap_mw(Rail r, std::size_t block) const {
    return stw_ns > 0.0 ? block_energy(r, block) / stw_ns : 0.0;
  }

  double energy(Rail r) const {
    return r == Rail::kVdd ? vdd_energy_total_pj : vss_energy_total_pj;
  }
  /// Throws std::out_of_range for a block index beyond the floorplan.
  double block_energy(Rail r, std::size_t block) const {
    return r == Rail::kVdd ? vdd_energy_pj.at(block) : vss_energy_pj.at(block);
  }
};

/// Per-net accounting tables: the switched load and the block of each net's
/// driver. Built once per design; ScapAccumulator reads them.
class ScapCalculator {
 public:
  ScapCalculator(const Netlist& nl, const Parasitics& par,
                 const TechLibrary& lib);

 private:
  friend class ScapAccumulator;

  const Netlist* nl_;
  const TechLibrary* lib_;
  std::vector<double> net_cap_pf_;     ///< per net: driver load cap
  std::vector<BlockId> net_block_;     ///< per net: block of the driver
};

/// Streaming SCAP accounting: accumulates the per-block rail energies of one
/// launch-to-capture pass directly from the simulator's toggle stream (the
/// paper's PLI-based calculator, literally), summing in commit order. Reuses
/// its report storage across passes.
class ScapAccumulator final : public ToggleSink {
 public:
  ScapAccumulator(const ScapCalculator& calc, double period_ns)
      : calc_(&calc) {
    report_.period_ns = period_ns;
  }

  void on_begin(std::span<const std::uint8_t> initial_net_values) override;
  void on_toggle(NetId net, double t_ns, bool rising) override;
  void on_end(const SimStats& stats) override;

  const ScapReport& report() const { return report_; }

 private:
  const ScapCalculator* calc_;
  ScapReport report_;
};

}  // namespace scap
