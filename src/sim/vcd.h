// Value Change Dump (VCD) export of a launch-to-capture simulation.
//
// The paper's point (Section 3.2) is that VCD files are too large for bulk
// per-pattern analysis, which is why the SCAP calculator taps the simulator
// directly. The writer exists for what the paper still uses VCD for:
// debugging a handful of suspect patterns in a waveform viewer. VcdSink
// streams the document straight off the simulator, so a waveform is
// captured without materializing a toggle trace.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.h"
#include "sim/toggle_sink.h"

namespace scap {

/// Streaming VCD writer: emits the header and the $dumpvars snapshot of the
/// initial net values at t=0 in on_begin, then each toggle as it commits.
/// Timescale is 1 ps; timestamps round through float, the precision the
/// reference trace (src/ref/trace.h) records, before conversion to ps.
class VcdSink final : public ToggleSink {
 public:
  VcdSink(const Netlist& nl, std::ostream& os,
          const std::string& top_name = "top")
      : nl_(&nl), os_(&os), top_name_(top_name) {}

  void on_begin(std::span<const std::uint8_t> initial_net_values) override;
  void on_toggle(NetId net, double t_ns, bool rising) override;

 private:
  const Netlist* nl_;
  std::ostream* os_;
  std::string top_name_;
  long long cur_ps_ = -1;
};

}  // namespace scap
