#include "sim/vcd.h"

#include <cmath>
#include <ostream>

namespace scap {

namespace {

/// VCD identifier code for a net: base-94 over the printable ASCII range.
std::string vcd_id(NetId n) {
  std::string id;
  std::uint32_t v = n;
  do {
    id.push_back(static_cast<char>('!' + v % 94));
    v /= 94;
  } while (v != 0);
  return id;
}

}  // namespace

void VcdSink::on_begin(std::span<const std::uint8_t> initial_net_values) {
  cur_ps_ = -1;
  const Netlist& nl = *nl_;
  std::ostream& os = *os_;
  os << "$date reproduction run $end\n";
  os << "$version scapgen vcd writer $end\n";
  os << "$timescale 1ps $end\n";
  os << "$scope module " << top_name_ << " $end\n";
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    os << "$var wire 1 " << vcd_id(n) << ' ' << nl.net_name(n) << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  os << "$dumpvars\n";
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    os << (initial_net_values[n] ? '1' : '0') << vcd_id(n) << '\n';
  }
  os << "$end\n";
}

void VcdSink::on_toggle(NetId net, double t_ns, bool rising) {
  // Round through float, the precision of the reference trace's timestamps.
  const double t = static_cast<double>(static_cast<float>(t_ns));
  const long long ps = std::llround(t * 1000.0);
  if (ps != cur_ps_) {
    *os_ << '#' << ps << '\n';
    cur_ps_ = ps;
  }
  *os_ << (rising ? '1' : '0') << vcd_id(net) << '\n';
}

}  // namespace scap
