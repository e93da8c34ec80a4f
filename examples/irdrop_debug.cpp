// IR-drop debug session for a single suspect pattern (paper Section 3.2):
//   - simulate the launch-to-capture window at nominal timing,
//   - feed its switched charge to the dynamic rail analysis,
//   - re-simulate with ScaledCellDelay = Delay * (1 + k_volt * dV) and
//     droop-scaled clock arrivals,
//   - report the endpoint delay shifts (Figure 7's Regions 1 and 2) and the
//     rail map, and dump a VCD for waveform viewing.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/experiment.h"
#include "core/validation.h"
#include "sim/vcd.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace scap;

  Experiment exp = Experiment::standard(/*scale=*/0.03, /*seed=*/2007);
  const Netlist& nl = exp.soc.netlist;

  // A random high-activity scan state stands in for the suspect pattern.
  Rng rng(42);
  Pattern pattern;
  pattern.s1.resize(nl.num_flops());
  for (auto& b : pattern.s1) b = static_cast<std::uint8_t>(rng.below(2));

  const IrValidationResult v =
      validate_pattern_ir(exp.soc, *exp.lib, exp.grid, exp.ctx, pattern);

  std::printf("pattern: %zu toggles, STW %.2f ns, worst VDD drop %.3f V, "
              "worst VSS rise %.3f V\n\n",
              v.nominal.scap.num_toggles, v.nominal.scap.stw_ns,
              v.ir.worst_vdd_v, v.ir.worst_vss_v);

  const double alarm = exp.lib->ir_alarm_fraction() * exp.lib->vdd();
  std::printf("VDD rail map ('#' marks drops above %.2f V = 10%% VDD):\n%s\n",
              alarm, PowerGrid::ascii_map(v.ir.vdd_solution, alarm, 48).c_str());

  // Endpoint comparison: worst slowdowns and measured speedups.
  struct Endpoint {
    FlopId flop;
    double nominal, scaled;
  };
  std::vector<Endpoint> slow, fast;
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const double n = v.nominal_endpoint_ns[f], s = v.scaled_endpoint_ns[f];
    if (n <= 0.0) continue;
    if (s > n + 1e-9) slow.push_back({f, n, s});
    if (s < n - 1e-9) fast.push_back({f, n, s});
  }
  auto by_shift = [](const Endpoint& a, const Endpoint& b) {
    return std::abs(a.scaled - a.nominal) > std::abs(b.scaled - b.nominal);
  };
  std::sort(slow.begin(), slow.end(), by_shift);
  std::sort(fast.begin(), fast.end(), by_shift);

  TextTable t({"endpoint flop", "block", "nominal [ns]", "IR-scaled [ns]",
               "shift"});
  for (std::size_t i = 0; i < slow.size() && i < 5; ++i) {
    const Endpoint& e = slow[i];
    t.add_row({"f" + std::to_string(e.flop),
               "B" + std::to_string(nl.flop(e.flop).block + 1),
               TextTable::num(e.nominal, 3), TextTable::num(e.scaled, 3),
               TextTable::num(100.0 * (e.scaled - e.nominal) / e.nominal, 1) +
                   "%"});
  }
  for (std::size_t i = 0; i < fast.size() && i < 3; ++i) {
    const Endpoint& e = fast[i];
    t.add_row({"f" + std::to_string(e.flop),
               "B" + std::to_string(nl.flop(e.flop).block + 1),
               TextTable::num(e.nominal, 3), TextTable::num(e.scaled, 3),
               TextTable::num(100.0 * (e.scaled - e.nominal) / e.nominal, 1) +
                   "%"});
  }
  std::printf("%s", t.render("Worst Region-1 (slower) and Region-2 (measured "
                             "faster) endpoints:")
                        .c_str());
  std::printf("\nRegion 1: %zu endpoints slower; Region 2: %zu endpoints "
              "measured faster (capture clock slowed)\n",
              slow.size(), fast.size());

  // VCD dump of the nominal window for a waveform viewer, streamed off one
  // more nominal simulation pass. Default next to the executable (the build
  // tree), never the source checkout; argv[1] overrides.
  const std::string vcd_path =
      argc > 1 ? std::string(argv[1])
               : (std::filesystem::path(argv[0]).parent_path() /
                  "irdrop_debug.vcd")
                     .string();
  std::ofstream os(vcd_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", vcd_path.c_str());
    return 1;
  }
  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  VcdSink vcd(nl, os);
  analyzer.analyze_into(exp.ctx, pattern, vcd);
  std::printf("wrote %s (%zu value changes)\n", vcd_path.c_str(),
              v.nominal.scap.num_toggles);
  return 0;
}
