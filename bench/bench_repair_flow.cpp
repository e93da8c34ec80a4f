// Extension -- identify-and-replace repair of SCAP violations.
//
// Reference [18] of the paper statically verifies vectors for IR-drop risk
// and flags the failing ones; the paper's flow avoids generating them in the
// first place. This bench closes the remaining loop: take the conventional
// random-fill set, drop every pattern over the B5 threshold, and regenerate
// the lost coverage with throttled quiet-fill ATPG rounds -- a retrofit path
// for pattern sets that already exist.
#include "bench_common.h"

namespace scap {
namespace {

void print_repair() {
  const Experiment& exp = bench::experiment();
  AtpgOptions opt = bench::bench_atpg_options();
  const RepairResult rep = repair_scap_violations(
      exp.soc, *exp.lib, exp.ctx, exp.faults,
      bench::conventional_flow().patterns, exp.thresholds,
      Experiment::kHotBlock, opt);

  TextTable t({"metric", "before repair", "after repair"});
  t.add_row({"patterns", std::to_string(rep.patterns_before),
             std::to_string(rep.patterns_after)});
  t.add_row({"B5 SCAP violations", std::to_string(rep.violations_before),
             std::to_string(rep.violations_after)});
  t.add_row({"faults detected", std::to_string(rep.detected_before),
             std::to_string(rep.detected_after)});
  // Untestable is a property of the fault and the test context, not of the
  // pattern set: the conventional flow's classification serves both sides.
  const std::size_t total = exp.faults.size();
  const std::size_t testable =
      total - bench::conventional_flow().stats.untestable;
  auto pct = [](std::size_t num, std::size_t den) {
    const double frac = static_cast<double>(num) /
                        static_cast<double>(std::max<std::size_t>(1, den));
    return TextTable::num(100.0 * frac, 2) + "%";
  };
  t.add_row({"fault coverage", pct(rep.detected_before, total),
             pct(rep.detected_after, total)});
  t.add_row({"test coverage", pct(rep.detected_before, testable),
             pct(rep.detected_after, testable)});
  std::printf("%s\n", t.render("Repair of the conventional random-fill set (" +
                               std::to_string(rep.rounds) + " rounds)")
                          .c_str());
  std::printf("Coverage retained: %.2f%% of the original detections at %.0f%% "
              "of the original violation count.\n\n",
              100.0 * static_cast<double>(rep.detected_after) /
                  static_cast<double>(std::max<std::size_t>(1, rep.detected_before)),
              100.0 * static_cast<double>(rep.violations_after) /
                  static_cast<double>(std::max<std::size_t>(1, rep.violations_before)));
}

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("repair_flow", "Extension", "repairing an existing pattern set's SCAP violations");
  run.phase("table");
  scap::print_repair();
  (void)argc;
  (void)argv;
  return 0;
}
