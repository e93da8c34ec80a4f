// Ablation -- launch-off-capture vs launch-off-shift under the SCAP model.
//
// The paper (Section 1.1) surveys both schemes and builds its method on LOC.
// This bench quantifies the textbook trade-off on the same SOC: LOS reaches
// higher coverage faster (S2 is fully controllable through the chains) but
// its launch shift toggles every scan cell in every chain -- including held
// clock domains -- so its per-pattern SCAP and threshold-violation rate are
// far worse, which is exactly why a supply-noise-aware flow prefers LOC.
#include "bench_common.h"

#include "util/stats.h"

namespace scap {
namespace {

struct SchemeRun {
  std::string name;
  AtpgResult result;
  RunningStats b5_scap;
  std::size_t violations = 0;
  double mean_launches = 0.0;
};

SchemeRun run_scheme(const std::string& name, const TestContext& ctx) {
  const Experiment& exp = bench::experiment();
  SchemeRun out;
  out.name = name;
  AtpgEngine engine(exp.soc.netlist, ctx);
  AtpgOptions opt = bench::bench_atpg_options();
  opt.fill = FillMode::kRandom;
  out.result = engine.run(exp.faults, opt);

  PatternAnalyzer analyzer(exp.soc, *exp.lib);
  const std::size_t hot = Experiment::kHotBlock;
  double launches = 0.0;
  for (const Pattern& p : out.result.patterns.patterns) {
    const PatternAnalysis pa = analyzer.analyze(ctx, p);
    out.b5_scap.add(ScapThresholds::block_scap_mw(pa.scap, hot));
    launches += static_cast<double>(pa.launched_flops);
    out.violations +=
        exp.thresholds.violates(pa.scap, hot) ? 1 : 0;
  }
  if (!out.result.patterns.patterns.empty()) {
    out.mean_launches =
        launches / static_cast<double>(out.result.patterns.size());
  }
  return out;
}

void print_ablation() {
  const Experiment& exp = bench::experiment();
  const TestContext los = TestContext::for_domain_los(
      exp.soc.netlist, exp.ctx.domain, exp.soc.scan.chains);

  const TestContext enh =
      TestContext::for_domain_enhanced(exp.soc.netlist, exp.ctx.domain);

  const SchemeRun loc = run_scheme("launch-off-capture", exp.ctx);
  const SchemeRun losr = run_scheme("launch-off-shift", los);
  const SchemeRun enhr = run_scheme("enhanced scan", enh);

  TextTable t({"scheme", "patterns", "fault coverage", "test coverage",
               "launch flops/pat", "B5 SCAP mean [mW]", "B5 violations"});
  for (const SchemeRun* r : {&loc, &losr, &enhr}) {
    t.add_row({r->name, std::to_string(r->result.patterns.size()),
               TextTable::num(100.0 * r->result.stats.fault_coverage(), 2) +
                   "%",
               TextTable::num(100.0 * r->result.stats.test_coverage(), 2) +
                   "%",
               TextTable::num(r->mean_launches, 0),
               TextTable::num(r->b5_scap.mean(), 1),
               std::to_string(r->violations) + " (" +
                   TextTable::num(100.0 * static_cast<double>(r->violations) /
                                      static_cast<double>(
                                          r->result.patterns.size()),
                                  1) +
                   "%)"});
  }
  std::printf("%s\n",
              t.render("Ablation: LOC vs LOS vs enhanced scan (random-fill, clka)").c_str());
  std::printf("Textbook shape: controllability (and coverage) grows LOC -> "
              "LOS -> enhanced scan,\nbut so does launch switching; and "
              "enhanced scan's hold cells cost ~2x cell area,\nwhich is why "
              "industry (and the paper) settle on LOC.\n\n");
}

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("ablation_los", "Ablation", "LOC vs LOS launch schemes");
  run.phase("table");
  scap::print_ablation();
  (void)argc;
  (void)argv;
  return 0;
}
