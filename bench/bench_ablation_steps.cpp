// Ablation -- why the stepwise block targeting matters.
//
// Section 3.1's observation: even with a quiet fill, targeting all blocks at
// once lets the greedy ATPG pack faults from every block into the early
// patterns (few don't-care bits anywhere -> the fill has nothing to keep
// quiet). Handing the tool one block subset at a time leaves the other
// blocks fully X, which the quiet fill then silences. This bench compares
// one-step quiet fill against the paper's 3-step plan, plus a per-block-step
// granularity sweep.
#include "bench_common.h"

namespace scap {
namespace {

struct PlanRun {
  std::string name;
  FlowResult flow;
  std::size_t violations = 0;
};

PlanRun run_plan(const std::string& name, const StepPlan& plan) {
  const Experiment& exp = bench::experiment();
  AtpgOptions opt = bench::bench_atpg_options();
  opt.fill = FillMode::kQuiet;
  PlanRun out;
  out.name = name;
  out.flow =
      run_power_aware_atpg(exp.soc.netlist, exp.ctx, exp.faults, plan, opt);
  const auto profile =
      scap_profile(exp.soc, *exp.lib, exp.ctx, out.flow.patterns);
  out.violations =
      exp.thresholds.count_violations(profile, Experiment::kHotBlock);
  return out;
}

void print_ablation() {
  const Experiment& exp = bench::experiment();
  const std::size_t nb = exp.soc.netlist.block_count();

  std::vector<PlanRun> runs;
  {
    StepPlan one;
    one.steps.push_back(
        StepPlan::Step{std::vector<std::uint8_t>(nb, 1), 1.0});
    runs.push_back(run_plan("1 step (all blocks at once)", one));
  }
  {
    StepPlan unthrottled = StepPlan::paper_default(nb, 1.0);
    runs.push_back(run_plan("3 steps, unthrottled B5 step", unthrottled));
  }
  runs.push_back(run_plan("3 steps + B5 care budget (paper wishlist)",
                          StepPlan::paper_default(nb)));
  {
    StepPlan per_block;
    for (std::size_t b : {0u, 1u, 2u, 3u, 5u, 4u}) {  // B5 last
      std::vector<std::uint8_t> mask(nb, 0);
      mask[b] = 1;
      per_block.steps.push_back(
          StepPlan::Step{mask, b == 4u ? 0.04 : 1.0});
    }
    runs.push_back(run_plan("6 steps (one block at a time, B5 last)",
                            per_block));
  }

  TextTable t({"plan", "patterns", "fault coverage", "test coverage",
               "B5 violations"});
  for (const PlanRun& r : runs) {
    t.add_row({r.name, std::to_string(r.flow.patterns.size()),
               TextTable::num(100.0 * r.flow.stats.fault_coverage(), 2) + "%",
               TextTable::num(100.0 * r.flow.stats.test_coverage(), 2) + "%",
               std::to_string(r.violations)});
  }
  std::printf("%s\n",
              t.render("Ablation: step-plan granularity (quiet fill)").c_str());
  std::printf("Expected shape: finer steps cost patterns but keep untargeted "
              "blocks X-rich,\nwhich is what the quiet fill converts into low "
              "B5 SCAP.\n\n");
}

}  // namespace
}  // namespace scap

int main(int argc, char** argv) {
  scap::bench::BenchRun run("ablation_steps", "Ablation", "step-plan granularity");
  run.phase("table");
  scap::print_ablation();
  (void)argc;
  (void)argv;
  return 0;
}
