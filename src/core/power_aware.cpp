#include "core/power_aware.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

StepPlan StepPlan::paper_default(std::size_t num_blocks,
                                 double hot_step_care_fraction) {
  StepPlan plan;
  auto mask = [&](std::initializer_list<std::size_t> blocks) {
    std::vector<std::uint8_t> m(num_blocks, 0);
    for (std::size_t b : blocks) {
      if (b < num_blocks) m[b] = 1;
    }
    return m;
  };
  // Blocks are 0-indexed: B1..B4 = 0..3, B5 = 4, B6 = 5.
  plan.steps.push_back(Step{mask({0, 1, 2, 3}), 1.0});
  plan.steps.push_back(Step{mask({5}), 1.0});
  plan.steps.push_back(Step{mask({4}), hot_step_care_fraction});
  return plan;
}

std::vector<double> FlowResult::coverage_curve() const {
  std::vector<double> curve(new_detects_per_pattern.size());
  std::size_t cum = 0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    cum += new_detects_per_pattern[i];
    curve[i] = stats.total_faults
                   ? static_cast<double>(cum) / static_cast<double>(stats.total_faults)
                   : 0.0;
  }
  return curve;
}

FlowResult run_power_aware_atpg(const Netlist& nl, const TestContext& ctx,
                                std::span<const TdfFault> faults,
                                const StepPlan& plan, AtpgOptions base) {
  SCAP_TRACE_SCOPE("flow.power_aware");
  FlowResult out;
  out.patterns.domain = ctx.domain;
  AtpgEngine engine(nl, ctx);
  std::vector<FaultStatus> status(faults.size(), FaultStatus::kUndetected);

  std::uint64_t step_seed = base.seed;
  for (const auto& step : plan.steps) {
    SCAP_TRACE_SCOPE("atpg.step");
    out.step_start.push_back(out.patterns.patterns.size());
    AtpgOptions opt = base;
    opt.target_blocks = step.target_blocks;
    opt.max_block_care_fraction =
        std::min(opt.max_block_care_fraction, step.max_block_care_fraction);
    opt.seed = step_seed++;
    // Previously aborted targets get another chance in their own step.
    for (FaultStatus& s : status) {
      if (s == FaultStatus::kAborted) s = FaultStatus::kUndetected;
    }
    AtpgResult step_res = engine.run(faults, opt, &status);
    // Step-level summary: per-step pattern counts are the paper's Figure 4
    // x-axis; the distributions surface in every metrics artifact.
    obs::count("flow.steps");
    obs::count("flow.step_patterns_total", step_res.patterns.size());
    obs::observe("flow.step_patterns",
                 static_cast<double>(step_res.patterns.size()));
    obs::observe("flow.step_coverage", step_res.stats.fault_coverage());
    for (auto& p : step_res.patterns.patterns) {
      out.patterns.patterns.push_back(std::move(p));
    }
    out.new_detects_per_pattern.insert(out.new_detects_per_pattern.end(),
                                       step_res.new_detects_per_pattern.begin(),
                                       step_res.new_detects_per_pattern.end());
    out.care_bits_per_pattern.insert(out.care_bits_per_pattern.end(),
                                     step_res.care_bits_per_pattern.begin(),
                                     step_res.care_bits_per_pattern.end());
    out.stats = step_res.stats;  // cumulative: status threads through
  }
  return out;
}

FlowResult run_conventional_atpg(const Netlist& nl, const TestContext& ctx,
                                 std::span<const TdfFault> faults,
                                 AtpgOptions base) {
  SCAP_TRACE_SCOPE("flow.conventional");
  FlowResult out;
  out.patterns.domain = ctx.domain;
  AtpgEngine engine(nl, ctx);
  std::vector<FaultStatus> status(faults.size(), FaultStatus::kUndetected);
  AtpgResult res = engine.run(faults, base, &status);
  out.patterns = std::move(res.patterns);
  out.new_detects_per_pattern = std::move(res.new_detects_per_pattern);
  out.care_bits_per_pattern = std::move(res.care_bits_per_pattern);
  out.stats = res.stats;
  out.step_start = {0};
  return out;
}

}  // namespace scap
