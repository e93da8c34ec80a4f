#include "core/pattern_sim.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace scap {

namespace {

void check_clock_arrivals(const Netlist& nl, std::span<const double> arr) {
  if (!arr.empty() && arr.size() != nl.num_flops()) {
    throw std::invalid_argument(
        "PatternAnalyzer: not one clock arrival per flop");
  }
}

}  // namespace

PatternAnalyzer::PatternAnalyzer(const SocDesign& soc, const TechLibrary& lib)
    : PatternAnalyzer(soc, lib, SharedTables::build(soc, lib)) {}

PatternAnalyzer::PatternAnalyzer(const SocDesign& soc, const TechLibrary& lib,
                                 std::shared_ptr<const SharedTables> tables)
    : soc_(&soc),
      lib_(&lib),
      frame_sim_(soc.netlist.levelized_view(), 1),
      tables_(std::move(tables)),
      scap_acc_(tables_->scap, soc.config.tester_period_ns) {}

std::size_t PatternAnalyzer::build_launch(
    const TestContext& ctx, const Pattern& pattern,
    std::span<const double> clock_arrivals) const {
  const Netlist& nl = soc_->netlist;
  if (pattern.s1.size() < ctx.num_vars()) {
    throw std::invalid_argument(
        "PatternAnalyzer: pattern shorter than the context's test variables");
  }
  check_clock_arrivals(nl, clock_arrivals);

  // Frame 1: settled state after the (slow) scan load. The flop bits are
  // the leading num_flops() entries of the test-variable vector.
  q_words_.assign(pattern.s1.begin(),
                  pattern.s1.begin() +
                      static_cast<std::ptrdiff_t>(nl.num_flops()));
  pi_words_.assign(ctx.pi_values.begin(), ctx.pi_values.end());
  frame_sim_.eval_frame(q_words_, pi_words_, net_words_);
  // Back to external net ids. The pointers are hoisted because the byte
  // stores may alias anything the loop would otherwise reload.
  frame1_.resize(nl.num_nets());
  const NetId* ext = frame_sim_.view().external_nets();
  const std::uint64_t* words = net_words_.data();
  std::uint8_t* f1 = frame1_.data();
  for (std::size_t c = 0, nn = frame1_.size(); c < nn; ++c) {
    f1[ext[c]] = static_cast<std::uint8_t>(words[c] & 1u);
  }

  // Launch stimuli at each flop's clock arrival. LOC: active flops capture
  // their functional D. LOS: the launch shift moves every chain by one.
  stimuli_.clear();
  std::size_t launched = 0;
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    std::uint8_t s2;
    if (ctx.explicit_s2()) {
      s2 = pattern.s1[ctx.los_pred[f]];
    } else {
      if (!ctx.active[f]) continue;
      s2 = frame1_[nl.flop(f).d];
    }
    if (s2 == pattern.s1[f]) continue;
    const double arrival = clock_arrivals.empty()
                               ? soc_->clock_tree.nominal_arrival_ns(f)
                               : clock_arrivals[f];
    stimuli_.push_back(Stimulus{nl.flop(f).q, arrival, s2});
    ++launched;
  }
  return launched;
}

std::size_t PatternAnalyzer::analyze_into(
    const TestContext& ctx, const Pattern& pattern, ToggleSink& sink,
    const DelayModel* delay_model,
    std::span<const double> clock_arrivals) const {
  SCAP_TRACE_SCOPE("sim.pattern_analyze");
  const std::size_t launched = build_launch(ctx, pattern, clock_arrivals);
  const DelayModel& dm = delay_model ? *delay_model : tables_->dm;
  EventSim sim(soc_->netlist, dm);
  sim.run(frame1_, stimuli_, ws_, sink);
  return launched;
}

const ScapReport& PatternAnalyzer::analyze_scap(const TestContext& ctx,
                                                const Pattern& pattern) const {
  analyze_into(ctx, pattern, scap_acc_);
  return scap_acc_.report();
}

PatternAnalysis PatternAnalyzer::analyze(
    const TestContext& ctx, const Pattern& pattern,
    const DelayModel* delay_model,
    std::span<const double> clock_arrivals) const {
  PatternAnalysis out;
  out.launched_flops =
      analyze_into(ctx, pattern, scap_acc_, delay_model, clock_arrivals);
  out.scap = scap_acc_.report();
  return out;
}

std::vector<double> PatternAnalyzer::endpoint_delays_from_settle(
    std::span<const double> settle,
    std::span<const double> clock_arrivals) const {
  const Netlist& nl = soc_->netlist;
  if (settle.size() != nl.num_nets()) {
    throw std::invalid_argument("PatternAnalyzer: not one settle time per net");
  }
  check_clock_arrivals(nl, clock_arrivals);
  std::vector<double> delays(nl.num_flops(), 0.0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    const double t = settle[nl.flop(f).d];
    if (t <= 0.0) continue;  // non-active endpoint
    const double arrival = clock_arrivals.empty()
                               ? soc_->clock_tree.nominal_arrival_ns(f)
                               : clock_arrivals[f];
    delays[f] = std::max(0.0, t - arrival);
  }
  return delays;
}

}  // namespace scap
