#include "core/pattern_sim.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"

namespace scap {

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

const lint::StaticScapModel& PatternAnalyzer::static_model() const {
  if (!static_model_) {
    const Netlist& nl = soc_->netlist;
    std::vector<double> energy(nl.num_nets());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      energy[n] = tables_->scap.net_toggle_energy_pj(n);
    }
    std::vector<double> arrival(nl.num_flops());
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      arrival[f] = soc_->clock_tree.nominal_arrival_ns(f);
    }
    std::vector<double> min_delay(nl.num_gates());
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      min_delay[g] =
          std::min(tables_->dm.rise_ns(g), tables_->dm.fall_ns(g));
    }
    static_model_ = std::make_unique<lint::StaticScapModel>(nl, energy, arrival,
                                                            min_delay);
  }
  return *static_model_;
}

const lint::StaticScapBound& PatternAnalyzer::screen_static(
    const TestContext& ctx, const Pattern& pattern) const {
  SCAP_TRACE_SCOPE("sim.screen_static");
  return static_model().screen(ctx, pattern);
}

PatternAnalysis PatternAnalyzer::analyze(
    const TestContext& ctx, const Pattern& pattern,
    const DelayModel* delay_model,
    std::span<const double> clock_arrivals) const {
  FanoutSink fan{&recorder_, &scap_acc_};
  PatternAnalysis out;
  out.launched_flops =
      analyze_into(ctx, pattern, fan, delay_model, clock_arrivals);
  out.trace = recorder_.take();
  out.scap = scap_acc_.report();
  out.frame1_nets.assign(frame1_.begin(), frame1_.end());
  return out;
}

std::vector<double> PatternAnalyzer::endpoint_delays(
    const SimTrace& trace, std::span<const double> clock_arrivals) const {
  const std::vector<double> settle =
      EventSim::settle_times(trace, soc_->netlist.num_nets());
  return endpoint_delays_from_settle(settle, clock_arrivals);
}

std::vector<double> PatternAnalyzer::endpoint_delays_from_settle(
    std::span<const double> settle,
    std::span<const double> clock_arrivals) const {
  const Netlist& nl = soc_->netlist;
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
