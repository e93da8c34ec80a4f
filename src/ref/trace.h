// Materialized toggle trace of one event-driven simulation pass.
//
// Production code never keeps a trace: every analysis consumes the
// simulator's toggle stream through a ToggleSink (sim/toggle_sink.h). The
// trace lives here, next to the oracle that produces one (EventSimRef), for
// the callers that need the whole toggle list at once: the comparators, the
// fuzz driver and the tests. TraceRecorder records a production EventSim
// pass into the same form, so the two engines can be diffed toggle by toggle.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "sim/toggle_sink.h"

namespace scap::ref {

struct ToggleEvent {
  NetId net = kNullId;
  float t_ns = 0.0f;
  bool rising = false;
};

struct SimTrace {
  std::vector<ToggleEvent> toggles;  ///< commit (== time) order
  double first_toggle_ns = 0.0;
  double last_toggle_ns = 0.0;
  std::size_t num_events_processed = 0;
  std::size_t num_events_cancelled = 0;  ///< superseded by a later evaluation

  /// Switching time window (0 when nothing toggled).
  double stw_ns() const {
    return toggles.empty() ? 0.0 : last_toggle_ns - first_toggle_ns;
  }
};

/// Sink that records a production EventSim pass as a SimTrace.
class TraceRecorder final : public ToggleSink {
 public:
  void on_begin(std::span<const std::uint8_t> /*initial*/) override {
    trace_ = SimTrace{};
  }
  void on_toggle(NetId net, double t_ns, bool rising) override {
    trace_.toggles.push_back(
        ToggleEvent{net, static_cast<float>(t_ns), rising});
  }
  void on_end(const SimStats& stats) override {
    trace_.first_toggle_ns = stats.first_toggle_ns;
    trace_.last_toggle_ns = stats.last_toggle_ns;
    trace_.num_events_processed = stats.num_events_processed;
    trace_.num_events_cancelled = stats.num_events_cancelled;
  }

  const SimTrace& trace() const { return trace_; }
  SimTrace take() { return std::move(trace_); }

 private:
  SimTrace trace_;
};

}  // namespace scap::ref
