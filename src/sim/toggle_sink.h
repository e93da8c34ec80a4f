// Streaming toggle sinks for the event-driven timing simulator.
//
// The paper's Figure-5 flow computes SCAP by tapping the timing simulator
// directly through a PLI routine precisely so that no VCD file is ever
// materialized. This interface is that idea taken literally, and it is the
// only way to consume a simulation: the simulator pushes every committed
// output toggle -- in commit (== time) order -- into one or more sinks as it
// happens, and no toggle trace is kept. Concrete sinks accumulate SCAP
// energies (sim/scap.h), per-instance rail charge for the dynamic IR-drop
// solve (power/dynamic_ir.h), per-net settle times and a VCD stream
// (sim/vcd.h); the FanoutSink combinator lets one simulation pass feed all
// of them at once.
//
// Contract: every sink's result equals what the reference simulator's
// recorded trace of the same simulation input implies (src/ref/, enforced
// by tests/stream_equiv_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace scap {

/// Summary of one event-driven simulation pass, handed to every sink when the
/// pass completes. Toggle-window times are the exact doubles of the commit
/// loop.
struct SimStats {
  std::size_t num_events_processed = 0;  ///< events scheduled, all of them
  std::size_t num_events_cancelled = 0;  ///< superseded by a later evaluation
  std::size_t num_toggles = 0;
  double first_toggle_ns = 0.0;
  double last_toggle_ns = 0.0;

  /// Switching time window (0 when nothing toggled).
  double stw_ns() const {
    return num_toggles == 0 ? 0.0 : last_toggle_ns - first_toggle_ns;
  }
};

/// Receiver of one simulation pass. on_begin / on_toggle* / on_end are called
/// exactly once / per commit / once per pass; sinks reset their per-pattern
/// state in on_begin so one instance can be reused allocation-free across a
/// pattern stream.
class ToggleSink {
 public:
  virtual ~ToggleSink();

  /// A pass begins; `initial_net_values` is the settled pre-launch state and
  /// is only guaranteed valid for the duration of the call.
  virtual void on_begin(std::span<const std::uint8_t> initial_net_values);

  /// One committed output toggle. `t_ns` is the exact commit time; sinks that
  /// report float-precision timestamps cast through float themselves.
  virtual void on_toggle(NetId net, double t_ns, bool rising) = 0;

  /// The pass is complete.
  virtual void on_end(const SimStats& stats);
};

/// Combinator: forwards every event to each attached sink in attachment
/// order, so a single simulation pass feeds SCAP + IR + settle-time analysis
/// simultaneously.
class FanoutSink final : public ToggleSink {
 public:
  FanoutSink(std::initializer_list<ToggleSink*> sinks);

  void on_begin(std::span<const std::uint8_t> initial_net_values) override;
  void on_toggle(NetId net, double t_ns, bool rising) override;
  void on_end(const SimStats& stats) override;

 private:
  std::vector<ToggleSink*> sinks_;
};

/// Per-net stabilization time (last toggle, 0 for untouched nets). Each
/// timestamp is rounded through float, the precision the reference trace
/// (src/ref/trace.h) records, so endpoint delays keep that precision.
class SettleTimeTracker final : public ToggleSink {
 public:
  void on_begin(std::span<const std::uint8_t> initial_net_values) override {
    settle_.assign(initial_net_values.size(), 0.0);
  }
  void on_toggle(NetId net, double t_ns, bool /*rising*/) override {
    const double t = static_cast<double>(static_cast<float>(t_ns));
    if (t > settle_[net]) settle_[net] = t;
  }

  std::span<const double> settle() const { return settle_; }

 private:
  std::vector<double> settle_;
};

}  // namespace scap
