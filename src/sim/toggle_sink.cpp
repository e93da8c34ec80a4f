#include "sim/toggle_sink.h"

namespace scap {

ToggleSink::~ToggleSink() = default;

void ToggleSink::on_begin(std::span<const std::uint8_t> /*initial*/) {}

void ToggleSink::on_end(const SimStats& /*stats*/) {}

FanoutSink::FanoutSink(std::initializer_list<ToggleSink*> sinks) {
  for (ToggleSink* s : sinks) {
    if (s != nullptr) sinks_.push_back(s);
  }
}

void FanoutSink::on_begin(std::span<const std::uint8_t> initial_net_values) {
  for (ToggleSink* s : sinks_) s->on_begin(initial_net_values);
}

void FanoutSink::on_toggle(NetId net, double t_ns, bool rising) {
  for (ToggleSink* s : sinks_) s->on_toggle(net, t_ns, rising);
}

void FanoutSink::on_end(const SimStats& stats) {
  for (ToggleSink* s : sinks_) s->on_end(stats);
}

}  // namespace scap
