#include "obs/metrics.h"

namespace scap::obs {

Registry& Registry::global() {
  static Registry* r = new Registry;  // leaked: instrumented statics may
  return *r;                          // outlive ordinary destruction order
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Timer& Registry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

namespace {

template <typename Vec, typename Key, typename MergeFn>
void merge_sorted(Vec& into, const Vec& from, const Key& key,
                  const MergeFn& merge_one) {
  // Both vectors are sorted by name (they come from std::map walks); classic
  // two-way merge keeps the result sorted without a lookup structure.
  Vec out;
  out.reserve(into.size() + from.size());
  std::size_t i = 0, j = 0;
  while (i < into.size() || j < from.size()) {
    if (j >= from.size() || (i < into.size() && key(into[i]) < key(from[j]))) {
      out.push_back(std::move(into[i++]));
    } else if (i >= into.size() || key(from[j]) < key(into[i])) {
      out.push_back(from[j++]);
    } else {
      merge_one(into[i], from[j]);
      out.push_back(std::move(into[i++]));
      ++j;
    }
  }
  into = std::move(out);
}

}  // namespace

void Registry::Snapshot::merge(const Snapshot& other) {
  merge_sorted(
      counters, other.counters, [](const auto& e) -> const std::string& { return e.first; },
      [](auto& a, const auto& b) { a.second += b.second; });
  merge_sorted(
      gauges, other.gauges, [](const auto& e) -> const std::string& { return e.first; },
      [](auto& a, const auto& b) { a.second.merge(b.second); });
  merge_sorted(
      timers, other.timers, [](const TimerSnap& e) -> const std::string& { return e.name; },
      [](TimerSnap& a, const TimerSnap& b) {
        a.stats.merge(b.stats);
        a.total_ms += b.total_ms;
      });
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    if (const std::uint64_t v = c->value()) snap.counters.emplace_back(name, v);
  }
  for (const auto& [name, g] : gauges_) {
    RunningStats s = g->snapshot();
    if (s.count()) snap.gauges.emplace_back(name, s);
  }
  for (const auto& [name, t] : timers_) {
    RunningStats s = t->snapshot();
    if (s.count()) snap.timers.push_back(TimerSnap{name, s, t->total_ms()});
  }
  return snap;
}

Registry::Snapshot Registry::snapshot_and_reset() {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) {
    if (const std::uint64_t v = c->take()) snap.counters.emplace_back(name, v);
  }
  for (const auto& [name, g] : gauges_) {
    RunningStats s = g->snapshot();
    if (s.count()) {
      snap.gauges.emplace_back(name, s);
      g->reset();
    }
  }
  for (const auto& [name, t] : timers_) {
    RunningStats s = t->snapshot();
    if (s.count()) {
      snap.timers.push_back(TimerSnap{name, s, t->total_ms()});
      t->reset();
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
}

}  // namespace scap::obs
