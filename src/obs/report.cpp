#include "obs/report.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "util/env.h"

namespace scap::obs {

namespace {

/// Format a double so the output is valid JSON (no inf/nan) and round-trips.
std::string num(double x) {
  std::string out;
  json::append_number(out, x);
  return out;
}

void append_stats(std::ostringstream& os, const RunningStats& s) {
  os << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
     << ",\"min\":" << num(s.min()) << ",\"max\":" << num(s.max())
     << ",\"stddev\":" << num(s.stddev()) << "}";
}

void append_timer_snap(std::ostringstream& os, const Registry::TimerSnap& t) {
  os << "{\"count\":" << t.stats.count() << ",\"total_ms\":" << num(t.total_ms)
     << ",\"mean_ms\":" << num(t.stats.mean())
     << ",\"min_ms\":" << num(t.stats.min())
     << ",\"max_ms\":" << num(t.stats.max()) << "}";
}

/// Emit `"counters":{...},"gauges":{...},"timers":{...}` from a snapshot,
/// with `indent` leading spaces before each section key.
void append_snapshot_sections(std::ostringstream& os,
                              const Registry::Snapshot& snap,
                              const std::string& indent) {
  os << indent << "\"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(snap.counters[i].first)
       << "\": " << snap.counters[i].second;
  }
  os << "},\n" << indent << "\"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(snap.gauges[i].first) << "\": ";
    append_stats(os, snap.gauges[i].second);
  }
  os << "},\n" << indent << "\"timers\": {";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(snap.timers[i].name) << "\": ";
    append_timer_snap(os, snap.timers[i]);
  }
  os << "}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json(const RunReport& rep) {
  Registry::Snapshot total;
  for (const PhaseTime& p : rep.phases) total.merge(p.metrics);

  std::ostringstream os;
  os << "{\n  \"name\": \"" << json_escape(rep.name) << "\",\n  \"info\": {";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(rep.info[i].first) << "\": \""
       << json_escape(rep.info[i].second) << "\"";
  }
  os << "},\n  \"phases\": [";
  for (std::size_t i = 0; i < rep.phases.size(); ++i) {
    const PhaseTime& p = rep.phases[i];
    if (i) os << ",";
    os << "\n    {\"name\": \"" << json_escape(p.name)
       << "\", \"wall_ms\": " << num(p.wall_ms);
    if (!p.metrics.empty()) {
      os << ",\n     \"metrics\": {\n";
      append_snapshot_sections(os, p.metrics, "      ");
      os << "\n     }";
    }
    os << "}";
  }
  os << (rep.phases.empty() ? "]" : "\n  ]") << ",\n";
  append_snapshot_sections(os, total, "  ");
  os << "\n}\n";
  return os.str();
}

bool write_file(const std::string& path, std::string_view contents) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os.write(contents.data(),
           static_cast<std::streamsize>(contents.size()));
  return os.good();
}

std::string bench_artifact_path(std::string_view bench_name) {
  std::string dir;
  // Artifact emission is a main-thread epilogue; env is never written.
  if (const char* env = util::env_cstr("SCAP_METRICS_DIR")) {
    if (env[0] != '\0') dir = env;
  }
  std::string path;
  if (!dir.empty()) {
    path = dir;
    if (path.back() != '/') path += '/';
  }
  path += "BENCH_";
  path += bench_name;
  path += ".json";
  return path;
}

}  // namespace scap::obs
