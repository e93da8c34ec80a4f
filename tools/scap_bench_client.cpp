// scap_bench_client: concurrent load harness for the scap_serve daemon.
//
// Spawns N submitter threads, each with its own connection, and drives the
// daemon with screening requests over a shared design recipe. Reports p50 /
// p90 / p99 / max request latency and served patterns/sec, then (unless
// --no-baseline) measures the in-process cost the daemon replaces -- a fresh
// PatternAnalyzer per request over the same workload ("warm": design built
// once) and the full materialize-per-request path ("cold") -- and writes the
// whole comparison plus the daemon's serve.* counters to BENCH_<label>.json
// (obs/report.h schema, $SCAP_METRICS_DIR aware) for the bench-trajectory
// ledger.
//
// Usage:
//   scap_bench_client --socket PATH [options]
//   scap_bench_client --tcp PORT [--host H] [options]
//
// Options:
//   --clients N      concurrent submitter threads (default 8)
//   --requests N     requests per client (default 32)
//   --patterns N     patterns per request (default 16)
//   --op OP          profile | exact | grade (default profile)
//   --mode M         closed (back-to-back) | open (paced; default closed)
//   --rate R         open-loop target requests/sec per client (default 50)
//   --design-seed S  scenario soc_seed (default 11)
//   --scale F        scenario flops_scale (default 0.25)
//   --hot-block B    hot block for screen ops (default 0)
//   --threshold MW   SCAP threshold for screen ops (default 1.0)
//   --wait-s SEC     max seconds to wait for the daemon (default 10)
//   --label NAME     artifact name: BENCH_<NAME>.json (default serve)
//   --no-baseline    skip the in-process baseline measurement
//
// Exit codes: 0 = ran and got replies, 1 = no successful replies,
// 2 = usage / connect error.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/pattern_sim.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "ref/fuzz.h"
#include "ref/scenario.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/kv.h"
#include "util/version.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket;
  std::string host = "127.0.0.1";
  int tcp_port = -1;
  std::size_t clients = 8;
  std::size_t requests = 32;
  std::size_t patterns = 16;
  scap::serve::Op op = scap::serve::Op::kScapProfile;
  bool open_loop = false;
  double rate = 50.0;
  std::uint64_t design_seed = 11;
  double scale = 0.25;
  std::uint32_t hot_block = 0;
  double threshold_mw = 1.0;
  double wait_s = 10.0;
  std::string label = "serve";
  bool baseline = true;
};

/// Per-submitter tallies; merged after join.
struct ClientResult {
  std::vector<double> latencies_ms;  ///< every answered request (incl. busy)
  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t error_replies = 0;
  std::size_t transport_errors = 0;
  std::size_t ok_patterns = 0;
};

int usage(const char* argv0, int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: " << argv0
      << " (--socket PATH | --tcp PORT [--host H])\n"
         "       [--clients N] [--requests N] [--patterns N]\n"
         "       [--op profile|exact|grade] [--mode closed|open]\n"
         "       [--rate R] [--design-seed S] [--scale F] [--hot-block B]\n"
         "       [--threshold MW] [--wait-s SEC] [--label NAME]\n"
         "       [--no-baseline]\n";
  return code;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// q-th quantile of a sorted sample (nearest-rank on the index scale).
double pct(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(pos));
  return sorted[std::min(idx, sorted.size() - 1)];
}

scap::serve::Client connect(const Options& opt, std::string* err) {
  if (!opt.socket.empty()) {
    return scap::serve::Client::connect_unix(opt.socket, err);
  }
  return scap::serve::Client::connect_tcp(opt.host, opt.tcp_port, err);
}

/// Poll until the daemon answers a ping (it may still be starting up).
bool wait_ready(const Options& opt) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.wait_s));
  do {
    std::string err;
    scap::serve::Client c = connect(opt, &err);
    if (c.connected()) {
      scap::serve::Request ping;
      ping.op = scap::serve::Op::kPing;
      scap::serve::Reply reply;
      if (c.call(ping, &reply, &err) && reply.op == scap::serve::Op::kOk) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } while (Clock::now() < deadline);
  return false;
}

void run_submitter(const Options& opt, const std::string& design,
                   std::uint32_t num_vars,
                   const std::vector<std::vector<scap::Pattern>>& workload,
                   ClientResult* out) {
  std::string err;
  scap::serve::Client c = connect(opt, &err);
  if (!c.connected()) {
    out->transport_errors = opt.requests;
    return;
  }
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; r < opt.requests; ++r) {
    if (opt.open_loop && opt.rate > 0.0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(r) / opt.rate)));
    }
    scap::serve::Request req;
    req.op = opt.op;
    req.hot_block = opt.hot_block;
    req.threshold_mw = opt.threshold_mw;
    req.design = design;
    req.num_vars = num_vars;
    req.patterns = workload[r];
    scap::serve::Reply reply;
    const Clock::time_point t0 = Clock::now();
    if (!c.call(req, &reply, &err)) {
      ++out->transport_errors;
      return;  // connection is gone; nothing more this submitter can do
    }
    out->latencies_ms.push_back(ms_between(t0, Clock::now()));
    switch (reply.op) {
      case scap::serve::Op::kOk:
        ++out->ok;
        out->ok_patterns += req.patterns.size();
        break;
      case scap::serve::Op::kBusy:
        ++out->busy;
        break;
      default:
        ++out->error_replies;
        break;
    }
  }
}

/// Pull the daemon's counter snapshot and fold the serve.* counters into the
/// local registry so they land in the bench artifact alongside client-side
/// numbers.
void fold_server_stats(const Options& opt) {
  std::string err;
  scap::serve::Client c = connect(opt, &err);
  if (!c.connected()) return;
  scap::serve::Request req;
  req.op = scap::serve::Op::kStats;
  scap::serve::Reply reply;
  if (!c.call(req, &reply, &err) || reply.op != scap::serve::Op::kOk) return;
  try {
    const scap::util::KvDoc doc = scap::util::KvDoc::parse(
        std::string(reply.payload.begin(), reply.payload.end()));
    for (const auto& [key, value] : doc.entries()) {
      if (key.rfind("serve.", 0) != 0) continue;
      const std::uint64_t v = doc.get_u64(key, 0);
      scap::obs::Registry::global().counter(key).add(v);
    }
  } catch (const std::exception&) {
    // Unparsable stats payload: skip the fold, keep the client-side report.
  }
}

/// One in-process request: what a caller without the daemon pays, an exact
/// SCAP analysis per pattern. `setup` already holds the built design
/// ("warm"); the "cold" variant re-pays materialization too and is measured
/// by the caller.
void inproc_request(const scap::ref::ScenarioSetup& setup,
                    std::span<const scap::Pattern> patterns) {
  const scap::PatternAnalyzer analyzer(setup.soc, setup.lib);
  for (const scap::Pattern& p : patterns) analyzer.analyze_scap(setup.ctx, p);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "scap_bench_client: " << what << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        const char* v = next("--socket");
        if (!v) return 2;
        opt.socket = v;
      } else if (arg == "--tcp") {
        const char* v = next("--tcp");
        if (!v) return 2;
        opt.tcp_port = std::stoi(v);
      } else if (arg == "--host") {
        const char* v = next("--host");
        if (!v) return 2;
        opt.host = v;
      } else if (arg == "--clients") {
        const char* v = next("--clients");
        if (!v) return 2;
        opt.clients = std::stoull(v);
      } else if (arg == "--requests") {
        const char* v = next("--requests");
        if (!v) return 2;
        opt.requests = std::stoull(v);
      } else if (arg == "--patterns") {
        const char* v = next("--patterns");
        if (!v) return 2;
        opt.patterns = std::stoull(v);
      } else if (arg == "--op") {
        const char* v = next("--op");
        if (!v) return 2;
        const std::string name = v;
        if (name == "profile") {
          opt.op = scap::serve::Op::kScapProfile;
        } else if (name == "exact") {
          opt.op = scap::serve::Op::kScreenExact;
        } else if (name == "grade") {
          opt.op = scap::serve::Op::kFaultGrade;
        } else {
          std::cerr << "scap_bench_client: unknown op " << name << "\n";
          return 2;
        }
      } else if (arg == "--mode") {
        const char* v = next("--mode");
        if (!v) return 2;
        const std::string name = v;
        if (name == "closed") {
          opt.open_loop = false;
        } else if (name == "open") {
          opt.open_loop = true;
        } else {
          std::cerr << "scap_bench_client: unknown mode " << name << "\n";
          return 2;
        }
      } else if (arg == "--rate") {
        const char* v = next("--rate");
        if (!v) return 2;
        opt.rate = std::stod(v);
      } else if (arg == "--design-seed") {
        const char* v = next("--design-seed");
        if (!v) return 2;
        opt.design_seed = std::stoull(v);
      } else if (arg == "--scale") {
        const char* v = next("--scale");
        if (!v) return 2;
        opt.scale = std::stod(v);
      } else if (arg == "--hot-block") {
        const char* v = next("--hot-block");
        if (!v) return 2;
        opt.hot_block = static_cast<std::uint32_t>(std::stoul(v));
      } else if (arg == "--threshold") {
        const char* v = next("--threshold");
        if (!v) return 2;
        opt.threshold_mw = std::stod(v);
      } else if (arg == "--wait-s") {
        const char* v = next("--wait-s");
        if (!v) return 2;
        opt.wait_s = std::stod(v);
      } else if (arg == "--label") {
        const char* v = next("--label");
        if (!v) return 2;
        opt.label = v;
      } else if (arg == "--no-baseline") {
        opt.baseline = false;
      } else if (arg == "--version") {
        std::cout << "scap_bench_client " << scap::kVersion << "\n";
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        return usage(argv[0], 0);
      } else {
        std::cerr << "scap_bench_client: unknown option " << arg << "\n";
        return usage(argv[0], 2);
      }
    } catch (const std::exception&) {
      std::cerr << "scap_bench_client: bad value for " << arg << "\n";
      return 2;
    }
  }
  if (opt.socket.empty() && opt.tcp_port < 0) return usage(argv[0], 2);
  if (opt.clients == 0 || opt.requests == 0 || opt.patterns == 0) {
    std::cerr << "scap_bench_client: --clients/--requests/--patterns must be "
                 ">= 1\n";
    return 2;
  }

  scap::obs::RunReport report;
  report.name = opt.label;
  report.info = {
      {"tool", "scap_bench_client"},
      {"op", scap::serve::op_name(opt.op)},
      {"clients", std::to_string(opt.clients)},
      {"requests_per_client", std::to_string(opt.requests)},
      {"patterns_per_request", std::to_string(opt.patterns)},
      {"mode", opt.open_loop ? "open" : "closed"},
      {"design_seed", std::to_string(opt.design_seed)},
  };
  scap::obs::Registry::global().reset();

  // --- setup: build the shared recipe + workload locally -------------------
  const Clock::time_point setup_t0 = Clock::now();
  scap::ref::Scenario recipe;
  recipe.name = "bench_client";
  recipe.soc_seed = opt.design_seed;
  recipe.flops_scale = opt.scale;
  recipe.num_patterns = 0;  // patterns travel with each request, not the recipe
  const std::string design = recipe.serialize();
  const scap::ref::ScenarioSetup setup = scap::ref::materialize_scenario(recipe);
  const std::uint32_t num_vars =
      static_cast<std::uint32_t>(setup.ctx.num_vars());
  if (opt.hot_block >= setup.soc.netlist.block_count()) {
    std::cerr << "scap_bench_client: --hot-block " << opt.hot_block
              << " out of range (design has "
              << setup.soc.netlist.block_count() << " blocks)\n";
    return 2;
  }

  // Distinct deterministic pattern sets per (client, request) so the daemon
  // sees real per-request variety; pre-generated so submitter threads spend
  // their time submitting.
  std::vector<std::vector<std::vector<scap::Pattern>>> workload(opt.clients);
  for (std::size_t c = 0; c < opt.clients; ++c) {
    workload[c].reserve(opt.requests);
    for (std::size_t r = 0; r < opt.requests; ++r) {
      const std::uint64_t seed = 1 + c * opt.requests + r;
      workload[c].push_back(
          scap::random_pattern_set(opt.patterns, num_vars, seed).patterns);
    }
  }

  if (!wait_ready(opt)) {
    std::cerr << "scap_bench_client: daemon not reachable within "
              << opt.wait_s << "s\n";
    return 2;
  }
  report.phases.push_back({"setup", ms_between(setup_t0, Clock::now()),
                           scap::obs::Registry::global().snapshot_and_reset()});

  // --- load: N concurrent submitters ---------------------------------------
  std::vector<ClientResult> results(opt.clients);
  const Clock::time_point load_t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (std::size_t c = 0; c < opt.clients; ++c) {
      threads.emplace_back(run_submitter, std::cref(opt), std::cref(design),
                           num_vars, std::cref(workload[c]), &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double load_ms = ms_between(load_t0, Clock::now());

  ClientResult total;
  for (const ClientResult& r : results) {
    total.ok += r.ok;
    total.busy += r.busy;
    total.error_replies += r.error_replies;
    total.transport_errors += r.transport_errors;
    total.ok_patterns += r.ok_patterns;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              r.latencies_ms.begin(), r.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const double p50 = pct(total.latencies_ms, 0.50);
  const double p90 = pct(total.latencies_ms, 0.90);
  const double p99 = pct(total.latencies_ms, 0.99);
  const double lat_max =
      total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back();
  const double served_pps =
      load_ms > 0.0 ? static_cast<double>(total.ok_patterns) * 1e3 / load_ms
                    : 0.0;

  scap::obs::count("serve.client.ok", total.ok);
  scap::obs::count("serve.client.busy", total.busy);
  scap::obs::count("serve.client.error_replies", total.error_replies);
  scap::obs::count("serve.client.transport_errors", total.transport_errors);
  scap::obs::count("serve.client.ok_patterns", total.ok_patterns);
  scap::obs::observe("serve.client.latency_p50_ms", p50);
  scap::obs::observe("serve.client.latency_p90_ms", p90);
  scap::obs::observe("serve.client.latency_p99_ms", p99);
  scap::obs::observe("serve.client.latency_max_ms", lat_max);
  scap::obs::observe("serve.client.patterns_per_sec", served_pps);
  fold_server_stats(opt);
  report.phases.push_back({"load", load_ms,
                           scap::obs::Registry::global().snapshot_and_reset()});

  std::cout << "[load] op=" << scap::serve::op_name(opt.op)
            << " clients=" << opt.clients << " ok=" << total.ok
            << " busy=" << total.busy << " err=" << total.error_replies
            << " transport=" << total.transport_errors << "\n"
            << "[load] latency ms p50=" << p50 << " p90=" << p90
            << " p99=" << p99 << " max=" << lat_max << "\n"
            << "[load] served " << total.ok_patterns << " pattern(s) in "
            << load_ms << " ms = " << served_pps << " patterns/sec\n";

  // --- baseline: the in-process cost the daemon replaces -------------------
  if (opt.baseline) {
    const Clock::time_point base_t0 = Clock::now();
    const std::size_t total_requests = opt.clients * opt.requests;

    // Warm: fresh analyzer per request, design already built.
    const std::size_t warm_n = std::min<std::size_t>(total_requests, 64);
    const Clock::time_point warm_t0 = Clock::now();
    for (std::size_t i = 0; i < warm_n; ++i) {
      const auto& pats = workload[i % opt.clients][i / opt.clients % opt.requests];
      inproc_request(setup, pats);
    }
    const double warm_ms = ms_between(warm_t0, Clock::now());
    const double warm_pps =
        warm_ms > 0.0
            ? static_cast<double>(warm_n * opt.patterns) * 1e3 / warm_ms
            : 0.0;

    // Cold: materialize + analyzer per request (the literal status quo for a
    // caller that owns nothing between requests).
    const std::size_t cold_n = std::min<std::size_t>(total_requests, 8);
    const Clock::time_point cold_t0 = Clock::now();
    for (std::size_t i = 0; i < cold_n; ++i) {
      const scap::ref::ScenarioSetup fresh =
          scap::ref::materialize_scenario(recipe);
      inproc_request(fresh, workload[0][i % opt.requests]);
    }
    const double cold_ms = ms_between(cold_t0, Clock::now());
    const double cold_pps =
        cold_ms > 0.0
            ? static_cast<double>(cold_n * opt.patterns) * 1e3 / cold_ms
            : 0.0;

    const double speedup = warm_pps > 0.0 ? served_pps / warm_pps : 0.0;
    scap::obs::observe("serve.client.inproc_patterns_per_sec", warm_pps);
    scap::obs::observe("serve.client.inproc_cold_patterns_per_sec", cold_pps);
    scap::obs::observe("serve.client.vs_inproc_speedup", speedup);
    report.phases.push_back(
        {"baseline", ms_between(base_t0, Clock::now()),
         scap::obs::Registry::global().snapshot_and_reset()});

    std::cout << "[baseline] in-process warm " << warm_pps
              << " patterns/sec, cold " << cold_pps
              << " patterns/sec; served/warm speedup = " << speedup << "\n";
  }

  const std::string path = scap::obs::bench_artifact_path(opt.label);
  if (!scap::obs::write_file(path, scap::obs::to_json(report))) {
    std::cerr << "scap_bench_client: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "[artifact] " << path << "\n";

  return total.ok > 0 ? 0 : 1;
}
