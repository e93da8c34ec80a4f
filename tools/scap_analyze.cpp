// scap_analyze -- dataflow-fact dump.
//
// Runs the lint subsystem's dataflow engine (SCOAP controllability /
// observability, constant inference, levelization) over the generated SOC
// and reports the facts as JSON or text: design size and depth, per-net cost
// distributions and untestable-net counts. The primary inputs are held at
// the tester constants of a domain-0 test context.
//
// Exit codes: 0 = ok, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "atpg/context.h"
#include "lint/dataflow.h"
#include "obs/json.h"
#include "soc/generator.h"
#include "util/stats.h"
#include "util/version.h"

namespace {

using namespace scap;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --soc-scale S    analyze the generated SOC at scale S "
               "(default 0.1)\n"
               "  --seed N         SOC generator seed (default 2007)\n"
               "  --format FMT     text | json (default text)\n"
               "  --output FILE    write the report to FILE (default "
               "stdout)\n",
               argv0);
  return 2;
}

/// log2-bucketed histogram of the finite SCOAP costs plus summary stats.
struct CostProfile {
  static constexpr std::size_t kBuckets = 24;  // [2^k, 2^(k+1)) cost buckets
  std::vector<std::size_t> hist = std::vector<std::size_t>(kBuckets, 0);
  std::size_t finite = 0;
  std::size_t infinite = 0;
  RunningStats stats;

  void add(std::uint32_t cost) {
    if (cost == lint::kInfCost) {
      ++infinite;
      return;
    }
    ++finite;
    stats.add(static_cast<double>(cost));
    std::size_t b = 0;
    for (std::uint32_t c = cost; c > 1 && b + 1 < kBuckets; c >>= 1) ++b;
    ++hist[b];
  }
};

void append_stats(std::string& out, const RunningStats& s) {
  out += "{\"count\":";
  obs::json::append_number(out, static_cast<double>(s.count()));
  out += ",\"mean\":";
  obs::json::append_number(out, s.count() ? s.mean() : 0.0);
  out += ",\"min\":";
  obs::json::append_number(out, s.count() ? s.min() : 0.0);
  out += ",\"max\":";
  obs::json::append_number(out, s.count() ? s.max() : 0.0);
  out += "}";
}

void append_cost_profile(std::string& out, const char* key,
                         const CostProfile& p) {
  out += "\"";
  out += key;
  out += "\":{\"finite\":";
  obs::json::append_number(out, static_cast<double>(p.finite));
  out += ",\"infinite\":";
  obs::json::append_number(out, static_cast<double>(p.infinite));
  out += ",\"stats\":";
  append_stats(out, p.stats);
  out += ",\"log2_hist\":[";
  for (std::size_t b = 0; b < CostProfile::kBuckets; ++b) {
    if (b) out += ',';
    obs::json::append_number(out, static_cast<double>(p.hist[b]));
  }
  out += "]}";
}

void print_cost_profile(std::string& out, const char* name,
                        const CostProfile& p) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "  %-4s finite %zu (mean %.1f, max %.0f), unreachable %zu\n",
                name, p.finite, p.stats.count() ? p.stats.mean() : 0.0,
                p.stats.count() ? p.stats.max() : 0.0, p.infinite);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  double soc_scale = 0.1;
  std::uint64_t seed = 2007;
  std::string format = "text";
  std::string output_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--soc-scale") {
      soc_scale = std::atof(value());
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--format") {
      format = value();
    } else if (arg == "--output") {
      output_path = value();
    } else if (arg == "--version") {
      std::printf("scap_analyze %s\n", scap::kVersion);
      return 0;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "%s: bad --format '%s'\n", argv[0], format.c_str());
    return 2;
  }

  SocConfig sc = SocConfig::turbo_eagle_scaled(soc_scale);
  sc.seed = seed;
  const TechLibrary& lib = TechLibrary::generic180();
  const SocDesign soc = build_soc(sc, lib);
  const Netlist& nl = soc.netlist;

  // The held primary-input values are the same for every launch scheme.
  const TestContext ctx = TestContext::for_domain(nl, 0);
  lint::DataflowOptions opt;
  opt.pi_values = ctx.pi_values;
  const lint::DataflowFacts facts = lint::analyze_dataflow(nl, opt);
  CostProfile cc0, cc1, co;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    cc0.add(facts.cc0[n]);
    cc1.add(facts.cc1[n]);
    co.add(facts.co[n]);
  }

  std::string out;
  if (format == "json") {
    out += "{\"tool\":\"scap_analyze\",\"design\":{\"scale\":";
    obs::json::append_number(out, soc_scale);
    out += ",\"seed\":";
    obs::json::append_number(out, static_cast<double>(seed));
    out += ",\"nets\":";
    obs::json::append_number(out, static_cast<double>(nl.num_nets()));
    out += ",\"gates\":";
    obs::json::append_number(out, static_cast<double>(nl.num_gates()));
    out += ",\"flops\":";
    obs::json::append_number(out, static_cast<double>(nl.num_flops()));
    out += ",\"blocks\":";
    obs::json::append_number(out, static_cast<double>(nl.block_count()));
    out += ",\"max_level\":";
    obs::json::append_number(out,
                             static_cast<double>(facts.levels.max_level));
    out += ",\"cyclic_gates\":";
    obs::json::append_number(out,
                             static_cast<double>(facts.levels.cyclic_gates));
    out += "},\"dataflow\":{\"constant_nets\":";
    obs::json::append_number(out, static_cast<double>(facts.constant_nets));
    out += ",\"uncontrollable_nets\":";
    obs::json::append_number(out,
                             static_cast<double>(facts.uncontrollable_nets));
    out += ",\"unobservable_nets\":";
    obs::json::append_number(out,
                             static_cast<double>(facts.unobservable_nets));
    out += ",";
    append_cost_profile(out, "cc0", cc0);
    out += ",";
    append_cost_profile(out, "cc1", cc1);
    out += ",";
    append_cost_profile(out, "co", co);
    out += "}}";
  } else {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "design: scale %.3f seed %llu: %zu nets, %zu gates, %zu "
                  "flops, %u blocks, depth %u\n",
                  soc_scale, static_cast<unsigned long long>(seed),
                  nl.num_nets(), nl.num_gates(), nl.num_flops(),
                  static_cast<unsigned>(nl.block_count()),
                  facts.levels.max_level);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "dataflow: %zu constant, %zu uncontrollable, %zu "
                  "unobservable net(s), %zu cyclic gate(s)\n",
                  facts.constant_nets, facts.uncontrollable_nets,
                  facts.unobservable_nets, facts.levels.cyclic_gates);
    out += buf;
    print_cost_profile(out, "cc0", cc0);
    print_cost_profile(out, "cc1", cc1);
    print_cost_profile(out, "co", co);
  }

  if (output_path.empty()) {
    std::cout << out;
    if (!out.empty() && out.back() != '\n') std::cout << '\n';
  } else {
    std::ofstream os(output_path, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   output_path.c_str());
      return 2;
    }
    os << out;
  }
  return 0;
}
