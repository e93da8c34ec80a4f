// Shared fixtures for the test suite: tiny hand-built netlists and cached
// generated SOCs (generation is deterministic, so caching is safe).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/fault_sim.h"
#include "core/pattern_sim.h"
#include "netlist/netlist.h"
#include "ref/trace.h"
#include "sim/event_sim.h"
#include "soc/generator.h"
#include "soc/soc_config.h"

namespace scap::test {

/// c17-style miniature: 2 NAND levels, 3 flops, 1 PI.
///
///   q0 --+                +--> d0 (= n1)
///        NAND2 -> n1 -----+
///   q1 --+            |
///                     +-NAND2 -> n2 --> d1, d2
///   pi0 ----------------+
inline Netlist tiny_netlist() {
  Netlist nl;
  nl.set_block_count(2);
  nl.set_domain_count(1);
  const NetId pi0 = nl.add_input("pi0");
  const NetId q0 = nl.add_net("q0");
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const NetId ins1[] = {q0, q1};
  nl.add_gate(CellType::kNand2, ins1, n1, /*block=*/0);
  const NetId ins2[] = {n1, pi0};
  nl.add_gate(CellType::kNand2, ins2, n2, /*block=*/1);
  nl.add_flop(/*d=*/n1, /*q=*/q0, /*domain=*/0, /*block=*/0);
  nl.add_flop(/*d=*/n2, /*q=*/q1, /*domain=*/0, /*block=*/1);
  nl.add_flop(/*d=*/n2, /*q=*/q2, /*domain=*/0, /*block=*/1);
  nl.finalize();
  return nl;
}

/// Cached tiny generated SOC (full physical design).
inline const SocDesign& tiny_soc() {
  static const SocDesign soc = build_soc(SocConfig::tiny(11));
  return soc;
}

/// Cached small-but-nontrivial SOC for integration tests.
inline const SocDesign& small_soc() {
  static const SocDesign soc = [] {
    SocConfig cfg = SocConfig::turbo_eagle_scaled(0.01);
    cfg.seed = 2007;
    return build_soc(cfg);
  }();
  return soc;
}

/// FNV-1a 64 over `bytes`, continuing from `h`: the digest the golden tests
/// pin search and pattern-set outputs with.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t h = kFnvBasis) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}
/// One integer folded in as its eight little-endian bytes.
inline std::uint64_t fnv1a(std::uint64_t v, std::uint64_t h) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(bytes, h);
}

/// Per-pattern detection masks from the production grader: bit i of
/// result[k] is set when patterns[i] alone detects faults[k] (at most 64
/// patterns; one FaultSimulator::grade call per pattern).
inline std::vector<std::uint64_t> detection_masks(
    FaultSimulator& fsim, std::span<const Pattern> patterns,
    std::span<const TdfFault> faults) {
  std::vector<std::uint64_t> masks(faults.size(), 0);
  for (std::size_t i = 0; i < patterns.size() && i < 64; ++i) {
    const std::vector<std::size_t> first =
        fsim.grade(patterns.subspan(i, 1), faults);
    for (std::size_t k = 0; k < faults.size(); ++k) {
      if (first[k] != FaultSimulator::kUndetected) masks[k] |= 1ull << i;
    }
  }
  return masks;
}

inline std::uint64_t detection_mask(FaultSimulator& fsim,
                                 std::span<const Pattern> patterns,
                                 const TdfFault& fault) {
  return detection_masks(fsim, patterns, std::span<const TdfFault>(&fault, 1))[0];
}

/// One production EventSim pass, recorded as a reference trace.
inline ref::SimTrace record_trace(const EventSim& sim,
                                  std::span<const std::uint8_t> initial,
                                  std::span<const Stimulus> stimuli) {
  EventSim::Workspace ws;
  ref::TraceRecorder rec;
  sim.run(initial, stimuli, ws, rec);
  return rec.take();
}

/// One nominal PatternAnalyzer pass, recorded as a reference trace; the
/// analyzer's frame1() / stimuli() describe the same pass afterwards.
inline ref::SimTrace record_trace(const PatternAnalyzer& analyzer,
                                  const TestContext& ctx,
                                  const Pattern& pattern) {
  ref::TraceRecorder rec;
  analyzer.analyze_into(ctx, pattern, rec);
  return rec.take();
}

}  // namespace scap::test
