// Coverage-driven transition-fault ATPG.
//
// The engine mirrors how the commercial tool the paper wraps behaves:
//  - greedy dynamic compaction packs as many faults as possible into each
//    pattern (so early patterns have few don't-care bits and X-density grows
//    toward the tail -- the effect Section 3.1 works around),
//  - don't-care bits are filled per the selected mode (random-fill boosts
//    fortuitous detection and, as the paper shows, switching activity),
//  - bit-parallel fault simulation with dropping (FaultSimulator::grade over
//    each buffered 64-pattern batch) confirms detections and builds the
//    cumulative coverage curve (Figure 4),
//  - a fault with no combinational path to a capturing flop is classified
//    untestable before any search (observable_nets()), as the commercial
//    tool reports such faults ATPG-untestable without searching them.
//
// A fault-status vector can be threaded through successive run() calls,
// which is how the paper's multi-step per-block-subset flow (Step1: B1-B4,
// Step2: B6, Step3: B5) is expressed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "atpg/pattern.h"
#include "atpg/podem.h"
#include "netlist/netlist.h"
#include "util/rng.h"

namespace scap {

enum class FaultStatus : std::uint8_t {
  kUndetected,
  kDetected,
  kUntestable,
  kAborted,
};

struct AtpgOptions {
  FillMode fill = FillMode::kRandom;
  /// Per-block fill override (at least block-count entries; run() throws
  /// std::invalid_argument on fewer); empty = uniform `fill`.
  std::vector<FillMode> per_block_fill;
  /// Per-block targeting mask (1 = faults of this block are primary targets);
  /// empty = target everything. Untargeted faults still drop fortuitously.
  std::vector<std::uint8_t> target_blocks;
  std::uint32_t backtrack_limit = 64;
  /// Dynamic compaction: max secondary faults merged into one pattern and
  /// max candidates scanned while trying.
  std::uint32_t compaction_limit = 16;
  std::uint32_t compaction_scan = 48;
  /// Per-block care-bit budget: stop packing more faults into a pattern once
  /// any block has more than this fraction of its flops at care values.
  /// This is the "option to limit the maximum number of faults targeted by a
  /// pattern in each block to keep the switching activity lower" that the
  /// paper wished its commercial tool had (Section 3.1); 1.0 disables it.
  double max_block_care_fraction = 1.0;
  std::uint64_t seed = 0x7e57ull;
  /// Scan-chain orders for fill-adjacent (optional).
  const std::vector<std::vector<FlopId>>* chains = nullptr;
};

struct AtpgStats {
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;

  double fault_coverage() const {
    return total_faults ? static_cast<double>(detected) / total_faults : 0.0;
  }
  double test_coverage() const {
    const std::size_t testable = total_faults - untestable;
    return testable ? static_cast<double>(detected) / testable : 0.0;
  }
};

struct AtpgResult {
  PatternSet patterns;
  AtpgStats stats;
  /// Faults first-detected by each pattern (cumsum = the coverage curve).
  std::vector<std::size_t> new_detects_per_pattern;
  /// ATPG care bits per pattern, before fill (X-density diagnostics).
  std::vector<std::size_t> care_bits_per_pattern;
};

class AtpgEngine {
 public:
  AtpgEngine(const Netlist& nl, const TestContext& ctx)
      : nl_(&nl), ctx_(&ctx) {}

  /// Generate patterns for every targeted, still-undetected fault in
  /// `faults`. If `status` is non-null it seeds and receives per-fault
  /// results (multi-step flows); otherwise all faults start undetected.
  AtpgResult run(std::span<const TdfFault> faults, const AtpgOptions& opt,
                 std::vector<FaultStatus>* status = nullptr);

 private:
  const Netlist* nl_;
  const TestContext* ctx_;
};

}  // namespace scap
