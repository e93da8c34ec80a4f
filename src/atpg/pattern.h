// Scan test patterns and don't-care fill.
//
// A launch-off-capture pattern is fully described by the scanned-in state S1
// (primary inputs are held constant and primary outputs are not strobed, per
// the paper's low-cost tester constraints); the launch pulse derives S2
// functionally and the capture pulse samples the response.
//
// ATPG produces cubes (S1 with don't-care bits); fill turns a cube into a
// tester-ready pattern. The four modes mirror the TetraMAX options the paper
// evaluates -- random-fill (coverage-greedy, power-hungry), fill-0 / fill-1,
// and fill-adjacent -- plus the per-block fill the paper wishes for in
// Section 3.1 ("a more ideal scenario would be that the ATPG tool provides
// different fill options for don't-care bits in different blocks"), which
// this library implements natively.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "util/rng.h"

namespace scap {

inline constexpr std::uint8_t kBitX = 2;  ///< don't-care marker in cubes

struct TestCube {
  /// Per test variable: 0, 1, or kBitX. For LOC this is one bit per flop
  /// (the scanned state S1); for LOS it is followed by one launch scan-in
  /// bit per chain (see TestContext::num_vars()).
  std::vector<std::uint8_t> s1;

  std::size_t care_bits() const {
    std::size_t n = 0;
    for (auto b : s1) n += (b != kBitX);
    return n;
  }
  std::size_t x_bits() const { return s1.size() - care_bits(); }
};

struct Pattern {
  std::vector<std::uint8_t> s1;  ///< fully specified test variables
};

struct PatternSet {
  DomainId domain = 0;
  std::vector<Pattern> patterns;
  std::size_t size() const { return patterns.size(); }
};

enum class FillMode : std::uint8_t {
  kRandom,
  kFill0,
  kFill1,
  kAdjacent,
  kQuiet,  ///< fill from a precomputed low-launch-activity state
};

const char* fill_mode_name(FillMode m);

/// Fill a cube's don't-care bits. For kAdjacent, chains gives scan-chain
/// orders (each a shift-ordered flop list); X cells copy the value of the
/// nearest preceding care cell in their chain (falling back to the nearest
/// following one, then 0). If chains is empty, flop-id order is used as one
/// virtual chain. kQuiet copies quiet_state[v] into each X bit v; it throws
/// std::invalid_argument when quiet_state is shorter than the cube (longer
/// is fine).
Pattern apply_fill(const TestCube& cube, FillMode mode, Rng& rng,
                   std::span<const std::vector<FlopId>> chains = {},
                   std::span<const std::uint8_t> quiet_state = {});

/// Per-block fill: block_modes[b] selects the mode for flops of block b.
/// Throws std::invalid_argument when block_modes has fewer entries than the
/// netlist has blocks, or, as apply_fill, on a short quiet_state.
Pattern apply_fill_per_block(const Netlist& nl, const TestCube& cube,
                             std::span<const FillMode> block_modes, Rng& rng,
                             std::span<const std::vector<FlopId>> chains = {},
                             std::span<const std::uint8_t> quiet_state = {});

/// Fully random pattern set (bulk fill for SCAP screening workloads):
/// n patterns of num_vars bits, filled in parallel with one xoshiro jump
/// stream (Rng::stream) per fixed-size pattern block. The result is a pure
/// function of (n, num_vars, seed) -- identical at any SCAP_THREADS.
PatternSet random_pattern_set(std::size_t n, std::size_t num_vars,
                              std::uint64_t seed);

}  // namespace scap
