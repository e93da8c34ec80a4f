#include "atpg/pattern.h"

#include <stdexcept>

#include "rt/parallel.h"

namespace scap {

const char* fill_mode_name(FillMode m) {
  switch (m) {
    case FillMode::kRandom:
      return "random-fill";
    case FillMode::kFill0:
      return "fill-0";
    case FillMode::kFill1:
      return "fill-1";
    case FillMode::kAdjacent:
      return "fill-adjacent";
    case FillMode::kQuiet:
      return "fill-quiet";
  }
  return "?";
}

namespace {

void fill_adjacent_chain(std::span<const FlopId> chain,
                         std::span<std::uint8_t> bits) {
  // Forward pass: copy the nearest preceding care value.
  std::uint8_t last = kBitX;
  for (FlopId f : chain) {
    if (bits[f] != kBitX) {
      last = bits[f];
    } else if (last != kBitX) {
      bits[f] = last;
    }
  }
  // Backward pass for a leading X run; all-X chains become 0.
  last = 0;
  for (std::size_t i = chain.size(); i-- > 0;) {
    const FlopId f = chain[i];
    if (bits[f] != kBitX) {
      last = bits[f];
    } else {
      bits[f] = last;
    }
  }
}

void fill_subset(std::span<std::uint8_t> bits, FillMode mode, Rng& rng,
                 std::span<const std::vector<FlopId>> chains,
                 std::span<const std::uint8_t> quiet_state,
                 const std::vector<std::uint8_t>* member) {
  auto in_subset = [&](FlopId f) {
    return member == nullptr || (*member)[f] != 0;
  };
  switch (mode) {
    case FillMode::kRandom:
      for (FlopId f = 0; f < bits.size(); ++f) {
        if (bits[f] == kBitX && in_subset(f)) {
          bits[f] = static_cast<std::uint8_t>(rng.below(2));
        }
      }
      break;
    case FillMode::kFill0:
    case FillMode::kFill1: {
      const std::uint8_t v = mode == FillMode::kFill1 ? 1 : 0;
      for (FlopId f = 0; f < bits.size(); ++f) {
        if (bits[f] == kBitX && in_subset(f)) bits[f] = v;
      }
      break;
    }
    case FillMode::kQuiet: {
      // A longer state is fine (the engine's covers the LOS scan-in bits).
      if (quiet_state.size() < bits.size()) {
        throw std::invalid_argument(
            "quiet fill: quiet state shorter than the pattern it fills");
      }
      for (FlopId f = 0; f < bits.size(); ++f) {
        if (bits[f] == kBitX && in_subset(f)) bits[f] = quiet_state[f];
      }
      break;
    }
    case FillMode::kAdjacent: {
      if (member != nullptr) {
        // Adjacent fill within a subset: restrict each chain to its members.
        for (const auto& chain : chains) {
          std::vector<FlopId> sub;
          for (FlopId f : chain) {
            if (in_subset(f)) sub.push_back(f);
          }
          fill_adjacent_chain(sub, bits);
        }
      } else {
        for (const auto& chain : chains) fill_adjacent_chain(chain, bits);
      }
      break;
    }
  }
}

std::vector<std::vector<FlopId>> identity_chain(std::size_t n) {
  std::vector<std::vector<FlopId>> chains(1);
  chains[0].resize(n);
  for (FlopId f = 0; f < n; ++f) chains[0][f] = f;
  return chains;
}

}  // namespace

Pattern apply_fill(const TestCube& cube, FillMode mode, Rng& rng,
                   std::span<const std::vector<FlopId>> chains,
                   std::span<const std::uint8_t> quiet_state) {
  Pattern p;
  p.s1 = cube.s1;
  std::vector<std::vector<FlopId>> fallback;
  if (mode == FillMode::kAdjacent && chains.empty()) {
    fallback = identity_chain(cube.s1.size());
    chains = fallback;
  }
  fill_subset(p.s1, mode, rng, chains, quiet_state, nullptr);
  return p;
}

Pattern apply_fill_per_block(const Netlist& nl, const TestCube& cube,
                             std::span<const FillMode> block_modes, Rng& rng,
                             std::span<const std::vector<FlopId>> chains,
                             std::span<const std::uint8_t> quiet_state) {
  if (block_modes.size() < nl.block_count()) {
    throw std::invalid_argument(
        "apply_fill_per_block: fewer block modes than netlist blocks");
  }
  Pattern p;
  p.s1 = cube.s1;
  std::vector<std::vector<FlopId>> fallback;
  if (chains.empty()) {
    fallback = identity_chain(cube.s1.size());
    chains = fallback;
  }
  std::vector<std::uint8_t> member(nl.num_flops(), 0);
  for (BlockId b = 0; b < nl.block_count(); ++b) {
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      member[f] = nl.flop(f).block == b ? 1 : 0;
    }
    fill_subset(p.s1, block_modes[b], rng, chains, quiet_state, &member);
  }
  return p;
}

PatternSet random_pattern_set(std::size_t n, std::size_t num_vars,
                              std::uint64_t seed) {
  // One jump stream per block of kBlock patterns: the stream a pattern draws
  // from depends only on its index, so the parallel grain below MUST stay
  // kBlock (chunk == stream granularity) for thread-count invariance.
  constexpr std::size_t kBlock = 16;
  PatternSet set;
  set.patterns.resize(n);
  rt::parallel_for(
      n, kBlock,
      [&](std::size_t begin, std::size_t end) {
        Rng rng = Rng::stream(seed, begin / kBlock);
        for (std::size_t p = begin; p < end; ++p) {
          Pattern& pat = set.patterns[p];
          pat.s1.resize(num_vars);
          for (auto& bit : pat.s1) {
            bit = static_cast<std::uint8_t>(rng() & 1);
          }
        }
      });
  return set;
}

}  // namespace scap
