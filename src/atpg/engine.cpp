#include "atpg/engine.h"

#include <algorithm>
#include <stdexcept>

#include "atpg/quiet_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap {

AtpgResult AtpgEngine::run(std::span<const TdfFault> faults,
                           const AtpgOptions& opt,
                           std::vector<FaultStatus>* status) {
  SCAP_TRACE_SCOPE("atpg.run");
  if (!opt.per_block_fill.empty() &&
      opt.per_block_fill.size() < nl_->block_count()) {
    throw std::invalid_argument(
        "AtpgEngine: per_block_fill needs one entry per block");
  }
  // This run's own outcomes (status may arrive pre-seeded by earlier steps).
  std::uint64_t run_detected = 0, run_aborted = 0, run_untestable = 0;
  std::uint64_t run_merges = 0;
  const Netlist& nl = *nl_;
  AtpgResult result;
  result.patterns.domain = ctx_->domain;

  std::vector<FaultStatus> local_status;
  std::vector<FaultStatus>& st = status ? *status : local_status;
  if (st.size() != faults.size()) {
    st.assign(faults.size(), FaultStatus::kUndetected);
  }

  // Which faults may serve as primary PODEM targets this run.
  std::vector<std::uint8_t> targetable(faults.size(), 1);
  if (!opt.target_blocks.empty()) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const BlockId b = fault_block(nl, faults[i]);
      targetable[i] =
          b < opt.target_blocks.size() ? opt.target_blocks[b] : 0;
    }
  }
  // Static classification: a targetable open fault that no pattern can
  // observe is untestable without search, and so never takes a compaction
  // scan slot either.
  const std::vector<std::uint8_t> observable = observable_nets(nl, *ctx_);
  std::uint64_t run_static_untestable = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (targetable[i] && st[i] == FaultStatus::kUndetected &&
        statically_unobservable(nl, *ctx_, observable, faults[i])) {
      st[i] = FaultStatus::kUntestable;
      ++run_static_untestable;
    }
  }
  run_untestable += run_static_untestable;

  // A fault already tried as a primary target this run (avoid rework while
  // its pattern sits in the unsimulated buffer).
  std::vector<std::uint8_t> tried(faults.size(), 0);

  Podem podem(nl, *ctx_, PodemOptions{opt.backtrack_limit});
  FaultSimulator fsim(nl, *ctx_);
  fsim.set_batch_words(1);  // one 64-pattern buffer per grade() block
  Rng rng(opt.seed);

  std::span<const std::vector<FlopId>> chains;
  if (opt.chains) chains = *opt.chains;

  // Quiet-state fill needs the idle state; compute it once if any mode asks.
  std::vector<std::uint8_t> quiet;
  bool wants_quiet = opt.fill == FillMode::kQuiet;
  for (FillMode m : opt.per_block_fill) wants_quiet |= (m == FillMode::kQuiet);
  if (wants_quiet) {
    quiet = compute_quiet_state(nl, *ctx_).s1;
    quiet.resize(ctx_->num_vars(), 0);  // LOS scan-in bits idle at 0
  }

  auto fill_cube = [&](const TestCube& cube) -> Pattern {
    Pattern p;
    if (!opt.per_block_fill.empty()) {
      // Per-block fill covers the flop bits; LOS scan-in tail handled below.
      TestCube flop_part;
      flop_part.s1.assign(cube.s1.begin(),
                          cube.s1.begin() + static_cast<std::ptrdiff_t>(
                                                nl.num_flops()));
      p = apply_fill_per_block(nl, flop_part, opt.per_block_fill, rng, chains,
                               quiet);
      p.s1.insert(p.s1.end(),
                  cube.s1.begin() + static_cast<std::ptrdiff_t>(nl.num_flops()),
                  cube.s1.end());
    } else {
      p = apply_fill(cube, opt.fill, rng, chains, quiet);
    }
    // LOS scan-in bits: quiet/adjacent have no defined source; use 0 (the
    // conventional scan-in idle value) unless randomized.
    for (std::size_t v = nl.num_flops(); v < p.s1.size(); ++v) {
      if (p.s1[v] != kBitX) continue;
      p.s1[v] = opt.fill == FillMode::kRandom
                    ? static_cast<std::uint8_t>(rng.below(2))
                    : (opt.fill == FillMode::kFill1 ? 1 : 0);
    }
    return p;
  };

  // Per-block care-bit budget for dynamic compaction.
  std::vector<std::size_t> block_flops(nl.block_count(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) ++block_flops[nl.flop(f).block];
  std::vector<std::size_t> block_care(nl.block_count());
  auto within_care_budget = [&](const TestCube& c) {
    if (opt.max_block_care_fraction >= 1.0) return true;
    std::fill(block_care.begin(), block_care.end(), 0);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (c.s1[f] != kBitX) ++block_care[nl.flop(f).block];
    }
    for (BlockId b = 0; b < nl.block_count(); ++b) {
      if (block_flops[b] == 0) continue;
      const double frac = static_cast<double>(block_care[b]) /
                          static_cast<double>(block_flops[b]);
      if (frac > opt.max_block_care_fraction) return false;
    }
    return true;
  };

  std::vector<Pattern> buffer;
  std::vector<std::size_t> buffer_care_bits;
  std::vector<TdfFault> open_faults;
  std::vector<std::size_t> open_index;
  std::vector<std::size_t> buffer_detects;

  // Fault dropping: grade the buffered patterns against every still-open
  // fault (undetected or aborted) and credit each detection to its first
  // detecting pattern.
  auto flush_buffer = [&]() {
    if (buffer.empty()) return;
    {
      SCAP_TRACE_SCOPE("faultsim.batch");
      open_faults.clear();
      open_index.clear();
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (st[i] == FaultStatus::kUndetected ||
            st[i] == FaultStatus::kAborted) {
          open_faults.push_back(faults[i]);
          open_index.push_back(i);
        }
      }
      const std::vector<std::size_t> first =
          fsim.grade(buffer, open_faults, &buffer_detects);
      for (std::size_t k = 0; k < first.size(); ++k) {
        if (first[k] == FaultSimulator::kUndetected) continue;
        st[open_index[k]] = FaultStatus::kDetected;
        ++run_detected;
      }
    }
    result.new_detects_per_pattern.insert(result.new_detects_per_pattern.end(),
                                          buffer_detects.begin(),
                                          buffer_detects.end());
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      result.patterns.patterns.push_back(std::move(buffer[i]));
      result.care_bits_per_pattern.push_back(buffer_care_bits[i]);
    }
    buffer.clear();
    buffer_care_bits.clear();
  };

  // Main loop: sweep the fault list, generating one pattern per remaining
  // primary target; simulate in batches of 64 with dropping.
  std::size_t cursor = 0;
  std::size_t remaining_scan = faults.size();
  while (remaining_scan > 0) {
    // Find the next primary target.
    std::size_t target = faults.size();
    while (remaining_scan > 0) {
      if (cursor == faults.size()) cursor = 0;
      const std::size_t i = cursor++;
      --remaining_scan;
      if (targetable[i] && !tried[i] && st[i] == FaultStatus::kUndetected) {
        target = i;
        break;
      }
    }
    if (target == faults.size()) break;
    tried[target] = 1;

    TestCube cube;
    const PodemStatus ps = podem.generate(faults[target], cube);
    if (ps == PodemStatus::kUntestable) {
      st[target] = FaultStatus::kUntestable;
      ++run_untestable;
      continue;
    }
    if (ps == PodemStatus::kAborted) {
      st[target] = FaultStatus::kAborted;
      ++run_aborted;
      continue;
    }

    // Dynamic compaction: try to pack nearby undetected targets in as well,
    // under the per-block care-bit budget (rechecked only when a merge
    // changes the cube).
    std::uint32_t merged = 0;
    std::uint32_t scanned = 0;
    bool budget_ok = within_care_budget(cube);
    for (std::size_t j = target + 1;
         j < faults.size() && merged < opt.compaction_limit &&
         scanned < opt.compaction_scan && budget_ok;
         ++j) {
      if (!targetable[j] || tried[j] || st[j] != FaultStatus::kUndetected) {
        continue;
      }
      ++scanned;
      TestCube merged_cube;
      if (podem.extend(faults[j], merged_cube) == PodemStatus::kDetected) {
        cube = std::move(merged_cube);
        tried[j] = 1;
        ++merged;
        ++run_merges;
        budget_ok = within_care_budget(cube);
      }
    }

    buffer_care_bits.push_back(cube.care_bits());
    buffer.push_back(fill_cube(cube));
    // Every targeted fault whose fill already covers it will drop at flush.
    if (buffer.size() == 64) flush_buffer();

    // After a flush the dropped faults free up the scan; rescan the list.
    remaining_scan = faults.size();
  }
  flush_buffer();

  result.stats.total_faults = faults.size();
  for (FaultStatus s : st) {
    switch (s) {
      case FaultStatus::kDetected:
        ++result.stats.detected;
        break;
      case FaultStatus::kUntestable:
        ++result.stats.untestable;
        break;
      case FaultStatus::kAborted:
        ++result.stats.aborted;
        break;
      case FaultStatus::kUndetected:
        break;
    }
  }
  obs::count("atpg.runs");
  obs::count("atpg.patterns", result.patterns.size());
  obs::count("atpg.compaction_merges", run_merges);
  obs::count("atpg.detected_faults", run_detected);
  obs::count("atpg.aborted_faults", run_aborted);
  obs::count("atpg.untestable_faults", run_untestable);
  obs::count("atpg.static_untestable", run_static_untestable);
  return result;
}

}  // namespace scap
