#include "atpg/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "atpg/quiet_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/thread_pool.h"

namespace scap {
namespace {

/// Primary targets prefetched per pool lane.
constexpr std::size_t kWindowPerLane = 4;

/// One speculative PODEM call: its outcome and the work it took, which the
/// engine counts only if it commits the call.
struct Search {
  PodemStatus status = PodemStatus::kAborted;
  TestCube cube;
  std::uint64_t implications = 0;
  std::uint64_t backtracks = 0;
  bool hit_limit = false;  ///< stopped at the backtrack limit
};

/// Run `call(podem, k)` for k in [0, n) on the pool, one Podem replica per
/// lane, into out[k]. Lanes claim indices in increasing order. With
/// `stop_at_hit`, no lane claims an index past a detected result; every
/// index up to the first detection in index order is still searched, so the
/// prefix a serial scan would commit is complete.
template <typename Call>
void speculate(rt::ThreadPool& pool, std::vector<Podem>& lanes, std::size_t n,
               bool stop_at_hit, std::vector<Search>& out, const Call& call) {
  out.resize(std::max(out.size(), n));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> first_hit{n};
  pool.run_chunked(std::min(lanes.size(), n), [&](std::size_t lane) {
    Podem& podem = lanes[lane];
    for (;;) {
      const std::size_t k = next++;
      if (k >= n || k > first_hit) return;
      Search& s = out[k];
      const std::uint64_t impl0 = podem.implications();
      const std::uint64_t bt0 = podem.backtracks();
      const std::uint64_t lim0 = podem.limit_aborts();
      s.status = call(podem, k, s.cube);
      s.implications = podem.implications() - impl0;
      s.backtracks = podem.backtracks() - bt0;
      s.hit_limit = podem.limit_aborts() != lim0;
      if (stop_at_hit && s.status == PodemStatus::kDetected) {
        std::size_t cur = first_hit;
        while (k < cur && !first_hit.compare_exchange_weak(cur, k)) {
        }
      }
    }
  });
}

}  // namespace

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

  // A fault already tried as a primary target or merged this run (avoid
  // rework while its pattern sits in the unsimulated buffer). A fault never
  // becomes eligible again once it is tried or no longer undetected.
  std::vector<std::uint8_t> tried(faults.size(), 0);
  auto eligible = [&](std::size_t i) {
    return targetable[i] && !tried[i] && st[i] == FaultStatus::kUndetected;
  };

  // One PODEM replica per pool lane. Every call is a pure function of
  // (assignment, fault, seed), so searches run speculatively on any lane and
  // the engine commits them in fault-list order: patterns, statuses and the
  // committed counts below are identical at every pool size.
  // The replicas share one set of read-only topology tables.
  const std::shared_ptr<rt::ThreadPool> pool = rt::ThreadPool::global();
  const std::shared_ptr<const PodemTables> tables = Podem::tables(nl, *ctx_);
  std::vector<Podem> lanes;
  lanes.reserve(pool->concurrency());
  for (std::size_t l = 0; l < pool->concurrency(); ++l) {
    lanes.emplace_back(tables, PodemOptions{opt.backtrack_limit, opt.seed});
  }
  std::uint64_t podem_generates = 0, podem_extends = 0;
  std::uint64_t implications = 0, backtracks = 0;
  // Committed calls that stopped at the backtrack limit, and their work.
  std::uint64_t limit_generates = 0, limit_extends = 0;
  std::uint64_t limit_implications = 0;
  auto count_work = [&](const Search& s, std::uint64_t& limit_calls) {
    implications += s.implications;
    backtracks += s.backtracks;
    if (s.hit_limit) {
      ++limit_calls;
      limit_implications += s.implications;
    }
  };

  FaultSimulator fsim(nl, *ctx_);
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

  // Fill mode of each launch variable past the flop bits (LOS scan-in,
  // enhanced-scan V2): under per-block fill, the mode of the block of the
  // flop it launches.
  std::vector<FillMode> launch_fill(ctx_->num_vars() - nl.num_flops(),
                                    opt.fill);
  if (!opt.per_block_fill.empty()) {
    for (FlopId f = 0; f < ctx_->los_pred.size(); ++f) {
      if (ctx_->los_pred[f] < nl.num_flops()) continue;
      launch_fill[ctx_->los_pred[f] - nl.num_flops()] =
          opt.per_block_fill[nl.flop(f).block];
    }
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
    // Launch variables still X: random draws, fill-1 sets 1, quiet takes
    // the quiet state, and the rest use 0, the conventional scan-in idle
    // value (adjacent fill has no defined source here).
    for (std::size_t v = nl.num_flops(); v < p.s1.size(); ++v) {
      if (p.s1[v] != kBitX) continue;
      switch (launch_fill[v - nl.num_flops()]) {
        case FillMode::kRandom:
          p.s1[v] = static_cast<std::uint8_t>(rng.below(2));
          break;
        case FillMode::kFill1:
          p.s1[v] = 1;
          break;
        case FillMode::kQuiet:
          p.s1[v] = quiet[v];
          break;
        default:
          p.s1[v] = 0;
      }
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

  // Main loop: sweep the fault list in windows of eligible primary targets,
  // generating every window's cubes speculatively and committing them in
  // order; a target merged or dropped since the prefetch is skipped. Each
  // committed cube is compacted and buffered; buffers of 64 are simulated
  // with dropping.
  std::vector<std::size_t> window, cands;
  std::vector<Search> generated, extended;
  std::size_t cursor = 0;
  for (;;) {
    window.clear();
    for (; cursor < faults.size() &&
           window.size() < kWindowPerLane * lanes.size();
         ++cursor) {
      if (eligible(cursor)) window.push_back(cursor);
    }
    if (window.empty()) break;
    speculate(*pool, lanes, window.size(), /*stop_at_hit=*/false, generated,
              [&](Podem& podem, std::size_t k, TestCube& out) {
                return podem.generate(faults[window[k]], out);
              });

    for (std::size_t w = 0; w < window.size(); ++w) {
      const std::size_t target = window[w];
      if (!eligible(target)) continue;
      tried[target] = 1;
      ++podem_generates;
      count_work(generated[w], limit_generates);
      const PodemStatus ps = generated[w].status;
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
      TestCube cube = std::move(generated[w].cube);

      // Dynamic compaction: try to pack the next undetected targets in as
      // well, under the per-block care-bit budget (rechecked only when a
      // merge changes the cube). Each round searches the remaining
      // candidates against the current cube; the first success in candidate
      // order wins, after every earlier candidate failed against that same
      // cube -- exactly what a serial scan sees. Searches past the winner are
      // discarded and re-run against the merged cube.
      cands.clear();
      for (std::size_t j = target + 1;
           j < faults.size() && cands.size() < opt.compaction_scan; ++j) {
        if (eligible(j)) cands.push_back(j);
      }
      std::uint32_t merged = 0;
      std::size_t scanned = 0;
      bool budget_ok = within_care_budget(cube);
      while (scanned < cands.size() && merged < opt.compaction_limit &&
             budget_ok) {
        const std::size_t base = scanned;
        speculate(*pool, lanes, cands.size() - base, /*stop_at_hit=*/true,
                  extended, [&](Podem& podem, std::size_t k, TestCube& out) {
                    podem.adopt(cube);
                    return podem.extend(faults[cands[base + k]], out);
                  });
        for (std::size_t k = 0; base + k < cands.size(); ++k) {
          ++scanned;
          ++podem_extends;
          count_work(extended[k], limit_extends);
          if (extended[k].status != PodemStatus::kDetected) continue;
          cube = std::move(extended[k].cube);
          tried[cands[base + k]] = 1;
          ++merged;
          ++run_merges;
          budget_ok = within_care_budget(cube);
          break;
        }
      }

      buffer_care_bits.push_back(cube.care_bits());
      buffer.push_back(fill_cube(cube));
      // Every targeted fault whose fill already covers it will drop at
      // flush.
      if (buffer.size() == 64) flush_buffer();
    }
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
  obs::count("atpg.podem_generates", podem_generates);
  obs::count("atpg.podem_extends", podem_extends);
  obs::count("atpg.implications", implications);
  obs::count("atpg.backtracks", backtracks);
  obs::count("atpg.limit_generates", limit_generates);
  obs::count("atpg.limit_extends", limit_extends);
  obs::count("atpg.limit_implications", limit_implications);
  obs::count("atpg.patterns", result.patterns.size());
  obs::count("atpg.compaction_merges", run_merges);
  obs::count("atpg.detected_faults", run_detected);
  obs::count("atpg.aborted_faults", run_aborted);
  obs::count("atpg.untestable_faults", run_untestable);
  obs::count("atpg.static_untestable", run_static_untestable);
  return result;
}

}  // namespace scap
