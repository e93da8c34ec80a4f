// Bit-parallel transition-fault simulation with fault dropping.
//
// Patterns are packed 64*W to a block (W machine words per net, bit i of
// word w = pattern w*64+i; W is the batch width, 1/2/4). Evaluation runs on
// the struct-of-arrays LevelizedView (netlist/levelized_view.h) through
// BatchSim: one sweep over the flat (level, type)-sorted gate table per
// frame, with the cell dispatch inlined. The fault-free two-frame response
// of every block is computed exactly once per grade() call; each remaining
// fault is then propagated through its frame-2 fanout cone only
// (single-fault, 64 patterns per walk, block words in pattern order with
// early exit at the first detecting word), comparing faulty against good
// values and stopping as soon as the perturbation dies out. Detection requires the
// launch condition (frame-1 value v1, frame-2 fault-free value v2 at the
// site) and a captured difference at an active-domain scan flop.
//
// grade() is batch-major: the good blocks are computed first (in parallel,
// element-indexed), then fault shards walk them read-only with thread-
// private cone scratch. A fault's first-detect index is a pure function of
// the pattern order -- blocks in order, words in order, bits in pattern
// order -- so results are bit-identical at any SCAP_THREADS *and* at any
// batch width W (rt_determinism_test + batch_sim_test enforce both).
//
// grade() is the one fault-grading path: the ATPG engine drops faults by
// grading each buffered 64-pattern batch against its still-open faults, and
// standalone callers grade whole pattern sets (fault coverage).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "atpg/pattern.h"
#include "netlist/levelized_view.h"
#include "netlist/netlist.h"
#include "sim/batch_sim.h"

namespace scap {

namespace obs {
class Counter;
}

class FaultSimulator {
 public:
  /// Patterns per grade block = 64 * batch width. 4 words = 256 lanes per
  /// sweep, the widest compiled kernel (AVX2-sized).
  static constexpr std::size_t kDefaultBatchWords = 4;

  /// Runs on the netlist's own levelized view (Netlist::levelized_view());
  /// throws std::invalid_argument if the netlist is not finalized.
  FaultSimulator(const Netlist& nl, const TestContext& ctx);

  /// Batch width used by grade(), in 64-pattern machine words (1, 2 or 4;
  /// 0 resets to the default). Throws std::invalid_argument on other values.
  void set_batch_words(std::size_t words);
  std::size_t batch_words() const { return words_; }

  /// Simulate the pattern set against the fault list with dropping. Returns,
  /// per fault, the index of the first detecting pattern (or kUndetected);
  /// optionally fills per-pattern counts of first-detections (the
  /// coverage-curve increments). Throws std::invalid_argument on a pattern
  /// shorter than the context's test variables.
  ///
  /// Large runs shard the fault list across the rt thread pool; shards share
  /// the precomputed good blocks read-only and own only cone scratch, so the
  /// per-shard setup cost that used to scale with the thread count is gone.
  /// Per-fault results are independent of the sharding and of the batch
  /// width, so the output is bit-identical at any SCAP_THREADS and any W.
  static constexpr std::size_t kUndetected = static_cast<std::size_t>(-1);
  std::vector<std::size_t> grade(std::span<const Pattern> patterns,
                                 std::span<const TdfFault> faults,
                                 std::vector<std::size_t>* new_detects_per_pattern = nullptr);

 private:
  /// Fault-free two-frame response of one pattern block, in compact net ids.
  struct GoodBlock {
    std::size_t batch_size = 0;            ///< patterns in this block
    std::uint64_t lane_mask[kMaxBatchWords] = {};  ///< valid lanes per word
    std::vector<std::uint64_t> f1, g2;     ///< num_nets()*W words each
  };

  /// Reusable buffers for good-block computation (per parallel chunk).
  struct GoodScratch {
    std::vector<const std::uint8_t*> rows;
    std::vector<std::uint64_t> vars, s2;
    std::vector<std::uint64_t> pi;  ///< pi_words_ repeated per lane word
  };

  /// Thread-private cone-propagation scratch (epoch-stamped faulty values,
  /// level-bucketed worklist over schedule indices). The cone always walks
  /// one 64-pattern word at a time, so `faulty` is one word per net.
  struct ConeScratch {
    std::vector<std::uint64_t> faulty;  ///< one word per compact net
    std::vector<std::uint32_t> stamp;   ///< per compact net
    std::uint32_t epoch = 0;
    std::vector<std::vector<std::uint32_t>> buckets;  ///< by level
    std::vector<std::uint8_t> queued;   ///< per schedule slot
    // Locally accumulated faultsim.detect_masks / faultsim.events deltas;
    // flushed to the shared counters once per shard -- two atomic RMWs per
    // cone walk measurably contend at t>1.
    std::uint64_t walks = 0, evals = 0;
    void ensure(const LevelizedView& v);
    void flush_counters(obs::Counter* masks, obs::Counter* events);
  };

  /// Pack block `block` of `patterns` (W = sim.words()) and simulate both
  /// fault-free frames into `out`.
  void compute_good_block(const BatchSim& sim,
                          std::span<const Pattern> patterns, std::size_t block,
                          GoodBlock& out, GoodScratch& gs) const;

  /// Detection words for one fault over one good block; writes `words` words
  /// into `out`. Words are walked in pattern order with early exit at the
  /// first detecting word (later words stay zero); grade() only consumes the
  /// earliest detect bit, and the walked word sequence is the same at any
  /// batch width, which keeps results and counters W-invariant.
  bool detect_block(std::size_t words, const TdfFault& fault,
                    const GoodBlock& blk, ConeScratch& cs,
                    std::uint64_t* out) const;

  /// Frame-2 cone walk of the stuck-at-v1 perturbation for one 64-pattern
  /// word (values at net*stride + w in the block). Returns the detect mask.
  std::uint64_t cone_word(const TdfFault& fault, const GoodBlock& blk,
                          std::size_t w, std::size_t stride,
                          std::uint64_t launch, ConeScratch& cs) const;

  const TestContext* ctx_;
  std::shared_ptr<const LevelizedView> view_;
  std::size_t words_ = kDefaultBatchWords;

  /// PI values broadcast to full words (constant across lanes), one word per
  /// PI; eval paths repeat them per lane as needed.
  std::vector<std::uint64_t> pi_words_;
  std::vector<std::uint32_t> obs_weight_;  ///< active flop D loads, compact ids
  /// Static observability (observable_nets(), compact ids): nets with a
  /// combinational path to an active flop D. A fault whose site is not in
  /// this set can never be detected, so its launch check and cone walks are
  /// skipped outright -- a pure structural filter, identical at any thread
  /// count and batch width.
  std::vector<std::uint8_t> obs_reach_;

  // Cached instrumentation counters (registry lookups are too slow for the
  // per-fault hot path; registry entries are never invalidated).
  obs::Counter* batches_ctr_ = nullptr;
  obs::Counter* masks_ctr_ = nullptr;
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* replays_ctr_ = nullptr;
};

}  // namespace scap
