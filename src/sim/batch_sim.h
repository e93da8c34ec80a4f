// Levelized multi-word batch simulation: the two-valued zero-delay frame
// settle of every engine (fault grading, PatternAnalyzer's frame 1,
// compute_quiet_state).
//
// One sweep over the LevelizedView's (level, type)-sorted flat gate table
// evaluates W machine words per net (W = 1, 2 or 4 -> 64/128/256 patterns per
// pass) with the per-gate cell dispatch inlined into the loop. The W-lane
// inner bodies are plain bitwise ops over contiguous words, so they unroll
// and vectorize; on x86-64 hosts with AVX2 a runtime-dispatched kernel
// compiled with -mavx2 runs the same source at 256-bit width.
//
// Values live in *compact* net ids (LevelizedView renumbering), W words per
// net, lane-major: vals[net * W + w], bit p of word w = pattern w*64+p.
// Compact flop Q ids are 0..num_flops(), so a state vector of W words per
// flop is exactly the leading slice of a frame -- no scatter on load.
//
// Frame semantics: flop Q pins are pseudo primary inputs, D pins pseudo
// primary outputs. A broadside launch evaluates frame 1 from the scanned-in
// state S1, derives S2 = D(S1) (the functional response captured by the
// launch pulse), and evaluates frame 2 from S2. tests/batch_sim_test.cpp
// pins every width lane for lane against the reference fixpoint evaluator
// (ref::eval_frame_ref).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/levelized_view.h"

namespace scap {

/// Batch widths supported by the compiled kernels.
inline constexpr std::size_t kMaxBatchWords = 4;
constexpr bool valid_batch_words(std::size_t w) {
  return w == 1 || w == 2 || w == 4;
}

class BatchSim {
 public:
  /// `words` must satisfy valid_batch_words. The view is shared read-only;
  /// shards of a parallel engine copy the shared_ptr, not the tables.
  explicit BatchSim(std::shared_ptr<const LevelizedView> view,
                    std::size_t words = 1);

  const LevelizedView& view() const { return *view_; }
  std::size_t words() const { return words_; }
  std::size_t lanes() const { return words_ * 64; }

  /// Evaluate all nets from flop states (num_flops()*W words) and PI values
  /// (num_pis()*W words). net_values is resized to num_nets()*W; undriven
  /// non-PI nets evaluate to 0. Throws std::invalid_argument on other input
  /// sizes.
  void eval_frame(std::span<const std::uint64_t> flop_q,
                  std::span<const std::uint64_t> pi,
                  std::vector<std::uint64_t>& net_values) const;

  /// Next flop state (D values) from a frame's net values.
  void next_state(std::span<const std::uint64_t> net_values,
                  std::vector<std::uint64_t>& next_q) const;

  /// Frame 1 + frame 2 in one call (broadside launch-off-capture).
  void broadside(std::span<const std::uint64_t> s1,
                 std::span<const std::uint64_t> pi,
                 std::vector<std::uint64_t>& frame1_nets,
                 std::vector<std::uint64_t>& s2,
                 std::vector<std::uint64_t>& frame2_nets) const;

  /// True when the runtime-dispatched AVX2 kernel backs this instance.
  bool uses_avx2() const { return avx2_; }

 private:
  std::shared_ptr<const LevelizedView> view_;
  std::size_t words_;
  using SweepFn = void (*)(const LevelizedView&, std::uint64_t*);
  SweepFn sweep_ = nullptr;
  bool avx2_ = false;
};

/// Bit-transpose a batch of pattern rows into lane-major variable words:
/// out[v*words + w] bit p = rows[w*64 + p][v], for rows.size() patterns and
/// `num_vars` variables per row (out is zero-filled past the batch). Rows are
/// byte vectors holding 0/1 per variable (Pattern::s1 layout). This replaces
/// the bit-by-bit packing loop with an 8x8 bit-matrix transpose per tile --
/// O(vars * patterns / 8) word ops instead of O(vars * patterns) shifts.
void transpose_pack(std::span<const std::uint8_t* const> rows,
                    std::size_t num_vars, std::size_t words,
                    std::vector<std::uint64_t>& out);

}  // namespace scap
