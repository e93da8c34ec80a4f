// Levelized multi-word batch simulation: the two-valued zero-delay frame
// settle of every engine (fault grading, PatternAnalyzer's frame 1,
// compute_quiet_state).
//
// One sweep over the LevelizedView's (level, type)-sorted flat gate table
// evaluates W machine words per net (W = 1 or 4 -> 64 or 256 patterns per
// pass) with the per-gate cell dispatch inlined into the loop. Every gate
// goes through the one two-valued cell kernel, eval_cell<W>
// (netlist/cell_type.h), compiled once at the build's own flags.
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
// pins both widths lane for lane against the reference fixpoint evaluator
// (ref::eval_frame_ref).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/levelized_view.h"

namespace scap {

/// The wider of the two batch widths, in 64-bit words (the other is 1).
inline constexpr std::size_t kMaxBatchWords = 4;

class BatchSim {
 public:
  /// `words` is 1 or kMaxBatchWords; throws std::invalid_argument otherwise.
  /// The view is shared read-only; shards of a parallel engine copy the
  /// shared_ptr, not the tables.
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

  /// Next flop state (D values) from a frame's net values
  /// (num_nets()*W words). Throws std::invalid_argument on another size.
  void next_state(std::span<const std::uint64_t> net_values,
                  std::vector<std::uint64_t>& next_q) const;

  /// Frame 1 + frame 2 in one call (broadside launch-off-capture).
  void broadside(std::span<const std::uint64_t> s1,
                 std::span<const std::uint64_t> pi,
                 std::vector<std::uint64_t>& frame1,
                 std::vector<std::uint64_t>& s2,
                 std::vector<std::uint64_t>& frame2) const;

  /// True when this build targets AVX2 (__AVX2__ is defined, which the
  /// default flags do not do).
  static constexpr bool uses_avx2() {
#if defined(__AVX2__)
    return true;
#else
    return false;
#endif
  }

 private:
  std::shared_ptr<const LevelizedView> view_;
  std::size_t words_;
};

/// Bit-transpose a batch of pattern rows into lane-major variable words:
/// out[v*words + w] bit p = rows[w*64 + p][v], for rows.size() patterns and
/// `num_vars` variables per row (out is zero-filled past the batch). Rows are
/// byte vectors holding 0/1 per variable (Pattern::s1 layout). This replaces
/// the bit-by-bit packing loop with an 8x8 bit-matrix transpose per tile --
/// O(vars * patterns / 8) word ops instead of O(vars * patterns) shifts.
/// Throws std::invalid_argument unless `words` is 1 or kMaxBatchWords and
/// rows.size() <= 64 * words.
void transpose_pack(std::span<const std::uint8_t* const> rows,
                    std::size_t num_vars, std::size_t words,
                    std::vector<std::uint64_t>& out);

}  // namespace scap
