// Randomized differential-test scenarios.
//
// A Scenario is a small, fully serializable recipe for one optimized-vs-
// reference cross-check: which synthetic SOC to build (seed + structural
// knobs), which launch scheme and pattern set to exercise, whether to derate
// delays with a random droop map, what power-grid solve to run, and which of
// the four oracles to compare. Everything the run does is a pure function of
// the scenario, so a failing one can be committed to tests/corpus/ and
// replayed forever.
//
// Serialization uses util::KvDoc ("key value" lines, '#' comments); unknown
// keys are ignored on parse and every field has a default, so old corpus
// entries keep replaying as the scenario schema changes. Scenario::random
// draws every field from one Rng stream in a fixed order; a retired field
// keeps consuming its draws, so every later field keeps its per-seed value
// (ref_diff_test pins five seeds).
#pragma once

#include <cstdint>
#include <string>

namespace scap::ref {

struct Scenario {
  std::string name = "scenario";

  // --- synthetic SOC -------------------------------------------------------
  std::uint64_t soc_seed = 11;
  double flops_scale = 1.0;  ///< scales every (domain, block) population
  std::uint64_t scan_chains = 4;
  double gates_per_flop = 5.0;

  // --- test session --------------------------------------------------------
  std::uint64_t domain = 0;
  std::uint64_t scheme = 0;  ///< 0 = LOC, 1 = LOS, 2 = enhanced scan

  // --- pattern set ---------------------------------------------------------
  std::uint64_t num_patterns = 4;
  /// Patterns dropped from the front of the generated stream (the shrinker
  /// uses this to bisect from the front without changing later patterns).
  std::uint64_t pattern_skip = 0;
  std::uint64_t pattern_seed = 1;
  /// -1: fully random patterns (random_pattern_set). Otherwise a FillMode
  /// index applied to random cubes with `x_fraction` don't-care bits.
  std::int64_t fill_mode = -1;
  double x_fraction = 0.5;

  // --- delay model ---------------------------------------------------------
  bool droop = false;
  std::uint64_t droop_seed = 1;
  double droop_max_v = 0.2;  ///< per-gate droop uniform in [0, max]
  /// With `droop`, every other pattern runs the nominal model instead, on
  /// the same analyzer and workspace (validate_pattern_ir's two passes).
  bool droop_alternate = false;

  // --- power grid ----------------------------------------------------------
  // The uniform mesh PowerGrid builds from the SOC's floorplan, with
  // grid_sources random point loads drawn from grid_seed.
  std::uint64_t grid_nx = 12;
  std::uint64_t grid_ny = 12;
  std::uint64_t grid_sources = 16;
  std::uint64_t grid_seed = 1;

  // --- fault grading -------------------------------------------------------
  std::uint64_t fault_sample = 32;  ///< collapsed faults graded (0 = all)
  std::uint64_t fault_seed = 1;

  // --- which oracles run ---------------------------------------------------
  bool check_sim = true;
  bool check_scap = true;
  bool check_grade = true;
  bool check_grid = true;

  /// Draw a random scenario (pure function of the seed).
  static Scenario random(std::uint64_t seed);

  /// Parse a serialized scenario; throws std::runtime_error on bad syntax or
  /// unparsable values. Missing keys keep their defaults.
  static Scenario parse(const std::string& text);

  std::string serialize() const;

  std::size_t enabled_checks() const {
    return static_cast<std::size_t>(check_sim) + check_scap + check_grade +
           check_grid;
  }
};

}  // namespace scap::ref
