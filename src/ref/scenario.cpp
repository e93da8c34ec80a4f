#include "ref/scenario.h"

#include "util/kv.h"
#include "util/rng.h"

namespace scap::ref {

Scenario Scenario::random(std::uint64_t seed) {
  Rng r(seed);
  Scenario sc;
  sc.name = "fuzz_" + std::to_string(seed);
  sc.soc_seed = r();
  // Keep the SOC small enough that the one-fault-at-a-time reference grader
  // stays fast, but vary every structural knob the generator exposes.
  sc.flops_scale = r.uniform(0.25, 1.0);
  sc.scan_chains = static_cast<std::uint64_t>(r.range(1, 6));
  sc.gates_per_flop = r.uniform(2.0, 8.0);
  sc.domain = r.below(2);
  sc.scheme = r.below(3);
  sc.num_patterns = static_cast<std::uint64_t>(r.range(1, 6));
  sc.pattern_seed = r();
  sc.fill_mode = r.chance(0.5) ? -1 : static_cast<std::int64_t>(r.below(5));
  sc.x_fraction = r.uniform();
  sc.droop = r.chance(0.5);
  sc.droop_seed = r();
  sc.droop_max_v = r.uniform(0.0, 0.3);
  // Mesh sizes from 4x4 to 24x24: square and skewed meshes, with band
  // widths (nx) from 4 to 24 in the reference's banded Cholesky solve.
  sc.grid_nx = static_cast<std::uint64_t>(r.range(4, 24));
  sc.grid_ny = static_cast<std::uint64_t>(r.range(4, 24));
  sc.grid_sources = static_cast<std::uint64_t>(r.range(1, 40));
  sc.grid_seed = r();
  sc.fault_sample = static_cast<std::uint64_t>(r.range(8, 48));
  sc.fault_seed = r();
  // The retired draws of the grade width (the scenario's old batch_words),
  // the mesh's void count, its edge jitter (grid_voids and grid_jitter) and
  // its solver select, kept so every later field keeps its per-seed value.
  (void)r.below(4);
  (void)r.below(4);
  if (!r.chance(0.5)) (void)r.uniform(0.05, 0.5);
  (void)r.below(3);
  sc.droop_alternate = r.chance(0.5);
  return sc;
}

Scenario Scenario::parse(const std::string& text) {
  const util::KvDoc doc = util::KvDoc::parse(text);
  Scenario sc;
  sc.name = doc.get("name", sc.name);
  sc.soc_seed = doc.get_u64("soc_seed", sc.soc_seed);
  sc.flops_scale = doc.get_f64("flops_scale", sc.flops_scale);
  sc.scan_chains = doc.get_u64("scan_chains", sc.scan_chains);
  sc.gates_per_flop = doc.get_f64("gates_per_flop", sc.gates_per_flop);
  sc.domain = doc.get_u64("domain", sc.domain);
  sc.scheme = doc.get_u64("scheme", sc.scheme);
  sc.num_patterns = doc.get_u64("num_patterns", sc.num_patterns);
  sc.pattern_skip = doc.get_u64("pattern_skip", sc.pattern_skip);
  sc.pattern_seed = doc.get_u64("pattern_seed", sc.pattern_seed);
  sc.fill_mode = static_cast<std::int64_t>(static_cast<std::uint64_t>(
      doc.get_u64("fill_mode_raw",
                  static_cast<std::uint64_t>(sc.fill_mode))));
  sc.x_fraction = doc.get_f64("x_fraction", sc.x_fraction);
  sc.droop = doc.get_bool("droop", sc.droop);
  sc.droop_seed = doc.get_u64("droop_seed", sc.droop_seed);
  sc.droop_max_v = doc.get_f64("droop_max_v", sc.droop_max_v);
  sc.droop_alternate = doc.get_bool("droop_alternate", sc.droop_alternate);
  sc.grid_nx = doc.get_u64("grid_nx", sc.grid_nx);
  sc.grid_ny = doc.get_u64("grid_ny", sc.grid_ny);
  sc.grid_sources = doc.get_u64("grid_sources", sc.grid_sources);
  sc.grid_seed = doc.get_u64("grid_seed", sc.grid_seed);
  sc.fault_sample = doc.get_u64("fault_sample", sc.fault_sample);
  sc.fault_seed = doc.get_u64("fault_seed", sc.fault_seed);
  sc.check_sim = doc.get_bool("check_sim", sc.check_sim);
  sc.check_scap = doc.get_bool("check_scap", sc.check_scap);
  sc.check_grade = doc.get_bool("check_grade", sc.check_grade);
  sc.check_grid = doc.get_bool("check_grid", sc.check_grid);
  return sc;
}

std::string Scenario::serialize() const {
  util::KvDoc doc;
  doc.comment("scap_fuzz scenario v1");
  doc.set("name", name);
  doc.set_u64("soc_seed", soc_seed);
  doc.set_f64("flops_scale", flops_scale);
  doc.set_u64("scan_chains", scan_chains);
  doc.set_f64("gates_per_flop", gates_per_flop);
  doc.set_u64("domain", domain);
  doc.set_u64("scheme", scheme);
  doc.set_u64("num_patterns", num_patterns);
  doc.set_u64("pattern_skip", pattern_skip);
  doc.set_u64("pattern_seed", pattern_seed);
  // Stored as the two's-complement u64 so "-1 = raw random" survives the
  // unsigned kv integer path.
  doc.set_u64("fill_mode_raw", static_cast<std::uint64_t>(fill_mode));
  doc.set_f64("x_fraction", x_fraction);
  doc.set_bool("droop", droop);
  doc.set_u64("droop_seed", droop_seed);
  doc.set_f64("droop_max_v", droop_max_v);
  doc.set_bool("droop_alternate", droop_alternate);
  doc.set_u64("grid_nx", grid_nx);
  doc.set_u64("grid_ny", grid_ny);
  doc.set_u64("grid_sources", grid_sources);
  doc.set_u64("grid_seed", grid_seed);
  doc.set_u64("fault_sample", fault_sample);
  doc.set_u64("fault_seed", fault_seed);
  doc.set_bool("check_sim", check_sim);
  doc.set_bool("check_scap", check_scap);
  doc.set_bool("check_grade", check_grade);
  doc.set_bool("check_grid", check_grid);
  return doc.to_string();
}

}  // namespace scap::ref
