#include "serve/design_cache.h"

#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "util/kv.h"
#include "util/rng.h"

namespace scap::serve {

namespace {

/// The design-determining subset of a recipe, with every pattern-set /
/// droop / grid / oracle field stripped (and num_patterns zeroed so
/// materialize_scenario builds no patterns).
ref::Scenario design_only(const ref::Scenario& sc) {
  ref::Scenario d;
  d.name = "design";
  d.soc_seed = sc.soc_seed;
  d.flops_scale = sc.flops_scale;
  d.scan_chains = sc.scan_chains;
  d.gates_per_flop = sc.gates_per_flop;
  d.domain = sc.domain;
  d.scheme = sc.scheme;
  d.fault_sample = sc.fault_sample;
  d.fault_seed = sc.fault_seed;
  d.num_patterns = 0;
  return d;
}

}  // namespace

std::string canonical_design_key(const ref::Scenario& sc) {
  const ref::Scenario d = design_only(sc);
  util::KvDoc kv;
  kv.set_u64("soc_seed", d.soc_seed);
  kv.set_f64("flops_scale", d.flops_scale);
  kv.set_u64("scan_chains", d.scan_chains);
  kv.set_f64("gates_per_flop", d.gates_per_flop);
  kv.set_u64("domain", d.domain);
  kv.set_u64("scheme", d.scheme);
  kv.set_u64("fault_sample", d.fault_sample);
  kv.set_u64("fault_seed", d.fault_seed);
  return kv.to_string();
}

DesignEntry::DesignEntry(const ref::Scenario& sc)
    : key(canonical_design_key(sc)),
      hash(fnv1a64(key)),
      recipe(design_only(sc)),
      design(ref::materialize_scenario(recipe)),
      pool(design.soc, design.lib) {}

const std::vector<TdfFault>& DesignEntry::faults() {
  std::call_once(faults_once_, [this] {
    SCAP_TRACE_SCOPE("serve.faults_build");
    const Netlist& nl = design.soc.netlist;
    std::vector<TdfFault> all = collapse_faults(nl, enumerate_faults(nl));
    if (recipe.fault_sample > 0 && recipe.fault_sample < all.size()) {
      // Same sampling as the fuzz harness (ref/fuzz.cpp): a seeded shuffle of
      // the collapsed indices, first fault_sample taken -- a pure function of
      // the recipe, so replay grades the identical sample.
      Rng fr(recipe.fault_seed);
      std::vector<std::size_t> idx(all.size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      fr.shuffle(idx);
      std::vector<TdfFault> sample;
      sample.reserve(recipe.fault_sample);
      for (std::size_t k = 0; k < recipe.fault_sample; ++k) {
        sample.push_back(all[idx[k]]);
      }
      all = std::move(sample);
    }
    faults_ = std::move(all);
  });
  return faults_;
}

std::shared_ptr<DesignEntry> DesignCache::get(const std::string& recipe_text) {
  const ref::Scenario sc = ref::Scenario::parse(recipe_text);
  const std::string key = canonical_design_key(sc);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
      obs::count("serve.design.hits");
      return lru_.front();
    }
  }
  // Materialize outside the lock: design builds take milliseconds-to-seconds
  // and must not block concurrent hits. A racing miss for the same key just
  // builds twice and the second insert wins; correctness is unaffected
  // (entries for one key are interchangeable by construction).
  SCAP_TRACE_SCOPE("serve.design_build");
  auto entry = std::make_shared<DesignEntry>(sc);
  obs::count("serve.design.misses");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front();
  }
  lru_.push_front(entry);
  index_[key] = lru_.begin();
  while (lru_.size() > max_designs_) {
    index_.erase(lru_.back()->key);
    lru_.pop_back();  // in-flight holders keep the shared_ptr alive
    obs::count("serve.design.evictions");
  }
  return entry;
}

std::size_t DesignCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace scap::serve
