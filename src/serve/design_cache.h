// Content-addressed LRU cache of finalized designs.
//
// A compute request names its design as a serialized ref::Scenario recipe.
// Only a subset of the recipe's fields determine the materialized design and
// test context (SOC structure, domain, launch scheme, fault sampling) -- the
// pattern-set fields are client-side concerns -- so the cache key is the
// canonical KvDoc of exactly those fields, hashed with FNV-1a. Two clients
// asking for the same design through differently-ordered or
// differently-annotated recipes share one entry, one warm workspace pool,
// and one lazily built fault list.
//
// Entries are handed out as shared_ptr: eviction under the LRU cap drops the
// cache's reference, while in-flight batches keep the design alive until
// they finish (an evicted design is rebuilt deterministically on next use,
// which is what keeps journal replay exact across any eviction history).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "atpg/fault.h"
#include "ref/fuzz.h"
#include "ref/scenario.h"
#include "serve/workspace_pool.h"

namespace scap::serve {

/// Canonical design-determining KvDoc text of a recipe (pattern-set and
/// droop/grid/check fields excluded -- they do not shape the design, the
/// context, or the fault list).
std::string canonical_design_key(const ref::Scenario& sc);

struct DesignEntry {
  explicit DesignEntry(const ref::Scenario& sc);

  std::string key;       ///< canonical_design_key(recipe)
  std::uint64_t hash;    ///< fnv1a64(key) -- the content address
  ref::Scenario recipe;  ///< as parsed (pattern fields zeroed)
  ref::ScenarioSetup design;  ///< materialized SOC + lib + ctx (no patterns)
  WorkspacePool pool;         ///< warm analyzers; member order matters

  /// Collapsed (and, per the recipe, sampled) fault list, built on first
  /// fault_grade request against this design and cached for its lifetime.
  const std::vector<TdfFault>& faults();

 private:
  std::once_flag faults_once_;
  std::vector<TdfFault> faults_;
};

class DesignCache {
 public:
  explicit DesignCache(std::size_t max_designs)
      : max_designs_(max_designs == 0 ? 1 : max_designs) {}

  /// Parse the recipe and return the cached entry, materializing (and
  /// possibly evicting the least-recently-used entry) on a miss. Throws
  /// std::runtime_error / std::invalid_argument on an unparsable or
  /// unbuildable recipe -- callers turn that into a kDesignError reply.
  std::shared_ptr<DesignEntry> get(const std::string& recipe_text);

  std::size_t size() const;
  std::size_t capacity() const { return max_designs_; }

 private:
  std::size_t max_designs_;
  mutable std::mutex mu_;
  /// MRU-first; `index_` points into the list by canonical key.
  std::list<std::shared_ptr<DesignEntry>> lru_;
  std::unordered_map<std::string,
                     std::list<std::shared_ptr<DesignEntry>>::iterator>
      index_;
};

}  // namespace scap::serve
