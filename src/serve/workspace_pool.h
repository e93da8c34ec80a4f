// Per-design pool of warm PatternAnalyzers.
//
// A PatternAnalyzer owns an EventSim::Workspace plus the frame-1 / stimulus /
// SCAP scratch, so its second and later analyses are allocation-free -- but a
// single instance must never be shared across threads (core/pattern_sim.h).
// The pool keeps finished analyzers warm instead of destroying them: a batch
// dispatch leases one analyzer per shard, and the lease returns it on scope
// exit, so steady-state serving pays the analyzer construction cost
// (delay model, SCAP tables) only until the pool has grown to the shard
// fan-out, then never again.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/pattern_sim.h"

namespace scap::serve {

class WorkspacePool {
 public:
  /// `soc` and `lib` must outlive the pool (the design-cache entry owns all
  /// three, in that order).
  WorkspacePool(const SocDesign& soc, const TechLibrary& lib)
      : soc_(&soc), lib_(&lib) {}
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// RAII lease: exclusive use of one warm analyzer until destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<PatternAnalyzer> a)
        : pool_(pool), analyzer_(std::move(a)) {}
    ~Lease() {
      if (analyzer_) pool_->release(std::move(analyzer_));
    }
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    PatternAnalyzer& get() { return *analyzer_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<PatternAnalyzer> analyzer_;
  };

  /// Reuse a warm analyzer when one is free, else construct (and count) a
  /// fresh one. Thread-safe; called once per shard per dispatch.
  Lease acquire();

  /// Analyzers currently parked in the freelist (tests / stats).
  std::size_t idle() const;

 private:
  void release(std::unique_ptr<PatternAnalyzer> a);

  const SocDesign* soc_;
  const TechLibrary* lib_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PatternAnalyzer>> free_;  // guarded by mu_
  /// Per-design analysis tables (delay model, SCAP calculator), built by the
  /// first acquire() and shared read-only by every analyzer the pool ever
  /// constructs -- a cold dispatch pays the table cost once, not per shard.
  /// Immutable after the call_once.
  std::once_flag tables_once_;
  std::shared_ptr<const PatternAnalyzer::SharedTables> tables_;
};

}  // namespace scap::serve
