// PODEM test generation for transition delay faults under launch-off-capture.
//
// The two-frame broadside model is simulated directly (no physically expanded
// netlist): frame 1 is the scanned-in state S1, frame 2 sees S2 = D(S1) on
// active-domain flops and S1 on held flops. Three 3-valued planes are kept:
// frame-1 good, frame-2 good, and frame-2 faulty (the gross-delay model's
// stuck-at-v1 in frame 2). Decision variables are the scan bits S1 only --
// exactly what a tester controls; primary inputs are constants.
//
// Implication is event-driven: changing one scan bit repropagates only the
// affected cone (across the frame boundary through active flops), which keeps
// dynamic compaction affordable. extend() continues from the current
// assignments to target a second fault without disturbing bits already
// committed -- that is what lets the ATPG engine pack many faults per pattern
// the way the commercial greedy tools the paper wraps do.
//
// Planes and events. Frame 1 keeps one V3 per net. Frame 2 keeps the
// fault-free and the faulty value as two lanes of one byte (V3x2 in
// netlist/cell_type.h), so one bitwise kernel pass evaluates both; the stuck
// value is substituted only at the stem net, or at the branch fault's pin on
// its load gate. Events run through flat per-(frame, level) FIFO buckets,
// and propagate() drains only the occupied key range. The queueing order --
// fanouts in the Netlist's fanout order, FIFO within a bucket -- fixes the
// order gates join the D-frontier, and objective() breaks ties by that
// order, so it is kept exactly: a schedule-ordered walk (LevelizedView)
// would pick other objectives and change every pattern.
//
// Unassignment is batched. Dropping assignments only widens values toward
// X, so no net gains a fault effect and the D-frontier gains no entry; the
// popped decisions of a backtrack, an abort or a failed extend() therefore
// go in one batch with one propagate(), and leave exactly the state popping
// them one at a time would. A flip is its own propagate(). generate()
// restores precomputed all-X planes instead of popping the previous cube,
// and adopt() assigns its changed bits in one batch. implications() still
// counts one per variable (re)assignment.
//
// The flat topology (compact gate records, a fanout CSR), the context's
// observability facts and the all-X planes are read-only PodemTables,
// built once per engine run and shared by every replica.
//
// Search that cannot succeed is pruned. A statically unobservable fault
// (observable_nets(): no combinational path to a capturing flop) is
// untestable without search. The D-frontier admits only gates whose output
// is statically observable, and objective() skips any frontier gate without
// an X-path -- a chain of nets still undetermined in the frame-2 good or
// faulty plane from its output to an active flop D -- and backtracks when
// none is left.
//
// Every generate()/extend() call is a pure function of the assignment it
// starts from, the fault and PodemOptions: the backtrace salt is re-seeded
// per call from the fault and the run seed, and nothing else of a search
// outlives its call. So a replica that adopt()s a cube returns exactly what
// the Podem that built the cube would -- which is what lets the ATPG engine
// run searches speculatively on one replica per pool lane.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "atpg/context.h"
#include "atpg/fault.h"
#include "atpg/pattern.h"
#include "netlist/netlist.h"

namespace scap {

enum class PodemStatus : std::uint8_t { kDetected, kUntestable, kAborted };

struct PodemOptions {
  std::uint32_t backtrack_limit = 64;
  /// Run seed, mixed with the fault into each call's backtrace salt. The
  /// ATPG engine fills it from AtpgOptions::seed, so a fault re-targeted in
  /// a later run (flow step, repair round) explores different paths.
  std::uint64_t seed = 0;
};

/// Read-only tables every Podem on one (netlist, context) pair reads; see
/// Podem::tables(). Defined in podem.cpp.
struct PodemTables;

class Podem {
 public:
  /// The flat topology, observability facts and all-X planes for (nl, ctx):
  /// build once and pass to every replica. nl and ctx must outlive them.
  static std::shared_ptr<const PodemTables> tables(const Netlist& nl,
                                                   const TestContext& ctx);

  /// A Podem with tables of its own.
  Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt = {});
  /// A replica on shared tables.
  explicit Podem(std::shared_ptr<const PodemTables> tables,
                 PodemOptions opt = {});

  /// Generate a cube detecting the fault, starting from a clean slate. A
  /// statically unobservable fault returns kUntestable without search.
  PodemStatus generate(const TdfFault& fault, TestCube& out);

  /// Dynamic compaction: keep current assignments fixed and try to extend
  /// them to also detect `fault`. On success `out` holds the merged cube; on
  /// failure the pre-call assignments are restored.
  PodemStatus extend(const TdfFault& fault, TestCube& out);

  /// Drop all assignments (generate() does this implicitly).
  void clear_assignments();

  /// Make the current assignment equal to `cube`, as fixed decisions that
  /// extend() never revisits; the changed bits are assigned in one batch.
  /// Throws std::invalid_argument unless `cube` has one entry per test
  /// variable.
  void adopt(const TestCube& cube);

  /// Current cube (assignments made so far).
  TestCube cube() const;

  /// White-box validation hook: install `fault`, assign every test variable
  /// from `s1` (0/1 per variable), and report whether the implication sees the
  /// fault detected. Under a full assignment the 3-valued planes are exact,
  /// so this must agree with the fault simulator -- tests rely on that.
  /// Throws std::invalid_argument unless `s1` has one entry per variable.
  bool probe(const TdfFault& fault, std::span<const std::uint8_t> s1);

  /// Running totals. The difference across one generate()/extend() call is
  /// that call's search work: neither the clearing generate() starts with
  /// nor adopt() is counted, so it does not depend on earlier calls.
  std::uint64_t implications() const { return implications_; }
  std::uint64_t backtracks() const { return backtracks_; }
  /// Calls that stopped at the backtrack limit (a subset of the aborts).
  std::uint64_t limit_aborts() const { return limit_aborts_; }

 private:
  enum Frame : std::uint8_t { kF1 = 0, kF2 = 1 };

  struct Objective {
    Frame frame;
    NetId net;
    int value;
  };
  struct Decision {
    FlopId flop;
    std::uint8_t value;
    bool flipped;
  };

  // -- plane maintenance ----------------------------------------------------
  void restore_all_x();
  void assign(FlopId var, int v);  ///< v in {0,1} or kBitX; queues events
  void set_s1(FlopId var, int v);  ///< assign() and propagate()
  void update_f1(NetId n, V3 v);
  void update_f2(NetId n, std::uint8_t lanes);
  void enqueue(Frame fr, GateId g);
  template <Frame kFr>
  void enqueue_fanouts(NetId n);
  void propagate();

  // -- fault bookkeeping ------------------------------------------------------
  void install_fault(const TdfFault& f);
  void reset_fault_plane();
  bool detected() const;

  // -- search -----------------------------------------------------------------
  PodemStatus run(std::size_t baseline, TestCube& out);
  std::optional<Objective> objective();
  bool has_x_path(NetId from);
  std::optional<std::pair<FlopId, int>> backtrace(Objective obj) const;
  void pop_to(std::size_t baseline);
  void unwind(std::size_t baseline);

  std::shared_ptr<const PodemTables> tables_;
  const Netlist* nl_;
  const TestContext* ctx_;
  PodemOptions opt_;

  std::vector<std::uint8_t> s1_;  ///< 0/1/kBitX per test variable
  std::vector<V3> f1_;            ///< frame 1, one lane per net
  /// Frame 2: fault-free value in lane 0, faulty value in lane 1 (V3x2).
  std::vector<std::uint8_t> f2_;
  /// Nets whose faulty lane has differed from the fault-free one since the
  /// fault was installed: the faulty plane's undo list.
  std::vector<std::uint8_t> faulty_touched_;
  std::vector<NetId> faulty_touched_list_;
  std::int64_t effect_obs_ = 0;

  std::vector<GateId> dfrontier_;
  std::vector<std::uint8_t> in_dfrontier_;

  // X-path search scratch: epoch-stamped visit marks per net, DFS stack.
  std::vector<std::uint32_t> xpath_mark_;
  std::uint32_t xpath_epoch_ = 0;
  std::vector<NetId> xpath_stack_;

  // Worklist: FIFO buckets keyed by (frame, level), preallocated in one flat
  // slot array (bucket k fills up from PodemTables::bucket_base[k]).
  std::vector<GateId> slots_;
  std::vector<std::uint32_t> bucket_end_;
  std::vector<std::uint8_t> queued_;  ///< per frame*num_gates+gate
  std::uint32_t min_key_ = 0;         ///< occupied key range [min, max]
  std::uint32_t max_key_ = 0;

  TdfFault fault_{};
  V3 stuck_ = V3::x();
  /// Where the faulty lane takes the stuck value: the stem net, or the
  /// branch fault's load gate and pin; kNullId unless such a fault is installed.
  NetId stem_net_ = kNullId;
  GateId branch_load_ = kNullId;
  std::uint8_t branch_pin_ = 0;

  std::vector<Decision> stack_;
  std::uint64_t implications_ = 0;
  std::uint64_t backtracks_ = 0;
  std::uint64_t limit_aborts_ = 0;
  /// Which X input backtrace() follows: seeded per call from the fault and
  /// the run seed, bumped on every backtrack to diversify paths.
  std::size_t backtrace_salt_ = 0;
};

}  // namespace scap
