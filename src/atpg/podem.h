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
#include <optional>
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

class Podem {
 public:
  Podem(const Netlist& nl, const TestContext& ctx, PodemOptions opt = {});

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
  /// extend() never revisits: incremental when `cube` only adds to the
  /// current assignment, a plane rebuild otherwise. Throws
  /// std::invalid_argument unless `cube` has one entry per test variable.
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
  void rebuild_planes();
  void set_s1(FlopId f, int v);  ///< v in {0,1} or kBitX; propagates
  void update_f1(NetId n, V3 v);
  void update_f2(NetId n, V3 good, V3 faulty);
  void enqueue(Frame fr, GateId g);
  void propagate();
  void eval_gate(Frame fr, GateId g);
  V3 faulty_input(GateId g, std::uint8_t pin, NetId net) const;

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

  const Netlist* nl_;
  const TestContext* ctx_;
  PodemOptions opt_;

  std::vector<std::uint8_t> s1_;       ///< 0/1/kBitX per test variable
  std::vector<FlopId> los_succ_;       ///< per variable: flop fed at launch
  std::vector<V3> f1_, g2_, x2_;
  std::vector<std::uint32_t> obs_weight_;   ///< active flop D loads per net
  std::vector<std::uint8_t> observable_;    ///< observable_nets()
  std::vector<std::uint8_t> has_effect_;    ///< frame-2 fault effect per net
  std::vector<std::uint8_t> x2_touched_;
  std::vector<NetId> x2_touched_list_;
  std::int64_t effect_obs_ = 0;

  std::vector<GateId> dfrontier_;
  std::vector<std::uint8_t> in_dfrontier_;

  // X-path search scratch: epoch-stamped visit marks per net, DFS stack.
  std::vector<std::uint32_t> xpath_mark_;
  std::uint32_t xpath_epoch_ = 0;
  std::vector<NetId> xpath_stack_;

  // Bucketed worklist ordered by (frame, level).
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint8_t> queued_;  ///< per frame*num_gates+gate
  std::uint32_t min_key_ = 0;
  std::uint32_t keys_per_frame_ = 0;

  TdfFault fault_{};
  bool fault_installed_ = false;
  V3 stuck_ = V3::x();

  std::vector<Decision> stack_;
  std::uint64_t implications_ = 0;
  std::uint64_t backtracks_ = 0;
  /// Which X input backtrace() follows: seeded per call from the fault and
  /// the run seed, bumped on every backtrack to diversify paths.
  std::size_t backtrace_salt_ = 0;
};

}  // namespace scap
