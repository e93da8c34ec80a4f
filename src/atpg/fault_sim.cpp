#include "atpg/fault_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "netlist/cell_type.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/parallel.h"

namespace scap {

FaultSimulator::FaultSimulator(const Netlist& nl, const TestContext& ctx)
    : ctx_(&ctx), view_(nl.levelized_view()) {
  if (!view_) {
    throw std::invalid_argument("FaultSimulator: netlist must be finalized");
  }
  obs::Registry& reg = obs::Registry::global();
  batches_ctr_ = &reg.counter("faultsim.batches");
  masks_ctr_ = &reg.counter("faultsim.detect_masks");
  events_ctr_ = &reg.counter("faultsim.events");
  replays_ctr_ = &reg.counter("faultsim.shard_replays");
  pi_words_.assign(nl.primary_inputs().size(), 0);
  for (std::size_t i = 0; i < pi_words_.size(); ++i) {
    pi_words_[i] = ctx.pi_values[i] ? ~0ull : 0ull;
  }
  obs_weight_.assign(nl.num_nets(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (ctx.active[f]) ++obs_weight_[view_->f_d()[f]];
  }

  // Static observability (shared with PODEM and the ATPG engine), held in
  // compact ids for the cone walk.
  const std::vector<std::uint8_t> observable = observable_nets(nl, ctx);
  obs_reach_.resize(nl.num_nets());
  for (NetId c = 0; c < nl.num_nets(); ++c) {
    obs_reach_[c] = observable[view_->external_net(c)];
  }
}

void FaultSimulator::ConeScratch::ensure(const LevelizedView& v) {
  faulty.assign(v.num_nets(), 0);
  stamp.assign(v.num_nets(), 0);
  epoch = 0;
  buckets.assign(v.max_level() + 1, {});
  queued.assign(v.num_gates(), 0);
  walks = evals = 0;
}

void FaultSimulator::ConeScratch::flush_counters(obs::Counter* masks,
                                                 obs::Counter* events) {
  if (walks != 0) masks->add(walks);
  if (evals != 0) events->add(evals);
  walks = evals = 0;
}

void FaultSimulator::compute_good_block(const BatchSim& sim,
                                        std::span<const Pattern> patterns,
                                        std::size_t block, GoodBlock& out,
                                        GoodScratch& gs) const {
  const LevelizedView& v = *view_;
  const std::size_t W = sim.words();
  const std::size_t lanes = 64 * W;
  const std::size_t base = block * lanes;
  const std::size_t n = std::min(lanes, patterns.size() - base);
  out.batch_size = n;
  for (std::size_t w = 0; w < kMaxBatchWords; ++w) {
    const std::size_t rem = n > w * 64 ? n - w * 64 : 0;
    out.lane_mask[w] = rem >= 64 ? ~0ull : (rem ? (1ull << rem) - 1 : 0ull);
  }

  // Pack all test variables (scan bits, plus LOS/enhanced launch variables)
  // per lane: word transpose instead of bit-by-bit inserts.
  const std::size_t nv = ctx_->num_vars();
  gs.rows.clear();
  gs.rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gs.rows.push_back(patterns[base + i].s1.data());
  }
  transpose_pack(gs.rows, nv, W, gs.vars);

  if (gs.pi.size() != pi_words_.size() * W) {
    gs.pi.resize(pi_words_.size() * W);
    for (std::size_t i = 0; i < pi_words_.size(); ++i) {
      for (std::size_t w = 0; w < W; ++w) gs.pi[i * W + w] = pi_words_[i];
    }
  }

  const std::size_t nf = v.num_flops();
  sim.eval_frame(std::span<const std::uint64_t>(gs.vars.data(), nf * W), gs.pi,
                 out.f1);

  // Launch: LOC captures the functional response on active flops (held flops
  // keep S1); LOS/enhanced scan take the launch value from its variable.
  gs.s2.resize(nf * W);
  const NetId* fd = v.f_d();
  const bool explicit_s2 = ctx_->explicit_s2();
  for (FlopId f = 0; f < nf; ++f) {
    const std::size_t src =
        explicit_s2 ? ctx_->los_pred[f]
                    : (ctx_->active[f] ? static_cast<std::size_t>(fd[f])
                                       : static_cast<std::size_t>(f));
    const std::uint64_t* from =
        (explicit_s2 || !ctx_->active[f]) ? gs.vars.data() : out.f1.data();
    for (std::size_t w = 0; w < W; ++w) gs.s2[f * W + w] = from[src * W + w];
  }
  sim.eval_frame(gs.s2, gs.pi, out.g2);
}

bool FaultSimulator::detect_block(std::size_t words, const TdfFault& fault,
                                  const GoodBlock& blk, ConeScratch& cs,
                                  std::uint64_t* out) const {
  const LevelizedView& v = *view_;
  const NetId site = v.compact_net(fault.net);
  for (std::size_t w = 0; w < words; ++w) out[w] = 0;

  // Structural filter: a fault with no combinational path to an active flop
  // D cannot be detected by any pattern (flop-branch faults are sampled
  // directly and bypass the cone). Branch faults propagate only through
  // their load gate, so the gate's output net is the tighter check.
  if (fault.site == FaultSite::kStem) {
    if (!obs_reach_[site]) return false;
  } else if (fault.site == FaultSite::kGateBranch) {
    if (!obs_reach_[v.gate_outs()[v.sched_of_gate(fault.load)]]) return false;
  }

  const std::uint64_t* f1 = blk.f1.data() + static_cast<std::size_t>(site) * words;
  const std::uint64_t* g2 = blk.g2.data() + static_cast<std::size_t>(site) * words;

  // Launch condition: frame1 holds v1, frame2 fault-free holds v2.
  std::uint64_t launch[kMaxBatchWords];
  std::uint64_t launched = 0;
  for (std::size_t w = 0; w < words; ++w) {
    launch[w] = (fault.v1() ? f1[w] : ~f1[w]) & (fault.v2() ? g2[w] : ~g2[w]) &
                blk.lane_mask[w];
    launched |= launch[w];
  }
  if (launched == 0) return false;

  if (fault.site == FaultSite::kFlopBranch) {
    // The late transition is sampled directly by the (active) load flop.
    if (!ctx_->active[fault.load]) return false;
    for (std::size_t w = 0; w < words; ++w) out[w] = launch[w];
    return true;
  }

  // Walk words in pattern order, stopping at the first detecting word:
  // grade() only consumes the earliest detect bit, and most detected faults
  // fire in the first word, so later words are usually never propagated. The
  // walked word sequence is identical at any batch width (W only changes how
  // words are grouped into blocks), which keeps both results and the
  // faultsim.* counters W-invariant.
  for (std::size_t w = 0; w < words; ++w) {
    if (launch[w] == 0) continue;
    out[w] = cone_word(fault, blk, w, words, launch[w], cs);
    if (out[w] != 0) return true;
  }
  return false;
}

std::uint64_t FaultSimulator::cone_word(const TdfFault& fault,
                                        const GoodBlock& blk, std::size_t w,
                                        std::size_t stride,
                                        std::uint64_t launch,
                                        ConeScratch& cs) const {
  const LevelizedView& v = *view_;
  const std::uint64_t* g2 = blk.g2.data() + w;  // indexed net*stride

  // Frame-2 cone propagation of the stuck-at-v1 perturbation.
  if (++cs.epoch == 0) {  // stamp wrap: invalidate all
    std::fill(cs.stamp.begin(), cs.stamp.end(), 0);
    cs.epoch = 1;
  }
  const std::uint32_t epoch = cs.epoch;
  const std::uint64_t stuck = fault.v1() ? ~0ull : 0ull;

  std::uint32_t max_key = 0;
  std::uint32_t min_key = static_cast<std::uint32_t>(cs.buckets.size());
  const std::uint32_t* levels = v.gate_levels();
  const CellType* types = v.gate_types();
  const NetId* outs = v.gate_outs();
  // Perturbations entering a region with no path to an active flop D can
  // never detect; pruning those gates at enqueue time skips the dead part
  // of the cone (identical at any thread count and batch width).
  auto enqueue = [&](std::uint32_t si) {
    if (cs.queued[si] || !obs_reach_[outs[si]]) return;
    cs.queued[si] = 1;
    const std::uint32_t lvl = levels[si];
    cs.buckets[lvl].push_back(si);
    max_key = std::max(max_key, lvl);
    min_key = std::min(min_key, lvl);
  };

  std::uint64_t detect = 0;
  auto good = [&](NetId n) {
    return g2[static_cast<std::size_t>(n) * stride];
  };
  auto set_faulty = [&](NetId n, std::uint64_t val) {
    const std::uint64_t gn = good(n);
    // Perturb only launched lanes.
    const std::uint64_t merged = (gn & ~launch) | (val & launch);
    const std::uint64_t prev = cs.stamp[n] == epoch ? cs.faulty[n] : gn;
    if (merged == prev) return;
    cs.stamp[n] = epoch;
    cs.faulty[n] = merged;
    if (obs_weight_[n] != 0) detect |= (merged ^ gn) & launch;
    for (std::uint32_t si : v.fanout_scheds(n)) enqueue(si);
  };

  if (fault.site == FaultSite::kStem) {
    set_faulty(v.compact_net(fault.net), stuck);
  } else {
    enqueue(v.sched_of_gate(fault.load));
  }

  const NetId* pool = v.gate_ins();
  const std::uint32_t* off = v.gate_in_offsets();
  const std::uint32_t fault_sched = fault.site == FaultSite::kGateBranch
                                        ? v.sched_of_gate(fault.load)
                                        : ~std::uint32_t{0};

  std::uint64_t inbuf[kMaxGateInputs];
  std::uint64_t outbuf[1] = {};
  std::size_t gate_evals = 0;
  for (std::uint32_t k = min_key; k <= max_key && k < cs.buckets.size(); ++k) {
    auto& bucket = cs.buckets[k];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t si = bucket[i];
      cs.queued[si] = 0;
      ++gate_evals;
      const NetId* ins = pool + off[si];
      const std::uint32_t nin = off[si + 1] - off[si];
      for (std::uint32_t j = 0; j < nin; ++j) {
        const NetId n = ins[j];
        if (si == fault_sched && fault.pin == j) {
          inbuf[j] = stuck;
        } else {
          inbuf[j] = cs.stamp[n] == epoch ? cs.faulty[n] : good(n);
        }
      }
      // The cell kernel BatchSim's sweep runs, fed from a gathered operand
      // buffer instead of the dense value table.
      eval_cell<1>(types[si], [&](int j) { return inbuf + j; }, outbuf);
      set_faulty(outs[si], outbuf[0]);
    }
    bucket.clear();
  }
  cs.walks += 1;
  cs.evals += gate_evals;
  return detect;
}

std::vector<std::size_t> FaultSimulator::grade(
    std::span<const Pattern> patterns, std::span<const TdfFault> faults,
    std::vector<std::size_t>* new_detects_per_pattern) {
  SCAP_TRACE_SCOPE("faultsim.grade");
  // Packing reads ctx.num_vars() bits of every pattern.
  for (const Pattern& p : patterns) {
    if (p.s1.size() < ctx_->num_vars()) {
      throw std::invalid_argument(
          "FaultSimulator::grade: pattern shorter than the context's test "
          "variables");
    }
  }
  std::vector<std::size_t> first(faults.size(), kUndetected);

  if (!patterns.empty() && !faults.empty()) {
    const std::size_t W = patterns.size() <= 64 ? 1 : kMaxBatchWords;
    const std::size_t lanes = 64 * W;
    const std::size_t nb = (patterns.size() + lanes - 1) / lanes;
    const std::size_t threads = rt::concurrency();
    BatchSim sim(view_, W);

    // Phase 1: fault-free two-frame response of every block, computed once
    // and shared read-only across all fault shards. Writes are
    // element-indexed, so the block contents never depend on the chunking.
    std::vector<GoodBlock> blocks(nb);
    batches_ctr_->add(nb);
    {
      SCAP_TRACE_SCOPE("faultsim.good_blocks");
      const std::size_t n_chunks = std::min(nb, std::max<std::size_t>(threads, 1));
      const std::size_t per = (nb + n_chunks - 1) / n_chunks;
      rt::ThreadPool::global()->run_chunked(n_chunks, [&](std::size_t c) {
        GoodScratch gs;
        const std::size_t be = std::min(nb, (c + 1) * per);
        for (std::size_t b = c * per; b < be; ++b) {
          compute_good_block(sim, patterns, b, blocks[b], gs);
        }
      });
    }

    // Phase 2: fault-parallel shards walk the shared blocks with local fault
    // dropping, each owning only cone scratch. Shards are disjoint fault
    // slices and a fault's first-detect index scans blocks, words and bits in
    // pattern order, so the result is bit-identical at any SCAP_THREADS and
    // either batch width.
    constexpr std::size_t kMinFaultsPerShard = 64;
    const std::size_t n_shards = std::max<std::size_t>(
        1, std::min(threads, faults.size() / kMinFaultsPerShard));
    const std::size_t per_shard = (faults.size() + n_shards - 1) / n_shards;
    obs::count("faultsim.grade_shards", n_shards);
    rt::ThreadPool::global()->run_chunked(n_shards, [&](std::size_t s) {
      const std::size_t fb = s * per_shard;
      const std::size_t fe = std::min(faults.size(), fb + per_shard);
      if (fb >= fe) return;
      ConeScratch cs;
      cs.ensure(*view_);
      std::uint64_t det[kMaxBatchWords];
      std::size_t remaining = fe - fb;
      std::size_t replays = 0;
      for (std::size_t b = 0; b < nb && remaining > 0; ++b) {
        ++replays;
        const GoodBlock& blk = blocks[b];
        for (std::size_t fi = fb; fi < fe; ++fi) {
          if (first[fi] != kUndetected) continue;
          if (!detect_block(W, faults[fi], blk, cs, det)) continue;
          for (std::size_t w = 0; w < W; ++w) {
            if (det[w]) {
              first[fi] = b * lanes + w * 64 +
                          static_cast<std::size_t>(std::countr_zero(det[w]));
              break;
            }
          }
          --remaining;
        }
      }
      replays_ctr_->add(replays);
      cs.flush_counters(masks_ctr_, events_ctr_);
    });
  }

  if (new_detects_per_pattern) {
    new_detects_per_pattern->assign(patterns.size(), 0);
    for (std::size_t idx : first) {
      if (idx != kUndetected) ++(*new_detects_per_pattern)[idx];
    }
  }
  return first;
}

}  // namespace scap
