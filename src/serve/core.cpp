#include "serve/core.h"

#include <algorithm>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "atpg/fault_sim.h"
#include "core/thresholds.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/thread_pool.h"
#include "util/kv.h"

namespace scap::serve {

namespace {

/// Run fn(analyzer, i) for i in [0, n), sharded over the rt pool with one
/// warm-pool analyzer lease per shard. Unit i's result must depend only on i
/// (the callers write element-indexed slots), so the output is bit-identical
/// at any SCAP_THREADS -- same discipline as scap_profile_patterns.
template <typename Fn>
void pooled_for(DesignEntry& entry, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t threads = rt::concurrency();
  if (threads <= 1 || n < 2 || rt::ThreadPool::on_worker_thread()) {
    auto lease = entry.pool.acquire();
    for (std::size_t i = 0; i < n; ++i) fn(lease.get(), i);
    return;
  }
  const std::size_t n_shards = std::min(n, threads * 2);
  const std::size_t per = (n + n_shards - 1) / n_shards;
  rt::ThreadPool::global()->run_chunked(n_shards, [&](std::size_t s) {
    const std::size_t b = s * per;
    const std::size_t e = std::min(n, b + per);
    if (b >= e) return;
    auto lease = entry.pool.acquire();
    for (std::size_t i = b; i < e; ++i) fn(lease.get(), i);
  });
}

/// One pattern's slice of the fused tier-1 (static-bound) pass.
struct StaticUnit {
  const Pattern* pat = nullptr;
  std::uint32_t hot = 0;
  double threshold = 0.0;
  double bound_mw = 0.0;     // out
  std::uint8_t exceeds = 0;  // out: bound fails to clear the threshold
};

/// One pattern's slice of the fused exact (event-sim) pass.
struct ExactUnit {
  const Pattern* pat = nullptr;
  ScapReport rep;  // out
};

/// Per-request bookkeeping inside one design group. Unit ranges are
/// contiguous per request, in request order.
struct GroupMember {
  std::size_t slot = 0;  ///< index into the batch's reply span
  const Request* req = nullptr;
  std::size_t static_begin = 0;  ///< first StaticUnit (screen ops)
  std::size_t exact_begin = 0;   ///< first ExactUnit (profile ops)
  /// screen_exact: per pattern, index into exact units, or npos if the
  /// static bound already cleared it.
  std::vector<std::size_t> sim_unit;
};

constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);

struct Group {
  std::shared_ptr<DesignEntry> entry;
  std::vector<GroupMember> members;
};

void execute_group(Group& g, std::span<Reply> out) {
  DesignEntry& entry = *g.entry;
  const TestContext& ctx = entry.design.ctx;

  // Tier 1: one fused static-bound pass over every screening request.
  std::vector<StaticUnit> statics;
  for (GroupMember& m : g.members) {
    if (m.req->op != Op::kScreenStatic && m.req->op != Op::kScreenExact) {
      continue;
    }
    m.static_begin = statics.size();
    for (const Pattern& p : m.req->patterns) {
      statics.push_back(
          StaticUnit{&p, m.req->hot_block, m.req->threshold_mw, 0.0, 0});
    }
  }
  pooled_for(entry, statics.size(), [&](PatternAnalyzer& a, std::size_t i) {
    StaticUnit& u = statics[i];
    u.bound_mw = a.screen_static(ctx, *u.pat).block_scap_mw(u.hot);
    // Same predicate as scap_screen_patterns: a bound at or under the
    // threshold proves the pattern clean (soundness); anything else -- above,
    // or +inf when the window could not be bounded -- needs the exact sim.
    u.exceeds = u.bound_mw <= u.threshold ? 0 : 1;
  });

  // Tier 2: one fused event-sim pass over every profile request plus the
  // screen_exact patterns the static bound could not clear.
  std::vector<ExactUnit> exacts;
  for (GroupMember& m : g.members) {
    if (m.req->op == Op::kScapProfile) {
      m.exact_begin = exacts.size();
      for (const Pattern& p : m.req->patterns) {
        exacts.push_back(ExactUnit{&p, {}});
      }
    } else if (m.req->op == Op::kScreenExact) {
      m.sim_unit.assign(m.req->patterns.size(), kNoUnit);
      for (std::size_t i = 0; i < m.req->patterns.size(); ++i) {
        if (statics[m.static_begin + i].exceeds) {
          m.sim_unit[i] = exacts.size();
          exacts.push_back(ExactUnit{&m.req->patterns[i], {}});
        }
      }
    }
  }
  obs::count("serve.eventsim_patterns", exacts.size());
  pooled_for(entry, exacts.size(), [&](PatternAnalyzer& a, std::size_t i) {
    exacts[i].rep = a.analyze_scap(ctx, *exacts[i].pat);
  });

  // Assemble replies.
  for (GroupMember& m : g.members) {
    const Request& q = *m.req;
    switch (q.op) {
      case Op::kScreenStatic: {
        std::vector<StaticScreenItem> items(q.patterns.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
          const StaticUnit& u = statics[m.static_begin + i];
          items[i] = StaticScreenItem{u.exceeds, u.bound_mw};
        }
        out[m.slot] = encode_static_reply(items);
        break;
      }
      case Op::kScreenExact: {
        ExactScreenReply rep;
        rep.violates.assign(q.patterns.size(), 0);
        for (std::size_t i = 0; i < q.patterns.size(); ++i) {
          const std::size_t u = m.sim_unit[i];
          if (u == kNoUnit) {
            ++rep.statically_clean;  // tier-1 proven clean, verdict 0
            continue;
          }
          ++rep.event_simmed;
          rep.violates[i] =
              ScapThresholds::block_scap_mw(exacts[u].rep, q.hot_block) >
                      q.threshold_mw
                  ? 1
                  : 0;
        }
        out[m.slot] = encode_exact_reply(rep);
        break;
      }
      case Op::kScapProfile: {
        std::vector<ScapReport> reports(q.patterns.size());
        for (std::size_t i = 0; i < reports.size(); ++i) {
          reports[i] = std::move(exacts[m.exact_begin + i].rep);
        }
        out[m.slot] = encode_profile_reply(reports);
        break;
      }
      case Op::kFaultGrade: {
        // grade() shards the fault list over the rt pool internally; the
        // result is bit-identical at any thread count and batch width. It
        // runs on the cached netlist's own levelized view.
        FaultSimulator fs(entry.design.soc.netlist, ctx);
        const std::vector<std::size_t> graded =
            fs.grade(q.patterns, entry.faults());
        out[m.slot] = encode_grade_reply(graded);
        break;
      }
      default:
        out[m.slot] = make_error(ErrCode::kInternal, "bad group member");
        break;
    }
  }
}

}  // namespace

Reply ServeCore::execute(const Request& req) {
  const Request* p = &req;
  Reply r;
  execute_batch(std::span<const Request* const>(&p, 1),
                std::span<Reply>(&r, 1));
  return r;
}

void ServeCore::execute_batch(std::span<const Request* const> reqs,
                              std::span<Reply> out) {
  SCAP_TRACE_SCOPE("serve.execute");
  obs::count("serve.requests", reqs.size());
  if (reqs.size() > 1) obs::count("serve.batched", reqs.size());

  // Resolve each distinct design text once per batch; group compute requests
  // by the resolved entry so one fused dispatch serves every client that
  // asked for the same design.
  struct Resolved {
    std::shared_ptr<DesignEntry> entry;
    std::string error;
  };
  std::map<std::string, Resolved, std::less<>> memo;
  std::vector<Group> groups;
  std::map<const DesignEntry*, std::size_t> group_of;

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = *reqs[i];
    if (q.op == Op::kPing) {
      out[i] = Reply{Op::kOk, q.blob};
      continue;
    }
    if (q.op == Op::kStats) {
      out[i] = stats_reply();
      continue;
    }
    if (!is_compute_op(q.op)) {
      out[i] = make_error(ErrCode::kUnknownOp, "not a request opcode");
      continue;
    }
    auto [it, fresh] = memo.try_emplace(q.design);
    if (fresh) {
      try {
        it->second.entry = cache_.get(q.design);
      } catch (const std::exception& e) {
        it->second.error = e.what();
      }
    }
    if (!it->second.entry) {
      out[i] = make_error(ErrCode::kDesignError, it->second.error);
      continue;
    }
    DesignEntry& entry = *it->second.entry;
    if (q.num_vars != entry.design.ctx.num_vars()) {
      out[i] = make_error(ErrCode::kBadRequest,
                          "num_vars does not match the design's context");
      continue;
    }
    if ((q.op == Op::kScreenStatic || q.op == Op::kScreenExact) &&
        q.hot_block >= entry.design.soc.netlist.block_count()) {
      out[i] = make_error(ErrCode::kBadRequest, "hot_block out of range");
      continue;
    }
    obs::count("serve.patterns", q.patterns.size());
    auto [git, new_group] = group_of.try_emplace(&entry, groups.size());
    if (new_group) groups.push_back(Group{it->second.entry, {}});
    groups[git->second].members.push_back(GroupMember{i, &q, 0, 0, {}});
  }

  for (Group& g : groups) {
    try {
      execute_group(g, out);
    } catch (const std::exception& e) {
      for (const GroupMember& m : g.members) {
        out[m.slot] = make_error(ErrCode::kInternal, e.what());
      }
    }
  }
}

Reply ServeCore::stats_reply() {
  util::KvDoc kv;
  for (const auto& [name, v] : obs::Registry::global().counters()) {
    kv.set_u64(name, v);
  }
  const std::string text = kv.to_string();
  Reply r;
  r.op = Op::kOk;
  r.payload.assign(text.begin(), text.end());
  return r;
}

}  // namespace scap::serve
