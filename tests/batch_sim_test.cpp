// Bit-exactness suite for the levelized batch evaluation core.
//
// Pins the three layers of the SoA evaluation core against hand-computed
// values and the reference models (src/ref):
//  - LevelizedView: the compact renumbering is a permutation, the schedule
//    is topological, and the compact-space topology mirrors the Netlist.
//  - BatchSim: both widths (W = 1 and 4) reproduce ref::eval_frame_ref lane
//    by lane, and transpose_pack equals naive bit packing.
//  - FaultSimulator::grade: first-detect indices are identical for a whole
//    set (four words per block) and for its 64-pattern slices (one word), at
//    1 and 4 threads, and equal to ref::fault_grade_ref.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "atpg/fault_sim.h"
#include "atpg/pattern.h"
#include "netlist/levelized_view.h"
#include "ref/fuzz.h"
#include "ref/ref_models.h"
#include "ref/scenario.h"
#include "rt/thread_pool.h"
#include "sim/batch_sim.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

TEST(LevelizedView, FinalizeBuildsTheNetlistsView) {
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  const NetId ins[] = {q};
  nl.add_gate(CellType::kInv, ins, d);
  nl.add_flop(d, q, 0, 0);
  EXPECT_EQ(nl.levelized_view(), nullptr);
  nl.finalize();
  ASSERT_NE(nl.levelized_view(), nullptr);
  EXPECT_EQ(nl.levelized_view()->num_gates(), 1u);
  EXPECT_EQ(nl.levelized_view()->num_nets(), 2u);
}

TEST(LevelizedView, CompactRenumberingIsAPermutation) {
  const Netlist& nl = test::small_soc().netlist;
  const LevelizedView v(nl);
  ASSERT_EQ(v.num_nets(), nl.num_nets());
  ASSERT_EQ(v.num_gates(), nl.num_gates());
  ASSERT_EQ(v.num_flops(), nl.num_flops());
  ASSERT_EQ(v.num_pis(), nl.primary_inputs().size());

  std::vector<std::uint8_t> seen(nl.num_nets(), 0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const NetId c = v.compact_net(n);
    ASSERT_LT(c, nl.num_nets());
    ASSERT_FALSE(seen[c]) << "compact id " << c << " assigned twice";
    seen[c] = 1;
    EXPECT_EQ(v.external_net(c), n);
  }
  // Flop Q nets are the leading compact ids, in flop order (the state-vector
  // layout BatchSim::eval_frame memcpys into).
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    EXPECT_EQ(v.compact_net(nl.flop(f).q), static_cast<NetId>(f));
    EXPECT_EQ(v.f_q()[f], static_cast<NetId>(f));
    EXPECT_EQ(v.f_d()[f], v.compact_net(nl.flop(f).d));
  }
}

TEST(LevelizedView, ScheduleIsTopologicalAndMirrorsTopology) {
  const Netlist& nl = test::small_soc().netlist;
  const LevelizedView v(nl);
  const std::uint32_t* levels = v.gate_levels();
  const std::uint32_t* off = v.gate_in_offsets();
  ASSERT_EQ(off[0], 0u);
  for (std::uint32_t i = 0; i < v.num_gates(); ++i) {
    if (i > 0) {
      EXPECT_GE(levels[i], levels[i - 1]);
    }
    const GateId g = v.gate_at(i);
    EXPECT_EQ(v.sched_of_gate(g), i);
    EXPECT_EQ(v.gate_types()[i], nl.gate(g).type);
    EXPECT_EQ(v.gate_outs()[i], v.compact_net(nl.gate(g).out));
    // Outputs are numbered in schedule order.
    EXPECT_EQ(v.gate_outs()[i], v.first_gate_out() + i);
    const auto in_nets = nl.gate_inputs(g);
    ASSERT_EQ(off[i + 1] - off[i], in_nets.size());
    for (std::size_t j = 0; j < in_nets.size(); ++j) {
      const NetId cin = v.gate_ins()[off[i] + j];
      EXPECT_EQ(cin, v.compact_net(in_nets[j]));
      // Topological: every operand is written before this gate's output.
      EXPECT_LT(cin, v.gate_outs()[i]);
    }
  }
  // Compact-space fanouts mirror Netlist::fanout_gates pin-for-pin.
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto ext = nl.fanout_gates(n);
    const auto sched = v.fanout_scheds(v.compact_net(n));
    ASSERT_EQ(sched.size(), ext.size());
    std::vector<GateId> a(ext.begin(), ext.end());
    std::vector<GateId> b;
    for (std::uint32_t si : sched) b.push_back(v.gate_at(si));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "net " << n;
  }
}

TEST(BatchSim, TransposePackMatchesNaivePacking) {
  Rng rng(42);
  for (const std::size_t words : {1u, 4u}) {
    for (const std::size_t num_vars : {1u, 8u, 13u, 64u, 67u}) {
      const std::size_t np = rng.range(1, static_cast<long>(words * 64));
      std::vector<std::vector<std::uint8_t>> pats(np);
      std::vector<const std::uint8_t*> rows(np);
      for (std::size_t p = 0; p < np; ++p) {
        pats[p].resize(num_vars);
        for (auto& b : pats[p]) b = static_cast<std::uint8_t>(rng.below(2));
        rows[p] = pats[p].data();
      }
      std::vector<std::uint64_t> packed;
      transpose_pack(rows, num_vars, words, packed);

      std::vector<std::uint64_t> naive(num_vars * words, 0);
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t vv = 0; vv < num_vars; ++vv) {
          naive[vv * words + p / 64] |=
              static_cast<std::uint64_t>(pats[p][vv] & 1) << (p % 64);
        }
      }
      ASSERT_EQ(packed, naive) << "words=" << words << " vars=" << num_vars
                               << " patterns=" << np;
    }
  }
}

TEST(BatchSim, RejectsMissizedInputs) {
  const Netlist nl = test::tiny_netlist();
  EXPECT_THROW(BatchSim(nl.levelized_view(), 2), std::invalid_argument);
  const BatchSim sim(nl.levelized_view(), 4);
  std::vector<std::uint64_t> nets, next;
  const std::vector<std::uint64_t> q(3 * 4), pi(1 * 4);
  EXPECT_NO_THROW(sim.eval_frame(q, pi, nets));
  EXPECT_THROW(sim.eval_frame(std::vector<std::uint64_t>(3), pi, nets),
               std::invalid_argument);
  EXPECT_THROW(sim.eval_frame(q, std::vector<std::uint64_t>{}, nets),
               std::invalid_argument);
  EXPECT_NO_THROW(sim.next_state(nets, next));
  EXPECT_EQ(next.size(), q.size());
  EXPECT_THROW(sim.next_state(std::span(nets).first(nets.size() - 1), next),
               std::invalid_argument);

  // transpose_pack rejects a width other than 1 or 4, and more rows than
  // its words hold.
  const std::vector<std::uint8_t> row(5, 1);
  std::vector<std::uint64_t> packed;
  EXPECT_NO_THROW(transpose_pack(
      std::vector<const std::uint8_t*>(256, row.data()), 5, 4, packed));
  EXPECT_THROW(transpose_pack(std::vector<const std::uint8_t*>(257, row.data()),
                              5, 4, packed),
               std::invalid_argument);
  EXPECT_THROW(transpose_pack(std::vector<const std::uint8_t*>(65, row.data()),
                              5, 1, packed),
               std::invalid_argument);
  EXPECT_THROW(transpose_pack(std::vector<const std::uint8_t*>(1, row.data()),
                              5, 2, packed),
               std::invalid_argument);
}

TEST(BatchSim, MatchesReferenceAtEveryWidth) {
  const Netlist& nl = test::small_soc().netlist;
  const LevelizedView& view = *nl.levelized_view();
  Rng rng(7);

  const std::size_t nf = nl.num_flops();
  const std::size_t npi = nl.primary_inputs().size();
  for (const std::size_t W : {std::size_t{1}, std::size_t{4}}) {
    const BatchSim batch(nl.levelized_view(), W);
    ASSERT_EQ(batch.words(), W);
    // Independent random words per lane.
    std::vector<std::uint64_t> q(nf * W), pi(npi * W);
    for (auto& x : q) x = rng();
    for (auto& x : pi) x = rng();

    std::vector<std::uint64_t> vals, f1, s2, g2;
    batch.eval_frame(q, pi, vals);
    ASSERT_EQ(vals.size(), nl.num_nets() * W);
    batch.broadside(q, pi, f1, s2, g2);
    EXPECT_EQ(f1, vals);

    // Every pattern lane must equal the reference settle of that lane's
    // inputs; the broadside's next state and frame 2 as well.
    std::vector<std::uint8_t> ql(nf), pil(npi), s2l(nf);
    for (std::size_t lane = 0; lane < 64 * W; ++lane) {
      const std::size_t w = lane / 64;
      const std::size_t bit = lane % 64;
      auto lane_bit = [&](const std::vector<std::uint64_t>& words,
                          std::size_t idx) {
        return static_cast<std::uint8_t>((words[idx * W + w] >> bit) & 1);
      };
      for (std::size_t f = 0; f < nf; ++f) ql[f] = lane_bit(q, f);
      for (std::size_t i = 0; i < npi; ++i) pil[i] = lane_bit(pi, i);
      const std::vector<std::uint8_t> ref1 = ref::eval_frame_ref(nl, ql, pil);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_EQ(lane_bit(vals, view.compact_net(n)), ref1[n])
            << "net " << n << " W=" << W << " lane " << lane;
      }
      for (FlopId f = 0; f < nf; ++f) {
        s2l[f] = ref1[nl.flop(f).d];
        ASSERT_EQ(lane_bit(s2, f), s2l[f]) << "flop " << f << " lane " << lane;
      }
      const std::vector<std::uint8_t> ref2 = ref::eval_frame_ref(nl, s2l, pil);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_EQ(lane_bit(g2, view.compact_net(n)), ref2[n])
            << "frame 2 net " << n << " W=" << W << " lane " << lane;
      }
    }
  }
}

/// Run `fn` with the global pool pinned to `threads`, restoring the default.
template <typename Fn>
auto at_threads(std::size_t threads, Fn&& fn) {
  rt::ThreadPool::set_global_concurrency(threads);
  auto out = fn();
  rt::ThreadPool::set_global_concurrency(0);
  return out;
}

TEST(BatchGrade, WidthAndThreadInvariant) {
  const Netlist& nl = test::small_soc().netlist;
  const TestContext ctx = TestContext::for_domain(nl, 0);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  // 3 full 64-lane batches plus a partial tail: graded whole, the set is one
  // four-word block whose last word is partial; graded in 64-pattern slices
  // as the ATPG engine drops faults, each slice is one word and later slices
  // see only the faults earlier ones left undetected.
  const PatternSet pats = random_pattern_set(210, ctx.num_vars(), 77);
  const std::span<const Pattern> all(pats.patterns);

  std::vector<std::vector<std::size_t>> results;
  std::vector<std::vector<std::size_t>> counts;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto whole = [&] {
      FaultSimulator fs(nl, ctx);
      std::vector<std::size_t> per_pattern;
      auto first = fs.grade(all, faults, &per_pattern);
      return std::pair(std::move(first), std::move(per_pattern));
    };
    auto sliced = [&] {
      FaultSimulator fs(nl, ctx);
      std::vector<std::size_t> first(faults.size(),
                                     FaultSimulator::kUndetected);
      std::vector<std::size_t> per_pattern;
      for (std::size_t base = 0; base < all.size(); base += 64) {
        std::vector<TdfFault> open;
        std::vector<std::size_t> open_index;
        for (std::size_t i = 0; i < faults.size(); ++i) {
          if (first[i] != FaultSimulator::kUndetected) continue;
          open.push_back(faults[i]);
          open_index.push_back(i);
        }
        std::vector<std::size_t> slice_counts;
        const auto slice_first = fs.grade(
            all.subspan(base, std::min<std::size_t>(64, all.size() - base)),
            open, &slice_counts);
        for (std::size_t k = 0; k < open.size(); ++k) {
          if (slice_first[k] == FaultSimulator::kUndetected) continue;
          first[open_index[k]] = base + slice_first[k];
        }
        per_pattern.insert(per_pattern.end(), slice_counts.begin(),
                           slice_counts.end());
      }
      return std::pair(std::move(first), std::move(per_pattern));
    };
    for (auto [first, per] : {at_threads(threads, whole),
                              at_threads(threads, sliced)}) {
      results.push_back(std::move(first));
      counts.push_back(std::move(per));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "variant " << i;
    EXPECT_EQ(counts[i], counts[0]) << "variant " << i;
  }

  // And all of it equals the reference grader, on every 16th fault to keep
  // the scalar oracle affordable.
  std::vector<TdfFault> sample;
  std::vector<std::size_t> sample_first;
  for (std::size_t i = 0; i < faults.size(); i += 16) {
    sample.push_back(faults[i]);
    sample_first.push_back(results[0][i]);
  }
  EXPECT_EQ(sample_first,
            ref::fault_grade_ref(nl, ctx, pats.patterns, sample));
}

// --- corpus replay vs the reference grader --------------------------------

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir = SCAP_CORPUS_DIR;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".scenario") files.push_back(e.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class CorpusGrade : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusGrade, MatchesReferenceAtEveryWidthAndThreadCount) {
  const ref::Scenario sc = ref::Scenario::parse(slurp(GetParam()));
  const ref::ScenarioSetup setup = ref::materialize_scenario(sc);
  const Netlist& nl = setup.soc.netlist;
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  ASSERT_FALSE(setup.patterns.empty());

  const std::vector<std::size_t> ref_first =
      ref::fault_grade_ref(nl, setup.ctx, setup.patterns, faults);
  // The set as given fits in one word; tiled past 64 patterns it is graded
  // four words wide. The tiled set opens with the set itself, so its
  // reference first-detect indices are the untiled ones.
  std::vector<Pattern> tiled;
  while (tiled.size() <= 64) {
    tiled.insert(tiled.end(), setup.patterns.begin(), setup.patterns.end());
  }
  const std::vector<Pattern>* sets[] = {&setup.patterns, &tiled};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::vector<Pattern>* set : sets) {
      auto first = at_threads(threads, [&] {
        FaultSimulator fs(nl, setup.ctx);
        return fs.grade(*set, faults);
      });
      EXPECT_EQ(first, ref_first)
          << "threads=" << threads << " patterns=" << set->size();
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusGrade,
                         ::testing::ValuesIn(corpus_files()), param_name);

}  // namespace
}  // namespace scap
