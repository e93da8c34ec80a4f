// Serve subsystem tests: wire codecs (including adversarial truncation under
// ASan), ServeCore correctness against the core/validation.h oracles, design
// cache identity/eviction, journal round-trip + replay determinism, and a
// live Server end-to-end over real sockets (framing attacks, backpressure,
// graceful drain).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "core/validation.h"
#include "ref/fuzz.h"
#include "ref/scenario.h"
#include "serve/client.h"
#include "serve/core.h"
#include "serve/design_cache.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "serve/workspace_pool.h"
#include "util/kv.h"
#include "util/rng.h"

namespace scap::serve {
namespace {

// Shared expensive fixture: one small design, materialized once for every
// test in the binary (the same reason the suites share one ctest entry).
ref::Scenario make_recipe() {
  ref::Scenario sc;
  sc.name = "serve_test";
  sc.soc_seed = 17;
  sc.flops_scale = 0.1;
  sc.num_patterns = 0;
  sc.fault_sample = 24;
  return sc;
}

struct TestDesign {
  ref::Scenario recipe = make_recipe();
  std::string design_text = recipe.serialize();
  ref::ScenarioSetup setup = ref::materialize_scenario(recipe);
  std::vector<Pattern> patterns =
      random_pattern_set(6, setup.ctx.num_vars(), 5).patterns;
  double threshold_mw = 0.0;  ///< mid-range: guarantees a violate/clean mix

  TestDesign() {
    // Pick the hot-block threshold between the min and max observed SCAP so
    // both screening outcomes occur in the fixture pattern set.
    const std::vector<ScapReport> reports = scap_profile_patterns(
        setup.soc, setup.lib, setup.ctx, patterns);
    double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
    for (const ScapReport& r : reports) {
      const double mw = ScapThresholds::block_scap_mw(r, 0);
      lo = std::min(lo, mw);
      hi = std::max(hi, mw);
    }
    threshold_mw = 0.5 * (lo + hi);
  }
};

const TestDesign& fix() {
  static const TestDesign* f = new TestDesign;
  return *f;
}

Request make_request(Op op) {
  Request req;
  req.op = op;
  req.hot_block = 0;
  req.threshold_mw = fix().threshold_mw;
  req.design = fix().design_text;
  req.num_vars = static_cast<std::uint32_t>(fix().setup.ctx.num_vars());
  req.patterns = fix().patterns;
  return req;
}

ScapThresholds uniform_thresholds(double mw) {
  ScapThresholds th;
  th.block_mw.assign(fix().setup.soc.netlist.block_count(), mw);
  return th;
}

// --- wire primitives --------------------------------------------------------

TEST(Wire, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.25e-3);
  w.str32("hello wire");
  const std::vector<std::uint8_t> raw{1, 2, 3};
  w.bytes(raw);

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.25e-3);
  EXPECT_EQ(r.str32(64), "hello wire");
  const auto b = r.bytes(3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[1], 2);
  EXPECT_TRUE(r.done());
}

TEST(Wire, ReaderFailureLatches) {
  const std::vector<std::uint8_t> three{1, 2, 3};
  WireReader r(three);
  EXPECT_EQ(r.u64(), 0u);  // only 3 bytes available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // latched: even in-bounds reads now fail
  EXPECT_FALSE(r.done());
}

TEST(Wire, Str32RejectsOversizedLength) {
  WireWriter w;
  w.u32(0xFFFFFFFFu);  // length field far beyond the buffer
  WireReader r(w.data());
  EXPECT_EQ(r.str32(1u << 20), "");
  EXPECT_FALSE(r.ok());
}

TEST(Wire, Fnv1a64KnownValue) {
  // FNV-1a("") is the offset basis; "a" one round from it.
  EXPECT_EQ(fnv1a64(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64(std::string_view("a")), fnv1a64(std::string_view("b")));
}

// --- pattern packing --------------------------------------------------------

TEST(Protocol, PackUnpackRoundTrip) {
  const std::size_t num_vars = 13;  // deliberately not a byte multiple
  const std::vector<Pattern> pats =
      random_pattern_set(5, num_vars, 99).patterns;
  const std::vector<std::uint8_t> packed = pack_patterns(pats, num_vars);
  EXPECT_EQ(packed.size(), 5 * pattern_stride(num_vars));
  const std::vector<Pattern> back = unpack_patterns(packed, 5, num_vars);
  ASSERT_EQ(back.size(), pats.size());
  for (std::size_t i = 0; i < pats.size(); ++i) {
    EXPECT_EQ(back[i].s1, pats[i].s1) << "pattern " << i;
  }
}

// --- request codec ----------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  for (Op op : {Op::kScreenExact, Op::kScapProfile, Op::kFaultGrade}) {
    const Request req = make_request(op);
    const std::vector<std::uint8_t> payload = encode_request(req);
    Request out;
    std::string err;
    ASSERT_TRUE(decode_request(op, payload, &out, &err)) << err;
    EXPECT_EQ(out.op, op);
    EXPECT_EQ(out.hot_block, req.hot_block);
    EXPECT_EQ(out.threshold_mw, req.threshold_mw);
    EXPECT_EQ(out.design, req.design);
    EXPECT_EQ(out.num_vars, req.num_vars);
    ASSERT_EQ(out.patterns.size(), req.patterns.size());
    for (std::size_t i = 0; i < req.patterns.size(); ++i) {
      EXPECT_EQ(out.patterns[i].s1, req.patterns[i].s1);
    }
  }
}

// Fuzz-style: every strict prefix of a valid payload must be rejected
// cleanly (no crash, no over-read -- ASan enforces the latter), and so must
// a payload with trailing garbage.
TEST(Protocol, DecodeRejectsEveryTruncation) {
  const std::vector<std::uint8_t> payload =
      encode_request(make_request(Op::kScapProfile));
  Request out;
  std::string err;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_request(Op::kScapProfile,
                                std::span(payload.data(), len), &out, &err))
        << "prefix of length " << len << " decoded";
  }
  std::vector<std::uint8_t> extended = payload;
  extended.push_back(0);
  EXPECT_FALSE(decode_request(Op::kScapProfile, extended, &out, &err));
}

TEST(Protocol, DecodeRejectsHostileCounts) {
  Request out;
  std::string err;
  {
    // num_patterns far beyond the cap, with a payload nowhere near that size:
    // must fail before allocating.
    WireWriter w;
    w.u32(0);
    w.f64(1.0);
    w.str32("soc_seed 1\n");
    w.u32(kMaxPatterns + 1);
    w.u32(8);
    EXPECT_FALSE(decode_request(Op::kScapProfile, w.data(), &out, &err));
  }
  {
    // num_vars of zero is meaningless.
    WireWriter w;
    w.u32(0);
    w.f64(1.0);
    w.str32("soc_seed 1\n");
    w.u32(1);
    w.u32(0);
    EXPECT_FALSE(decode_request(Op::kScapProfile, w.data(), &out, &err));
  }
  {
    // Empty design recipe.
    WireWriter w;
    w.u32(0);
    w.f64(1.0);
    w.str32("");
    w.u32(0);
    w.u32(8);
    EXPECT_FALSE(decode_request(Op::kScapProfile, w.data(), &out, &err));
  }
  {
    // NaN threshold.
    WireWriter w;
    w.u32(0);
    w.f64(std::nan(""));
    w.str32("soc_seed 1\n");
    w.u32(0);
    w.u32(8);
    EXPECT_FALSE(decode_request(Op::kScreenExact, w.data(), &out, &err));
  }
}

// A design recipe that is not parseable KvDoc text must be rejected at
// decode time: it could otherwise reach the journal's "design." flattening,
// which throws on the dispatcher thread (daemon-killing, REVIEW issue).
TEST(Protocol, DecodeRejectsNonKvDocDesign) {
  Request out;
  std::string err;
  for (const char* design : {"garbage", "a 1\nvalueless\n", "dup 1\ndup 2\n"}) {
    Request req = make_request(Op::kScapProfile);
    req.design = design;
    EXPECT_FALSE(
        decode_request(Op::kScapProfile, encode_request(req), &out, &err))
        << "design '" << design << "' decoded";
  }
}

TEST(Protocol, ErrorReplyRoundTrip) {
  const Reply r = make_error(ErrCode::kDesignError, "no such design");
  EXPECT_EQ(r.op, Op::kError);
  ErrCode code{};
  std::string msg;
  ASSERT_TRUE(decode_error(r.payload, &code, &msg));
  EXPECT_EQ(code, ErrCode::kDesignError);
  EXPECT_EQ(msg, "no such design");
}

TEST(Protocol, ReplyCodecsRoundTrip) {
  {
    ExactScreenReply r;
    r.violates = {0, 1, 0, 0, 1};
    ExactScreenReply out;
    ASSERT_TRUE(decode_exact_reply(encode_exact_reply(r).payload, &out));
    EXPECT_EQ(out.violates, r.violates);
    // The layout served before opcode 2 was retired put two u32 counters
    // after n; such a reply must fail the length check, not misparse.
    WireWriter stale;
    stale.u32(static_cast<std::uint32_t>(r.violates.size()));
    stale.u32(3);
    stale.u32(2);
    stale.bytes(r.violates);
    EXPECT_FALSE(decode_exact_reply(stale.data(), &out));
  }
  {
    std::vector<ScapReport> reports(2);
    reports[0].stw_ns = 1.5;
    reports[0].period_ns = 10.0;
    reports[0].num_toggles = 42;
    reports[0].vdd_energy_pj = {1.0, 2.0};
    reports[0].vss_energy_pj = {0.5, 0.25};
    reports[0].vdd_energy_total_pj = 3.0;
    reports[0].vss_energy_total_pj = 0.75;
    reports[1] = reports[0];
    reports[1].num_toggles = 7;
    std::vector<ScapReport> out;
    ASSERT_TRUE(
        decode_profile_reply(encode_profile_reply(reports).payload, &out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].stw_ns, 1.5);
    EXPECT_EQ(out[0].vdd_energy_pj, reports[0].vdd_energy_pj);
    EXPECT_EQ(out[0].vss_energy_pj, reports[0].vss_energy_pj);
    EXPECT_EQ(out[1].num_toggles, 7u);
  }
  {
    const std::vector<std::size_t> grades{0, FaultSimulator::kUndetected, 3};
    std::vector<std::size_t> out;
    ASSERT_TRUE(decode_grade_reply(encode_grade_reply(grades).payload, &out));
    EXPECT_EQ(out, grades);
  }
}

// --- ServeCore vs the in-process oracles ------------------------------------

TEST(ServeCore, ProfileMatchesScapProfilePatterns) {
  ServeCore core;
  const Reply reply = core.execute(make_request(Op::kScapProfile));
  ASSERT_EQ(reply.op, Op::kOk);
  std::vector<ScapReport> served;
  ASSERT_TRUE(decode_profile_reply(reply.payload, &served));

  const std::vector<ScapReport> expected = scap_profile_patterns(
      fix().setup.soc, fix().setup.lib, fix().setup.ctx, fix().patterns);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].stw_ns, expected[i].stw_ns) << i;
    EXPECT_EQ(served[i].period_ns, expected[i].period_ns) << i;
    EXPECT_EQ(served[i].num_toggles, expected[i].num_toggles) << i;
    EXPECT_EQ(served[i].vdd_energy_pj, expected[i].vdd_energy_pj) << i;
    EXPECT_EQ(served[i].vss_energy_pj, expected[i].vss_energy_pj) << i;
    EXPECT_EQ(served[i].vdd_energy_total_pj, expected[i].vdd_energy_total_pj);
    EXPECT_EQ(served[i].vss_energy_total_pj, expected[i].vss_energy_total_pj);
  }
}

TEST(ServeCore, ExactScreenMatchesScapScreenPatterns) {
  ServeCore core;
  const Reply reply = core.execute(make_request(Op::kScreenExact));
  ASSERT_EQ(reply.op, Op::kOk);
  ExactScreenReply served;
  ASSERT_TRUE(decode_exact_reply(reply.payload, &served));

  const ScapScreenResult expected = scap_screen_patterns(
      fix().setup.soc, fix().setup.lib, fix().setup.ctx, fix().patterns,
      uniform_thresholds(fix().threshold_mw), /*hot_block=*/0);
  EXPECT_EQ(served.violates, expected.violates);
  // The fixture threshold sits mid-range, so both outcomes must occur.
  const std::size_t violations = expected.count_violations();
  EXPECT_GT(violations, 0u);
  EXPECT_LT(violations, expected.violates.size());
}

TEST(ServeCore, FaultGradeMatchesFaultSimulator) {
  ServeCore core;
  const Reply reply = core.execute(make_request(Op::kFaultGrade));
  ASSERT_EQ(reply.op, Op::kOk);
  std::vector<std::size_t> served;
  ASSERT_TRUE(decode_grade_reply(reply.payload, &served));

  // Same sampling recipe as the daemon / fuzz harness.
  const Netlist& nl = fix().setup.soc.netlist;
  std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));
  if (fix().recipe.fault_sample > 0 &&
      fix().recipe.fault_sample < faults.size()) {
    Rng fr(fix().recipe.fault_seed);
    std::vector<std::size_t> idx(faults.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    fr.shuffle(idx);
    std::vector<TdfFault> sample;
    for (std::size_t k = 0; k < fix().recipe.fault_sample; ++k) {
      sample.push_back(faults[idx[k]]);
    }
    faults = std::move(sample);
  }
  FaultSimulator fs(nl, fix().setup.ctx);
  EXPECT_EQ(served, fs.grade(fix().patterns, faults));
}

TEST(ServeCore, BatchRepliesMatchSingles) {
  // A mixed batch over two designs must answer every slot exactly as the
  // batch-of-one path does (batching composition never changes results).
  ref::Scenario other = fix().recipe;
  other.soc_seed = 23;

  std::vector<Request> reqs;
  reqs.push_back(make_request(Op::kScapProfile));
  reqs.push_back(make_request(Op::kScreenExact));
  reqs.push_back(make_request(Op::kScreenExact));
  Request other_req = make_request(Op::kScreenExact);
  other_req.design = other.serialize();
  {
    const ref::ScenarioSetup s = ref::materialize_scenario(other);
    other_req.num_vars = static_cast<std::uint32_t>(s.ctx.num_vars());
    other_req.patterns =
        random_pattern_set(3, other_req.num_vars, 8).patterns;
  }
  reqs.push_back(other_req);
  reqs.push_back(make_request(Op::kFaultGrade));

  ServeCore batch_core;
  std::vector<const Request*> ptrs;
  for (const Request& r : reqs) ptrs.push_back(&r);
  std::vector<Reply> batched(reqs.size());
  batch_core.execute_batch(ptrs, batched);

  ServeCore single_core;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Reply one = single_core.execute(reqs[i]);
    EXPECT_EQ(batched[i].op, one.op) << "slot " << i;
    EXPECT_EQ(batched[i].payload, one.payload) << "slot " << i;
  }
}

TEST(ServeCore, RejectsInvalidRequests) {
  ServeCore core;
  {
    Request req = make_request(Op::kScapProfile);
    req.num_vars += 1;  // contradicts the design's context
    const Reply r = core.execute(req);
    ASSERT_EQ(r.op, Op::kError);
    ErrCode code{};
    std::string msg;
    ASSERT_TRUE(decode_error(r.payload, &code, &msg));
    EXPECT_EQ(code, ErrCode::kBadRequest);
  }
  {
    Request req = make_request(Op::kScreenExact);
    req.hot_block = 1000;  // out of range
    EXPECT_EQ(core.execute(req).op, Op::kError);
  }
  {
    Request req = make_request(Op::kScapProfile);
    req.design = "soc_seed not_a_number\n";
    const Reply r = core.execute(req);
    ASSERT_EQ(r.op, Op::kError);
    ErrCode code{};
    std::string msg;
    ASSERT_TRUE(decode_error(r.payload, &code, &msg));
    EXPECT_EQ(code, ErrCode::kDesignError);
  }
}

// --- design cache -----------------------------------------------------------

TEST(DesignCache, CanonicalKeyIgnoresPatternFields) {
  ref::Scenario a = fix().recipe;
  ref::Scenario b = fix().recipe;
  b.name = "different_name";
  b.num_patterns = 99;
  b.pattern_seed = 1234;
  b.droop = true;
  EXPECT_EQ(canonical_design_key(a), canonical_design_key(b));

  ref::Scenario c = fix().recipe;
  c.soc_seed += 1;
  EXPECT_NE(canonical_design_key(a), canonical_design_key(c));
}

TEST(DesignCache, SharesEntryAcrossEquivalentRecipes) {
  DesignCache cache(4);
  ref::Scenario variant = fix().recipe;
  variant.pattern_seed = 777;  // differs only in non-design fields
  const auto a = cache.get(fix().design_text);
  const auto b = cache.get(variant.serialize());
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DesignCache, EvictsLeastRecentlyUsed) {
  DesignCache cache(1);
  const auto a = cache.get(fix().design_text);
  ref::Scenario other = fix().recipe;
  other.soc_seed = 23;
  const auto b = cache.get(other.serialize());
  EXPECT_EQ(cache.size(), 1u);
  // `a` stays alive through our shared_ptr even though evicted; re-request
  // rebuilds a fresh entry rather than resurrecting the old one.
  const auto a2 = cache.get(fix().design_text);
  EXPECT_NE(a.get(), a2.get());
  EXPECT_EQ(a->hash, a2->hash);
}

TEST(WorkspacePool, ReusesReleasedAnalyzers) {
  WorkspacePool pool(fix().setup.soc, fix().setup.lib);
  EXPECT_EQ(pool.idle(), 0u);
  const PatternAnalyzer* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &lease.get();
    auto lease2 = pool.acquire();
    EXPECT_NE(&lease2.get(), first);  // concurrent leases are distinct
  }
  EXPECT_EQ(pool.idle(), 2u);
  auto lease3 = pool.acquire();
  EXPECT_EQ(pool.idle(), 1u);  // came from the freelist, not a fresh build
}

// --- journal ----------------------------------------------------------------

TEST(Journal, RecordRoundTrip) {
  JournalRecord rec;
  rec.seq = 42;
  rec.request = make_request(Op::kScreenExact);
  rec.resp_op = Op::kOk;
  rec.resp_len = 123;
  rec.resp_crc = 0xDEADBEEFCAFEF00Dull;

  const JournalRecord back = parse_record(serialize_record(rec));
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.request.op, rec.request.op);
  EXPECT_EQ(back.request.hot_block, rec.request.hot_block);
  EXPECT_EQ(back.request.threshold_mw, rec.request.threshold_mw);
  EXPECT_EQ(back.request.num_vars, rec.request.num_vars);
  ASSERT_EQ(back.request.patterns.size(), rec.request.patterns.size());
  for (std::size_t i = 0; i < rec.request.patterns.size(); ++i) {
    EXPECT_EQ(back.request.patterns[i].s1, rec.request.patterns[i].s1);
  }
  EXPECT_EQ(back.resp_op, rec.resp_op);
  EXPECT_EQ(back.resp_len, rec.resp_len);
  EXPECT_EQ(back.resp_crc, rec.resp_crc);
  // The embedded design must decode to the same canonical design.
  EXPECT_EQ(canonical_design_key(ref::Scenario::parse(back.request.design)),
            canonical_design_key(fix().recipe));
}

TEST(Journal, ReplayVerifiesAndDetectsCorruption) {
  ServeCore core;
  std::vector<JournalRecord> records;
  std::uint64_t seq = 0;
  for (Op op : {Op::kScapProfile, Op::kScreenExact}) {
    const Request req = make_request(op);
    const Reply reply = core.execute(req);
    ASSERT_EQ(reply.op, Op::kOk);
    JournalRecord rec;
    rec.seq = seq++;
    rec.request = req;
    rec.resp_op = reply.op;
    rec.resp_len = static_cast<std::uint32_t>(reply.payload.size());
    rec.resp_crc = fnv1a64(reply.payload);
    records.push_back(std::move(rec));
  }

  ServeCore fresh;
  const ReplayResult good = replay_journal(records, fresh);
  EXPECT_EQ(good.records, records.size());
  EXPECT_EQ(good.mismatches, 0u) << good.detail;

  records[1].resp_crc ^= 1;  // single-bit corruption must be caught
  ServeCore fresh2;
  const ReplayResult bad = replay_journal(records, fresh2);
  EXPECT_EQ(bad.mismatches, 1u);
  EXPECT_FALSE(bad.detail.empty());
}

// Defense in depth behind the decode-time validation: even if an
// unserializable request somehow reaches the journal, append must swallow
// the failure (it runs on the dispatcher thread with no handler above it)
// and keep journaling later requests.
TEST(Journal, AppendSurvivesUnserializableRequest) {
  const std::string path =
      "/tmp/scap_serve_test_" + std::to_string(::getpid()) + "_skip.journal";
  ::unlink(path.c_str());
  {
    JournalWriter w(path);
    ASSERT_TRUE(w.ok());
    Request bad = make_request(Op::kScreenExact);
    bad.design = "garbage";  // KvDoc line with no value: serialize throws
    w.append(bad, Reply{Op::kError, {}});
    EXPECT_TRUE(w.ok());
    w.append(make_request(Op::kScreenExact), Reply{Op::kOk, {}});
  }
  std::string err;
  const std::vector<JournalRecord> records = read_journal_file(path, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(records.size(), 1u);  // only the serializable request landed
  ::unlink(path.c_str());
}

// Reopening an existing journal must continue its sequence numbers, not
// restart at 0 -- duplicate seq would make replay mismatch reports ambiguous.
TEST(Journal, SequenceContinuesAcrossReopen) {
  const std::string path =
      "/tmp/scap_serve_test_" + std::to_string(::getpid()) + "_seq.journal";
  ::unlink(path.c_str());
  const Request req = make_request(Op::kScreenExact);
  {
    JournalWriter w(path);
    w.append(req, Reply{Op::kOk, {}});
    w.append(req, Reply{Op::kOk, {}});
  }
  {
    JournalWriter w(path);  // daemon restart with the same --journal path
    w.append(req, Reply{Op::kOk, {}});
  }
  std::string err;
  const std::vector<JournalRecord> records = read_journal_file(path, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
  ::unlink(path.c_str());
}

TEST(Journal, StreamRoundTripThroughText) {
  ServeCore core;
  const Request req = make_request(Op::kScapProfile);
  const Reply reply = core.execute(req);
  JournalRecord rec;
  rec.seq = 0;
  rec.request = req;
  rec.resp_op = reply.op;
  rec.resp_len = static_cast<std::uint32_t>(reply.payload.size());
  rec.resp_crc = fnv1a64(reply.payload);

  std::stringstream ss;
  ss << serialize_record(rec) << "\n" << serialize_record(rec) << "\n";
  const std::vector<JournalRecord> parsed = read_journal(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].resp_crc, rec.resp_crc);
}

// --- live server ------------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/scap_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

struct LiveServer {
  ServerOptions opt;
  Server server;

  explicit LiveServer(ServerOptions o) : opt(std::move(o)), server(opt) {
    std::string err;
    if (!server.start(&err)) throw std::runtime_error("start: " + err);
  }
  ~LiveServer() { server.stop(); }

  Client connect() {
    std::string err;
    Client c = opt.unix_path.empty()
                   ? Client::connect_tcp("127.0.0.1", server.tcp_port(), &err)
                   : Client::connect_unix(opt.unix_path, &err);
    EXPECT_TRUE(c.connected()) << err;
    return c;
  }
};

TEST(Server, PingEchoAndZeroLengthPayload) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("ping");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  Request ping;
  ping.op = Op::kPing;
  ping.blob = {1, 2, 3, 4};
  Reply reply;
  std::string err;
  ASSERT_TRUE(c.call(ping, &reply, &err)) << err;
  EXPECT_EQ(reply.op, Op::kOk);
  EXPECT_EQ(reply.payload, ping.blob);

  ping.blob.clear();  // zero-length payload is a legal frame
  ASSERT_TRUE(c.call(ping, &reply, &err)) << err;
  EXPECT_EQ(reply.op, Op::kOk);
  EXPECT_TRUE(reply.payload.empty());
}

TEST(Server, ServesProfileOverUnixSocket) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("profile");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  Reply reply;
  std::string err;
  ASSERT_TRUE(c.call(make_request(Op::kScapProfile), &reply, &err)) << err;
  ASSERT_EQ(reply.op, Op::kOk);

  ServeCore core;
  const Reply direct = core.execute(make_request(Op::kScapProfile));
  EXPECT_EQ(reply.payload, direct.payload);
}

TEST(Server, ServesOverTcpLoopback) {
  ServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  LiveServer ls(std::move(opt));
  ASSERT_GT(ls.server.tcp_port(), 0);
  Client c = ls.connect();

  Request ping;
  ping.op = Op::kPing;
  ping.blob = {9};
  Reply reply;
  std::string err;
  ASSERT_TRUE(c.call(ping, &reply, &err)) << err;
  EXPECT_EQ(reply.payload, ping.blob);
}

TEST(Server, StatsExposeServeCounters) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("stats");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  Reply reply;
  std::string err;
  ASSERT_TRUE(c.call(make_request(Op::kScreenExact), &reply, &err)) << err;
  ASSERT_EQ(reply.op, Op::kOk);

  Request stats;
  stats.op = Op::kStats;
  ASSERT_TRUE(c.call(stats, &reply, &err)) << err;
  ASSERT_EQ(reply.op, Op::kOk);
  const util::KvDoc doc = util::KvDoc::parse(
      std::string(reply.payload.begin(), reply.payload.end()));
  EXPECT_GE(doc.get_u64("serve.requests", 0), 1u);
}

TEST(Server, BadMagicGetsErrorThenHangup) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("magic");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  WireWriter w;
  w.u32(0x0BADF00D);  // not SCP1
  w.u16(1);
  w.u16(0);
  w.u32(0);
  ASSERT_TRUE(c.send_raw(w.data()));
  Reply reply;
  ASSERT_TRUE(c.read_reply(&reply));
  ASSERT_EQ(reply.op, Op::kError);
  ErrCode code{};
  std::string msg;
  ASSERT_TRUE(decode_error(reply.payload, &code, &msg));
  EXPECT_EQ(code, ErrCode::kBadFrame);
  EXPECT_FALSE(c.read_reply(&reply));  // server hung up after the error

  // The daemon itself must remain healthy for new connections.
  Client c2 = ls.connect();
  Request ping;
  ping.op = Op::kPing;
  std::string err;
  ASSERT_TRUE(c2.call(ping, &reply, &err)) << err;
}

TEST(Server, OversizedLengthGetsErrorThenHangup) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("oversized");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  WireWriter w;
  w.u32(kMagic);
  w.u16(static_cast<std::uint16_t>(Op::kPing));
  w.u16(0);
  w.u32(kMaxPayload + 1);  // length the server must refuse to allocate
  ASSERT_TRUE(c.send_raw(w.data()));
  Reply reply;
  ASSERT_TRUE(c.read_reply(&reply));
  ASSERT_EQ(reply.op, Op::kError);
  ErrCode code{};
  std::string msg;
  ASSERT_TRUE(decode_error(reply.payload, &code, &msg));
  EXPECT_EQ(code, ErrCode::kOversized);
  EXPECT_FALSE(c.read_reply(&reply));
}

TEST(Server, TruncatedHeaderThenCloseLeavesServerHealthy) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("trunc");
  LiveServer ls(std::move(opt));
  {
    Client c = ls.connect();
    const std::vector<std::uint8_t> half{0x53, 0x43, 0x50};  // "SCP", cut off
    ASSERT_TRUE(c.send_raw(half));
    c.close();  // mid-header hangup
  }
  Client c2 = ls.connect();
  Request ping;
  ping.op = Op::kPing;
  Reply reply;
  std::string err;
  ASSERT_TRUE(c2.call(ping, &reply, &err)) << err;
  EXPECT_EQ(reply.op, Op::kOk);
}

TEST(Server, UnknownOpcodeGetsCleanErrorAndConnectionSurvives) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("unknown");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  // 99 was never assigned; 2 is the retired static screen, sent here with a
  // well-formed compute payload.
  const std::vector<std::uint8_t> compute =
      encode_request(make_request(Op::kScreenExact));
  Reply reply;
  for (const std::uint16_t opcode : {std::uint16_t{99}, std::uint16_t{2}}) {
    const std::vector<std::uint8_t> payload =
        opcode == 2 ? compute : std::vector<std::uint8_t>{};
    WireWriter w;
    w.u32(kMagic);
    w.u16(opcode);
    w.u16(0);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload);
    ASSERT_TRUE(c.send_raw(w.data()));
    ASSERT_TRUE(c.read_reply(&reply));
    ASSERT_EQ(reply.op, Op::kError) << "opcode " << opcode;
    ErrCode code{};
    std::string msg;
    ASSERT_TRUE(decode_error(reply.payload, &code, &msg));
    EXPECT_EQ(code, ErrCode::kUnknownOp) << "opcode " << opcode;
  }

  // Unlike a framing error, an unknown opcode keeps the connection usable.
  Request ping;
  ping.op = Op::kPing;
  std::string err;
  ASSERT_TRUE(c.call(ping, &reply, &err)) << err;
  EXPECT_EQ(reply.op, Op::kOk);
}

TEST(Server, MalformedComputePayloadGetsBadRequest) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("badreq");
  LiveServer ls(std::move(opt));
  Client c = ls.connect();

  WireWriter w;
  w.u32(kMagic);
  w.u16(static_cast<std::uint16_t>(Op::kScapProfile));
  w.u16(0);
  w.u32(3);
  w.u8(1);
  w.u8(2);
  w.u8(3);  // 3 bytes of garbage as the payload
  ASSERT_TRUE(c.send_raw(w.data()));
  Reply reply;
  ASSERT_TRUE(c.read_reply(&reply));
  ASSERT_EQ(reply.op, Op::kError);
  ErrCode code{};
  std::string msg;
  ASSERT_TRUE(decode_error(reply.payload, &code, &msg));
  EXPECT_EQ(code, ErrCode::kBadRequest);
}

// Regression for the daemon-killing REVIEW issue: a compute request whose
// design text is not KvDoc must bounce with kBadRequest at admission -- it
// must never be executed, journaled (where serialization would throw on the
// dispatcher thread), or crash the daemon.
TEST(Server, NonKvDocDesignRejectedWithoutKillingJournalingDaemon) {
  const std::string journal_path =
      "/tmp/scap_serve_test_" + std::to_string(::getpid()) + "_bad.journal";
  ::unlink(journal_path.c_str());
  {
    ServerOptions opt;
    opt.unix_path = test_socket_path("baddesign");
    opt.journal_path = journal_path;
    LiveServer ls(std::move(opt));
    Client c = ls.connect();

    Request bad = make_request(Op::kScreenExact);
    bad.design = "garbage";  // a KvDoc line with no value
    const std::vector<std::uint8_t> payload = encode_request(bad);
    WireWriter frame;
    frame.u32(kMagic);
    frame.u16(static_cast<std::uint16_t>(Op::kScreenExact));
    frame.u16(0);
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.bytes(payload);
    ASSERT_TRUE(c.send_raw(frame.data()));
    Reply reply;
    ASSERT_TRUE(c.read_reply(&reply));
    ASSERT_EQ(reply.op, Op::kError);
    ErrCode code{};
    std::string msg;
    ASSERT_TRUE(decode_error(reply.payload, &code, &msg));
    EXPECT_EQ(code, ErrCode::kBadRequest);

    // The daemon (and this very connection) must still serve valid work.
    std::string err;
    ASSERT_TRUE(c.call(make_request(Op::kScreenExact), &reply, &err)) << err;
    EXPECT_EQ(reply.op, Op::kOk);
  }
  std::string err;
  const std::vector<JournalRecord> records =
      read_journal_file(journal_path, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(records.size(), 1u);  // only the valid request was journaled
  ServeCore fresh;
  EXPECT_EQ(replay_journal(records, fresh).mismatches, 0u);
  ::unlink(journal_path.c_str());
}

// The admission queue is bounded by decoded bytes, not just entry count: a
// tiny queue_max_bytes must trip kBusy long before queue_capacity does.
TEST(Server, ByteBoundedQueueRepliesBusy) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("bytebusy");
  opt.queue_capacity = 64;  // far above what the byte bound admits
  opt.queue_max_bytes = 1;
  LiveServer ls(std::move(opt));
  ls.server.pause_dispatch(true);

  Client a = ls.connect();
  Client b = ls.connect();
  const std::vector<std::uint8_t> payload =
      encode_request(make_request(Op::kScreenExact));
  WireWriter frame;
  frame.u32(kMagic);
  frame.u16(static_cast<std::uint16_t>(Op::kScreenExact));
  frame.u16(0);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.bytes(payload);

  // Admitted despite blowing the byte budget: an empty queue always accepts
  // one request so an oversized submission cannot starve.
  ASSERT_TRUE(a.send_raw(frame.data()));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(b.send_raw(frame.data()));  // over budget -> immediate kBusy
  Reply breply;
  ASSERT_TRUE(b.read_reply(&breply));
  EXPECT_EQ(breply.op, Op::kBusy);

  ls.server.pause_dispatch(false);
  Reply areply;
  ASSERT_TRUE(a.read_reply(&areply));
  EXPECT_EQ(areply.op, Op::kOk);
}

// A start() that fails after binding the Unix socket (here: unopenable
// journal path) must not strand the socket file on disk.
TEST(Server, FailedStartDoesNotStrandSocketFile) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("failstart");
  opt.journal_path = "/nonexistent_dir_for_scap_serve_test/x.journal";
  Server server(opt);
  std::string err;
  EXPECT_FALSE(server.start(&err));
  EXPECT_NE(err.find("journal"), std::string::npos) << err;
  struct stat st {};
  EXPECT_NE(::stat(opt.unix_path.c_str(), &st), 0)
      << "socket file stranded by failed start()";
}

TEST(Server, BoundedQueueRepliesBusy) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("busy");
  opt.queue_capacity = 1;
  LiveServer ls(std::move(opt));
  ls.server.pause_dispatch(true);  // hold the queue so it can fill

  Client a = ls.connect();
  Client b = ls.connect();
  const std::vector<std::uint8_t> payload =
      encode_request(make_request(Op::kScreenExact));
  WireWriter frame;
  frame.u32(kMagic);
  frame.u16(static_cast<std::uint16_t>(Op::kScreenExact));
  frame.u16(0);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.bytes(payload);

  ASSERT_TRUE(a.send_raw(frame.data()));  // admitted: queue is now full
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(b.send_raw(frame.data()));  // queue full -> immediate kBusy
  Reply breply;
  ASSERT_TRUE(b.read_reply(&breply));
  EXPECT_EQ(breply.op, Op::kBusy);

  ls.server.pause_dispatch(false);  // admitted request still completes
  Reply areply;
  ASSERT_TRUE(a.read_reply(&areply));
  EXPECT_EQ(areply.op, Op::kOk);
}

TEST(Server, StopDrainsAdmittedRequests) {
  ServerOptions opt;
  opt.unix_path = test_socket_path("drain");
  LiveServer ls(std::move(opt));
  ls.server.pause_dispatch(true);

  Client c = ls.connect();
  const std::vector<std::uint8_t> payload =
      encode_request(make_request(Op::kScapProfile));
  WireWriter frame;
  frame.u32(kMagic);
  frame.u16(static_cast<std::uint16_t>(Op::kScapProfile));
  frame.u16(0);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.bytes(payload);
  ASSERT_TRUE(c.send_raw(frame.data()));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // stop() must override the pause, answer the admitted request, then close.
  ls.server.stop();
  Reply reply;
  ASSERT_TRUE(c.read_reply(&reply));
  EXPECT_EQ(reply.op, Op::kOk);
  EXPECT_FALSE(c.read_reply(&reply));  // then EOF
}

TEST(Server, JournalCapturesServedRequestsAndReplays) {
  const std::string journal_path =
      "/tmp/scap_serve_test_" + std::to_string(::getpid()) + ".journal";
  {
    ServerOptions opt;
    opt.unix_path = test_socket_path("journal");
    opt.journal_path = journal_path;
    LiveServer ls(std::move(opt));
    Client c = ls.connect();
    Reply reply;
    std::string err;
    for (Op op : {Op::kScapProfile, Op::kScreenExact, Op::kFaultGrade}) {
      ASSERT_TRUE(c.call(make_request(op), &reply, &err)) << err;
      ASSERT_EQ(reply.op, Op::kOk);
    }
  }  // stop() flushes and closes the journal

  std::string err;
  const std::vector<JournalRecord> records =
      read_journal_file(journal_path, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_EQ(records.size(), 3u);
  ServeCore fresh;
  const ReplayResult res = replay_journal(records, fresh);
  EXPECT_EQ(res.mismatches, 0u) << res.detail;
  ::unlink(journal_path.c_str());
}

}  // namespace
}  // namespace scap::serve
