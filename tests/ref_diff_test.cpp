// Differential-oracle regression suite.
//
// Every file under tests/corpus/ (compiled in as SCAP_CORPUS_DIR) is
// registered as its own test case and replayed through run_scenario,
// asserting zero divergence between the optimized kernels and the src/ref
// oracles. A divergent corpus entry is a regression in whichever kernel the
// entry's checks cover -- the failure message names the oracle and the
// mismatching quantity.
//
// The suite also runs a small in-process fuzz smoke, the shrinking
// self-test (injected bugs must be caught and minimized), and the Scenario /
// KvDoc serialization round-trips the corpus format depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ref/fuzz.h"
#include "ref/scenario.h"
#include "util/kv.h"

namespace scap::ref {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir = SCAP_CORPUS_DIR;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".scenario") {
        files.push_back(e.path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, NoDivergence) {
  const Scenario sc = Scenario::parse(slurp(GetParam()));
  ASSERT_GT(sc.enabled_checks(), 0u) << GetParam() << " checks nothing";
  const ScenarioResult r = run_scenario(sc);
  for (const Divergence& d : r.divergences) {
    ADD_FAILURE() << "[" << d.oracle << "] " << d.detail;
  }
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         ::testing::ValuesIn(corpus_files()), param_name);

TEST(CorpusDir, SeedCorpusPresent) {
  // The hand-picked seed corpus must never silently disappear.
  EXPECT_GE(corpus_files().size(), 5u);
}

TEST(FuzzSmoke, RandomScenariosAgree) {
  FuzzOptions opt;
  opt.iterations = 25;
  opt.seed = 0x5eed;
  opt.shrink = false;  // a failure here is reported, not minimized
  const FuzzStats st = run_fuzz(opt);
  EXPECT_EQ(st.executed, opt.iterations);
  for (const FailureReport& f : st.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": [" << f.divergence.oracle << "] "
                  << f.divergence.detail;
  }
}

TEST(SelfTest, InjectedBugsAreCaughtAndShrunk) {
  std::ostringstream log;
  const bool ok = run_self_test(&log, /*max_repro_patterns=*/3);
  EXPECT_TRUE(ok) << log.str();
}

TEST(ScenarioSerialization, RoundTripsByteStable) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const Scenario sc = Scenario::random(seed);
    const std::string text = sc.serialize();
    const Scenario back = Scenario::parse(text);
    EXPECT_EQ(back.serialize(), text) << "seed " << seed;
  }
}

TEST(ScenarioSerialization, RandomDrawsArePinnedPerSeed) {
  // Scenario::random's fields for five seeds, recorded before the mesh's
  // void and jitter fields and the grade width were retired (minus those
  // three lines). A retired field whose draw is dropped instead of consumed
  // shifts every later field and fails here.
  const struct {
    std::uint64_t seed;
    const char* text;
  } pinned[] = {
      {1, R"(# scap_fuzz scenario v1
name fuzz_1
soc_seed 14971601782005023387
flops_scale 0.81032853711866404
scan_chains 5
gates_per_flop 6.4773012237008629
domain 0
scheme 2
num_patterns 6
pattern_skip 0
pattern_seed 9655336933892813345
fill_mode_raw 18446744073709551615
x_fraction 0.13429378204468956
droop false
droop_seed 6336475467619303347
droop_max_v 0.021729519968756515
droop_alternate true
grid_nx 13
grid_ny 24
grid_sources 4
grid_seed 10277292511068429730
fault_sample 35
fault_seed 17670016435951889822
check_sim true
check_scap true
check_grade true
check_grid true
)"},
      {2, R"(# scap_fuzz scenario v1
name fuzz_2
soc_seed 14116099294885116970
flops_scale 0.65287203032375163
scan_chains 4
gates_per_flop 3.76238083261594
domain 1
scheme 0
num_patterns 1
pattern_skip 0
pattern_seed 13672081973823004183
fill_mode_raw 18446744073709551615
x_fraction 0.86374387631611016
droop false
droop_seed 12726614133470775006
droop_max_v 0.20246358572405956
droop_alternate true
grid_nx 20
grid_ny 11
grid_sources 1
grid_seed 10398480724789949516
fault_sample 28
fault_seed 4131832357971256236
check_sim true
check_scap true
check_grade true
check_grid true
)"},
      {3, R"(# scap_fuzz scenario v1
name fuzz_3
soc_seed 949111157599856937
flops_scale 0.7359381596494512
scan_chains 6
gates_per_flop 7.0689341623791577
domain 0
scheme 0
num_patterns 6
pattern_skip 0
pattern_seed 11520309155721947287
fill_mode_raw 0
x_fraction 0.57669632708909357
droop true
droop_seed 6539017615540506349
droop_max_v 0.13778294882968092
droop_alternate false
grid_nx 4
grid_ny 4
grid_sources 18
grid_seed 14053674625491806340
fault_sample 17
fault_seed 10921768710064968898
check_sim true
check_scap true
check_grade true
check_grid true
)"},
      {77, R"(# scap_fuzz scenario v1
name fuzz_77
soc_seed 6794626775825142462
flops_scale 0.77131195228863192
scan_chains 6
gates_per_flop 3.2967149899628807
domain 1
scheme 2
num_patterns 1
pattern_skip 0
pattern_seed 4747593582404241619
fill_mode_raw 1
x_fraction 0.92308761881870505
droop true
droop_seed 1076344355409159069
droop_max_v 0.047583911588595783
droop_alternate true
grid_nx 8
grid_ny 14
grid_sources 9
grid_seed 5197377633971778764
fault_sample 48
fault_seed 6629367177026806624
check_sim true
check_scap true
check_grade true
check_grid true
)"},
      {1234, R"(# scap_fuzz scenario v1
name fuzz_1234
soc_seed 13965075828013061239
flops_scale 0.56822870171740492
scan_chains 6
gates_per_flop 2.0404003487765809
domain 1
scheme 2
num_patterns 3
pattern_skip 0
pattern_seed 16894014828112847807
fill_mode_raw 1
x_fraction 0.89264495212767325
droop true
droop_seed 2713747978234715150
droop_max_v 0.017540272596919669
droop_alternate true
grid_nx 20
grid_ny 10
grid_sources 13
grid_seed 12175637275397204893
fault_sample 28
fault_seed 10722747117448611729
check_sim true
check_scap true
check_grade true
check_grid true
)"},
  };
  for (const auto& p : pinned) {
    EXPECT_EQ(Scenario::random(p.seed).serialize(), p.text)
        << "seed " << p.seed;
  }
}

TEST(ScenarioSerialization, MissingKeysKeepDefaults) {
  const Scenario sc = Scenario::parse("num_patterns 7\n");
  const Scenario def;
  EXPECT_EQ(sc.num_patterns, 7u);
  EXPECT_EQ(sc.soc_seed, def.soc_seed);
  EXPECT_EQ(sc.check_grid, def.check_grid);
  EXPECT_EQ(sc.fill_mode, def.fill_mode);
}

TEST(KvDoc, RoundTripAndTypedAccess) {
  util::KvDoc doc;
  doc.comment("header");
  doc.set("name", "a value with spaces");
  doc.set_u64("n", 42);
  doc.set_f64("x", 0.1);
  doc.set_bool("flag", true);
  const std::string text = doc.to_string();

  const util::KvDoc back = util::KvDoc::parse(text);
  EXPECT_EQ(back.get("name"), "a value with spaces");
  EXPECT_EQ(back.get_u64("n", 0), 42u);
  EXPECT_DOUBLE_EQ(back.get_f64("x", 0.0), 0.1);
  EXPECT_TRUE(back.get_bool("flag", false));
  EXPECT_EQ(back.get_u64("missing", 7), 7u);
}

TEST(KvDoc, RejectsMalformedInput) {
  EXPECT_THROW(util::KvDoc::parse(std::string("orphan-key\n")),
               std::runtime_error);
  EXPECT_THROW(util::KvDoc::parse(std::string("k 1\nk 2\n")),
               std::runtime_error);
  const util::KvDoc doc = util::KvDoc::parse(std::string("k notanumber\n"));
  EXPECT_THROW(doc.get_u64("k", 0), std::runtime_error);
  EXPECT_THROW(doc.get_f64("k", 0.0), std::runtime_error);
  EXPECT_THROW(doc.get_bool("k", false), std::runtime_error);
}

}  // namespace
}  // namespace scap::ref
