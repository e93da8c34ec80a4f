#include <gtest/gtest.h>

#include "netlist/verilog.h"
#include "soc/generator.h"
#include "soc/soc_config.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

TEST(SocConfig, ScaledShapesMatchPaper) {
  const SocConfig cfg = SocConfig::turbo_eagle_scaled(0.1);
  EXPECT_EQ(cfg.domain_freq_mhz.size(), 6u);
  EXPECT_DOUBLE_EQ(cfg.domain_freq_mhz[0], 100.0);
  EXPECT_EQ(cfg.scan_chains, 16u);
  // clka (domain 0) dominates: > 70% of flops.
  std::size_t clka = 0;
  for (const auto& p : cfg.population) {
    if (p.domain == 0) clka += p.flops;
  }
  EXPECT_GT(static_cast<double>(clka) / cfg.total_flops(), 0.70);
  // B5 (block 4) is the biggest block.
  std::vector<std::size_t> per_block(6, 0);
  for (const auto& p : cfg.population) per_block[p.block] += p.flops;
  for (std::size_t b = 0; b < 6; ++b) {
    if (b != 4) {
      EXPECT_GT(per_block[4], per_block[b]);
    }
  }
  EXPECT_DOUBLE_EQ(cfg.period_ns(0), 10.0);
}

TEST(SocGenerator, PopulationMatchesConfig) {
  const SocConfig cfg = SocConfig::tiny(3);
  const Netlist nl = generate_soc_netlist(cfg);
  EXPECT_EQ(nl.num_flops(), cfg.total_flops());
  EXPECT_EQ(nl.primary_inputs().size(), cfg.primary_inputs);
  EXPECT_EQ(nl.domain_count(), cfg.num_domains());

  // Per (domain, block) counts.
  std::vector<std::vector<std::size_t>> got(cfg.num_domains(),
                                            std::vector<std::size_t>(6, 0));
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    ++got[nl.flop(f).domain][nl.flop(f).block];
  }
  for (const auto& p : cfg.population) {
    EXPECT_EQ(got[p.domain][p.block], p.flops)
        << "domain " << int(p.domain) << " block " << p.block;
  }
}

TEST(SocGenerator, GateBudgetApproximatelyMet) {
  const SocConfig cfg = SocConfig::tiny(3);
  const Netlist nl = generate_soc_netlist(cfg);
  // Budgeted combinational gates plus one hold-mux per enable-gated flop.
  const double expect =
      static_cast<double>(cfg.total_flops()) *
      (cfg.gates_per_flop + cfg.enabled_flop_fraction);
  EXPECT_NEAR(static_cast<double>(nl.num_gates()), expect, 0.15 * expect);
}

TEST(SocGenerator, NegEdgeFlopCount) {
  const SocConfig cfg = SocConfig::tiny(3);
  const Netlist nl = generate_soc_netlist(cfg);
  std::size_t neg = 0;
  for (FlopId f = 0; f < nl.num_flops(); ++f) neg += nl.flop(f).neg_edge;
  EXPECT_EQ(neg, cfg.neg_edge_flops);
}

TEST(SocGenerator, DeterministicForSeed) {
  const SocConfig cfg = SocConfig::tiny(7);
  const std::string a = to_verilog(generate_soc_netlist(cfg));
  const std::string b = to_verilog(generate_soc_netlist(cfg));
  EXPECT_EQ(a, b);
}

TEST(SocGenerator, SeedsProduceDifferentDesigns) {
  const std::string a = to_verilog(generate_soc_netlist(SocConfig::tiny(7)));
  const std::string b = to_verilog(generate_soc_netlist(SocConfig::tiny(8)));
  EXPECT_NE(a, b);
}

TEST(SocGenerator, LogicDepthInUsefulRange) {
  // Launch paths must be deep enough that the switching window spans a real
  // fraction of the cycle, but must not blow past the at-speed period.
  const SocDesign& soc = test::small_soc();
  EXPECT_GE(soc.netlist.max_level(), 8u);
  EXPECT_LE(soc.netlist.max_level(), 80u);
}

TEST(SocGenerator, NoDanglingGateOutputs) {
  const SocConfig cfg = SocConfig::tiny(3);
  const Netlist nl = generate_soc_netlist(cfg);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Net& nr = nl.net(nl.gate(g).out);
    EXPECT_TRUE(nr.fo_count > 0 || nr.ffo_count > 0 || nr.is_po)
        << "gate " << g << " output floats";
  }
}

TEST(SocGenerator, CrossBlockTrafficExists) {
  const SocDesign& soc = test::small_soc();
  const Netlist& nl = soc.netlist;
  std::size_t cross = 0, total = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (NetId in : nl.gate_inputs(g)) {
      ++total;
      const Net& nr = nl.net(in);
      BlockId src = nl.gate(g).block;
      if (nr.driver_kind == DriverKind::kGate) src = nl.gate(nr.driver).block;
      if (nr.driver_kind == DriverKind::kFlop) src = nl.flop(nr.driver).block;
      cross += (src != nl.gate(g).block);
    }
  }
  const double frac = static_cast<double>(cross) / static_cast<double>(total);
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.25);
}

TEST(ScanChains, PartitionIsCompleteAndDisjoint) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains& sc = soc.scan;
  EXPECT_EQ(sc.chains.size(), soc.config.scan_chains);
  std::vector<int> seen(soc.netlist.num_flops(), 0);
  for (const auto& chain : sc.chains) {
    for (FlopId f : chain) ++seen[f];
  }
  for (FlopId f = 0; f < soc.netlist.num_flops(); ++f) {
    EXPECT_EQ(seen[f], 1) << "flop " << f;
  }
}

TEST(ScanChains, NegEdgeFlopsSegregated) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains& sc = soc.scan;
  for (FlopId f : sc.chains[0]) {
    EXPECT_TRUE(soc.netlist.flop(f).neg_edge);
  }
  for (std::size_t c = 1; c < sc.chains.size(); ++c) {
    for (FlopId f : sc.chains[c]) {
      EXPECT_FALSE(soc.netlist.flop(f).neg_edge);
    }
  }
}

TEST(ScanChains, IndexMapsConsistent) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains& sc = soc.scan;
  for (std::size_t c = 0; c < sc.chains.size(); ++c) {
    for (std::size_t i = 0; i < sc.chains[c].size(); ++i) {
      const FlopId f = sc.chains[c][i];
      EXPECT_EQ(sc.chain_of(f), c);
      EXPECT_EQ(sc.position_of(f), i);
    }
  }
}

TEST(ScanChains, SerpentineBeatsRandomOrderWirelength) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains& sc = soc.scan;
  const double ordered = sc.wirelength_um(soc.placement);

  // Shuffle each chain and compare.
  ScanChains shuffled = sc;
  Rng rng(5);
  double shuffled_len = 0.0;
  for (auto& chain : shuffled.chains) {
    rng.shuffle(chain);
  }
  shuffled_len = shuffled.wirelength_um(soc.placement);
  EXPECT_LT(ordered, 0.8 * shuffled_len);
}

TEST(ScanChains, BalancedLengths) {
  const SocDesign& soc = test::tiny_soc();
  const ScanChains& sc = soc.scan;
  // Data chains (1..n-1) should be within 2x of each other.
  std::size_t min_len = SIZE_MAX, max_len = 0;
  for (std::size_t c = 1; c < sc.chains.size(); ++c) {
    if (sc.chains[c].empty()) continue;
    min_len = std::min(min_len, sc.chains[c].size());
    max_len = std::max(max_len, sc.chains[c].size());
  }
  EXPECT_LE(max_len, 2 * min_len + 1);
  EXPECT_EQ(sc.max_chain_length(), max_len);
}

TEST(BuildSoc, FullFlowProducesConsistentDesign) {
  const SocDesign& soc = test::tiny_soc();
  EXPECT_TRUE(soc.netlist.finalized());
  EXPECT_EQ(soc.placement.num_gates(), soc.netlist.num_gates());
  EXPECT_EQ(soc.placement.num_flops(), soc.netlist.num_flops());
  EXPECT_GT(soc.clock_tree.buffer_count(), 0u);
  EXPECT_GT(soc.parasitics.total_load_pf(), 0.0);
  EXPECT_EQ(soc.dominant_domain(), 0);
  EXPECT_DOUBLE_EQ(soc.period_ns(0), 10.0);
}

}  // namespace
}  // namespace scap
