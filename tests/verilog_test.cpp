#include <gtest/gtest.h>

#include "netlist/verilog.h"
#include "sim/batch_sim.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace scap {
namespace {

TEST(VerilogWriter, EmitsModuleAndCells) {
  const std::string v = to_verilog(test::tiny_netlist(), "tiny");
  EXPECT_NE(v.find("module tiny ("), std::string::npos);
  EXPECT_NE(v.find("NAND2"), std::string::npos);
  EXPECT_NE(v.find("SDFF"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input pi0;"), std::string::npos);
  EXPECT_NE(v.find(".CK(clk0)"), std::string::npos);
}

TEST(VerilogRoundTrip, PreservesStructure) {
  Netlist orig = test::tiny_netlist();
  Netlist back = parse_verilog(to_verilog(orig));
  EXPECT_EQ(back.num_gates(), orig.num_gates());
  EXPECT_EQ(back.num_flops(), orig.num_flops());
  EXPECT_EQ(back.num_nets(), orig.num_nets());
  EXPECT_EQ(back.primary_inputs().size(), orig.primary_inputs().size());
  EXPECT_EQ(back.block_count(), orig.block_count());
}

TEST(VerilogRoundTrip, GeneratedSocIsFunctionallyIdentical) {
  const Netlist& orig = test::tiny_soc().netlist;
  Netlist back = parse_verilog(to_verilog(orig));
  ASSERT_EQ(back.num_gates(), orig.num_gates());
  ASSERT_EQ(back.num_flops(), orig.num_flops());

  // Same broadside response on random states => functional identity.
  const BatchSim sim_a(orig.levelized_view(), 1);
  const BatchSim sim_b(back.levelized_view(), 1);
  Rng rng(99);
  std::vector<std::uint64_t> s1(orig.num_flops());
  for (auto& w : s1) w = rng.word();
  std::vector<std::uint64_t> pi(orig.primary_inputs().size(), 0);
  std::vector<std::uint64_t> f1a, f1b, s2a, s2b, f2a, f2b;
  sim_a.broadside(s1, pi, f1a, s2a, f2a);
  sim_b.broadside(s1, pi, f1b, s2b, f2b);
  ASSERT_EQ(s2a.size(), s2b.size());
  for (std::size_t f = 0; f < s2a.size(); ++f) {
    EXPECT_EQ(s2a[f], s2b[f]) << "flop " << f;
  }
}

TEST(VerilogRoundTrip, PreservesBlockTagsAndDomains) {
  const Netlist& orig = test::tiny_soc().netlist;
  Netlist back = parse_verilog(to_verilog(orig));
  EXPECT_EQ(back.block_count(), orig.block_count());
  EXPECT_EQ(back.domain_count(), orig.domain_count());
  for (FlopId f = 0; f < orig.num_flops(); ++f) {
    EXPECT_EQ(back.flop(f).domain, orig.flop(f).domain) << "flop " << f;
    EXPECT_EQ(back.flop(f).block, orig.flop(f).block) << "flop " << f;
    EXPECT_EQ(back.flop(f).neg_edge, orig.flop(f).neg_edge) << "flop " << f;
  }
  for (GateId g = 0; g < orig.num_gates(); ++g) {
    EXPECT_EQ(back.gate(g).block, orig.gate(g).block) << "gate " << g;
    EXPECT_EQ(back.gate(g).type, orig.gate(g).type) << "gate " << g;
  }
}

TEST(VerilogParser, HandlesComments) {
  const char* src = R"(
// line comment
module m (a, y); /* block
   comment */ input a;
  output y;
  wire y;
  INV b0_g0 (.Y(y), .A(a));  // trailing
endmodule
)";
  Netlist nl = parse_verilog(src);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.primary_inputs().size(), 1u);
}

TEST(VerilogParser, MuxPinNames) {
  const char* src = R"(
module m (s, a, b, y);
  input s; input a; input b; output y;
  wire y;
  MUX2 g0 (.Y(y), .S(s), .A(a), .B(b));
endmodule
)";
  Netlist nl = parse_verilog(src);
  ASSERT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.gate(0).type, CellType::kMux2);
  // Pin order S, A, B.
  EXPECT_EQ(nl.net_name(nl.gate_inputs(0)[0]), "s");
  EXPECT_EQ(nl.net_name(nl.gate_inputs(0)[1]), "a");
  EXPECT_EQ(nl.net_name(nl.gate_inputs(0)[2]), "b");
}

TEST(VerilogParser, UnknownCellFails) {
  const char* src = "module m (a, y); input a; output y; wire y;\n"
                    "FOO g0 (.Y(y), .A(a)); endmodule";
  EXPECT_THROW(parse_verilog(src), std::runtime_error);
}

TEST(VerilogParser, MissingPinFails) {
  const char* src = "module m (a, y); input a; output y; wire y;\n"
                    "NAND2 g0 (.Y(y), .A(a)); endmodule";
  EXPECT_THROW(parse_verilog(src), std::runtime_error);
}

TEST(VerilogParser, ErrorCarriesLineNumber) {
  const char* src = "module m (a, y);\ninput a;\noutput y;\nwire y;\n@@@";
  try {
    parse_verilog(src);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(VerilogParser, BlockTagFromInstanceName) {
  const char* src = R"(
module m (a, y);
  input a; output y;
  wire n0; wire y;
  INV b3_g0 (.Y(n0), .A(a));
  BUF plain (.Y(y), .A(n0));
endmodule
)";
  Netlist nl = parse_verilog(src);
  EXPECT_EQ(nl.gate(0).block, 3);
  EXPECT_EQ(nl.gate(1).block, 0);  // no prefix -> block 0
  EXPECT_EQ(nl.block_count(), 4);
}

TEST(VerilogParser, NegEdgeFlop) {
  const char* src = R"(
module m (y);
  output y;
  wire d; wire q; wire y;
  INV g0 (.Y(d), .A(q));
  BUF g1 (.Y(y), .A(q));
  SDFFN f0 (.Q(q), .D(d), .CK(clk0));
  input clk0;
endmodule
)";
  Netlist nl = parse_verilog(src);
  ASSERT_EQ(nl.num_flops(), 1u);
  EXPECT_TRUE(nl.flop(0).neg_edge);
}

}  // namespace
}  // namespace scap
