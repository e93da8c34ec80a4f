// Dataflow engine tests: hand-computed SCOAP values on small fixtures,
// constant inference with held primary inputs, and 3-valued X-propagation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lint/dataflow.h"

namespace scap {
namespace {

using lint::analyze_dataflow;
using lint::DataflowFacts;
using lint::DataflowOptions;
using lint::kInfCost;

// ---------------------------------------------------------------------------
// SCOAP controllability / observability, hand-computed.
// ---------------------------------------------------------------------------

TEST(Scoap, AndChainHandValues) {
  // a,b,c free PIs; n1 = AND(a,b); y = AND(n1,c); y is a PO.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId n1 = nl.add_net("n1");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, b};
  nl.add_gate(CellType::kAnd2, in0, n1);
  const NetId in1[] = {n1, c};
  nl.add_gate(CellType::kAnd2, in1, y);
  nl.mark_output(y);

  const DataflowFacts f = analyze_dataflow(nl);
  // Free PIs cost 1 for either value.
  EXPECT_EQ(f.cc0[a], 1u);
  EXPECT_EQ(f.cc1[a], 1u);
  // AND: CC1 = sum CC1(in) + 1, CC0 = min CC0(in) + 1.
  EXPECT_EQ(f.cc1[n1], 3u);
  EXPECT_EQ(f.cc0[n1], 2u);
  EXPECT_EQ(f.cc1[y], 5u);
  EXPECT_EQ(f.cc0[y], 2u);
  // CO: POs cost 0; each AND level adds 1 + CC1 of the side inputs.
  EXPECT_EQ(f.co[y], 0u);
  EXPECT_EQ(f.co[n1], 2u);
  EXPECT_EQ(f.co[c], 4u);
  EXPECT_EQ(f.co[a], 4u);
  EXPECT_EQ(f.co[b], 4u);
  EXPECT_EQ(f.constant_nets, 0u);
  EXPECT_EQ(f.uncontrollable_nets, 0u);
  EXPECT_EQ(f.unobservable_nets, 0u);
}

TEST(Scoap, XorInversionAndScanSources) {
  // Scan flop Q drives XOR with a free PI; NAND swaps its core costs.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId d = nl.add_net("d");
  const NetId q = nl.add_net("q");
  const NetId x = nl.add_net("x");
  const NetId w = nl.add_net("w");
  nl.add_flop(d, q, /*domain=*/0, /*block=*/0);
  const NetId in0[] = {q, a};
  nl.add_gate(CellType::kXor2, in0, x);
  const NetId in1[] = {a, b};
  nl.add_gate(CellType::kNand2, in1, w);
  const NetId in2[] = {x};
  nl.add_gate(CellType::kBuf, in2, d);
  nl.mark_output(w);

  const DataflowFacts f = analyze_dataflow(nl);
  // Scan-cell Q: both values one shift away.
  EXPECT_EQ(f.cc0[q], 1u);
  EXPECT_EQ(f.cc1[q], 1u);
  // XOR: CC0 = min(00, 11) + 1 = 3, CC1 = min(01, 10) + 1 = 3.
  EXPECT_EQ(f.cc0[x], 3u);
  EXPECT_EQ(f.cc1[x], 3u);
  // NAND = inverted AND core: CC1 = min CC0(in) + 1, CC0 = sum CC1(in) + 1.
  EXPECT_EQ(f.cc1[w], 2u);
  EXPECT_EQ(f.cc0[w], 3u);
  // x feeds flop D through the buffer: CO(x) = CO(d) + 1 = 1, and observing
  // q through the XOR costs CO(x) + 1 + min(CC0(a), CC1(a)) = 3.
  EXPECT_EQ(f.co[d], 0u);
  EXPECT_EQ(f.co[x], 1u);
  EXPECT_EQ(f.co[q], 3u);
}

TEST(Scoap, HeldPiMakesOppositeValueUnjustifiable) {
  // PI a held at 0 feeding AND: y is provably constant 0, CC1 = inf.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, b};
  nl.add_gate(CellType::kAnd2, in0, y);
  nl.mark_output(y);

  const std::uint8_t held[] = {0, 1};
  DataflowOptions opt;
  opt.pi_values = held;
  const DataflowFacts f = analyze_dataflow(nl, opt);
  EXPECT_EQ(f.cc1[a], kInfCost);
  EXPECT_EQ(f.cc0[a], 1u);
  EXPECT_EQ(f.cc0[b], kInfCost);
  EXPECT_TRUE(f.constant[a].is0());
  EXPECT_TRUE(f.constant[b].is1());
  EXPECT_TRUE(f.constant[y].is0());
  EXPECT_EQ(f.cc1[y], kInfCost);
  // a, b and y are all constants.
  EXPECT_EQ(f.constant_nets, 3u);
  // Constant nets are excluded from the un{controllable,observable} counts.
  EXPECT_EQ(f.uncontrollable_nets, 0u);
  EXPECT_EQ(f.unobservable_nets, 0u);
}

TEST(Scoap, CombLoopIsCyclicAndUncontrollable) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  const NetId in0[] = {a, y};
  nl.add_gate(CellType::kAnd2, in0, x);
  const NetId in1[] = {x};
  nl.add_gate(CellType::kBuf, in1, y);
  nl.mark_output(x);

  const lint::LevelMap lm = lint::levelize(nl);
  EXPECT_EQ(lm.cyclic_gates, 2u);
  EXPECT_FALSE(lm.acyclic());
  const DataflowFacts f = analyze_dataflow(nl);
  // Nets driven inside the cycle never get a finite cost.
  EXPECT_EQ(f.cc0[x], kInfCost);
  EXPECT_EQ(f.cc1[x], kInfCost);
  EXPECT_EQ(f.uncontrollable_nets, 2u);
}

// ---------------------------------------------------------------------------
// Static X-propagation.
// ---------------------------------------------------------------------------

TEST(XProp, ControllingValuesMaskUnknowns) {
  // q0 = X, q1 = 0: AND masks the X, OR propagates it, INV keeps it.
  Netlist nl;
  const NetId d0 = nl.add_net("d0");
  const NetId q0 = nl.add_net("q0");
  const NetId d1 = nl.add_net("d1");
  const NetId q1 = nl.add_net("q1");
  const NetId m = nl.add_net("m");
  const NetId o = nl.add_net("o");
  const NetId v = nl.add_net("v");
  nl.add_flop(d0, q0, 0, 0);
  nl.add_flop(d1, q1, 0, 0);
  const NetId ina[] = {q0, q1};
  nl.add_gate(CellType::kAnd2, ina, m);
  nl.add_gate(CellType::kOr2, ina, o);
  const NetId inv[] = {q0};
  nl.add_gate(CellType::kInv, inv, v);
  const NetId inb[] = {m};
  nl.add_gate(CellType::kBuf, inb, d0);
  const NetId inc[] = {o};
  nl.add_gate(CellType::kBuf, inc, d1);
  nl.mark_output(v);

  const lint::LevelMap lm = lint::levelize(nl);
  const V3 flop_bits[] = {V3::x(), V3::zero()};
  std::vector<V3> nets;
  lint::eval_frame_v3(nl, lm, flop_bits, {}, nets);
  EXPECT_TRUE(nets[m].is0());  // X & 0 = 0
  EXPECT_TRUE(nets[o].is_x()); // X | 0 = X
  EXPECT_TRUE(nets[v].is_x()); // !X = X
  EXPECT_TRUE(nets[d0].is0());
  EXPECT_TRUE(nets[d1].is_x());
}

}  // namespace
}  // namespace scap
