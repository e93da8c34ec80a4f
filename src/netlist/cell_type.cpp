#include "netlist/cell_type.h"

#include <array>
#include <cassert>

namespace scap {

std::uint8_t eval_scalar(CellType t, std::span<const std::uint8_t> ins) {
  assert(static_cast<int>(ins.size()) == num_inputs(t));
  switch (t) {
    case CellType::kTie0:
      return 0;
    case CellType::kTie1:
      return 1;
    case CellType::kBuf:
    case CellType::kClkBuf:
    case CellType::kDff:  // D passthrough (combinational view of the D pin)
      return ins[0];
    case CellType::kInv:
      return ins[0] ^ 1u;
    case CellType::kAnd2:
      return ins[0] & ins[1];
    case CellType::kAnd3:
      return ins[0] & ins[1] & ins[2];
    case CellType::kAnd4:
      return ins[0] & ins[1] & ins[2] & ins[3];
    case CellType::kNand2:
      return (ins[0] & ins[1]) ^ 1u;
    case CellType::kNand3:
      return (ins[0] & ins[1] & ins[2]) ^ 1u;
    case CellType::kNand4:
      return (ins[0] & ins[1] & ins[2] & ins[3]) ^ 1u;
    case CellType::kOr2:
      return ins[0] | ins[1];
    case CellType::kOr3:
      return ins[0] | ins[1] | ins[2];
    case CellType::kOr4:
      return ins[0] | ins[1] | ins[2] | ins[3];
    case CellType::kNor2:
      return (ins[0] | ins[1]) ^ 1u;
    case CellType::kNor3:
      return (ins[0] | ins[1] | ins[2]) ^ 1u;
    case CellType::kNor4:
      return (ins[0] | ins[1] | ins[2] | ins[3]) ^ 1u;
    case CellType::kXor2:
      return ins[0] ^ ins[1];
    case CellType::kXnor2:
      return (ins[0] ^ ins[1]) ^ 1u;
    case CellType::kMux2:  // inputs [S, A, B]; output = S ? B : A
      return ins[0] ? ins[2] : ins[1];
  }
  return 0;
}

namespace {

struct NameEntry {
  CellType type;
  std::string_view name;
};

constexpr std::array<NameEntry, kNumCellTypes> kNames{{
    {CellType::kTie0, "TIE0"},   {CellType::kTie1, "TIE1"},
    {CellType::kBuf, "BUF"},     {CellType::kInv, "INV"},
    {CellType::kAnd2, "AND2"},   {CellType::kAnd3, "AND3"},
    {CellType::kAnd4, "AND4"},   {CellType::kNand2, "NAND2"},
    {CellType::kNand3, "NAND3"}, {CellType::kNand4, "NAND4"},
    {CellType::kOr2, "OR2"},     {CellType::kOr3, "OR3"},
    {CellType::kOr4, "OR4"},     {CellType::kNor2, "NOR2"},
    {CellType::kNor3, "NOR3"},   {CellType::kNor4, "NOR4"},
    {CellType::kXor2, "XOR2"},   {CellType::kXnor2, "XNOR2"},
    {CellType::kMux2, "MUX2"},   {CellType::kDff, "SDFF"},
    {CellType::kClkBuf, "CLKBUF"},
}};

}  // namespace

std::string_view cell_name(CellType t) {
  return kNames[static_cast<std::size_t>(t)].name;
}

bool cell_from_name(std::string_view name, CellType& out) {
  for (const auto& e : kNames) {
    if (e.name == name) {
      out = e.type;
      return true;
    }
  }
  return false;
}

}  // namespace scap
