#include "netlist/cell_type.h"

#include <array>

namespace scap {

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
