#include "atpg/fault.h"

#include <sstream>

namespace scap {

std::vector<TdfFault> enumerate_faults(const Netlist& nl) {
  std::vector<TdfFault> out;
  const auto both = [&](TdfFault f) {
    f.type = TdfType::kSlowToRise;
    out.push_back(f);
    f.type = TdfType::kSlowToFall;
    out.push_back(f);
  };

  for (GateId g = 0; g < nl.num_gates(); ++g) {
    both(TdfFault{nl.gate(g).out, FaultSite::kStem, kNullId, 0,
                  TdfType::kSlowToRise});
    const auto ins = nl.gate_inputs(g);
    for (std::uint8_t pin = 0; pin < ins.size(); ++pin) {
      both(TdfFault{ins[pin], FaultSite::kGateBranch, g, pin,
                    TdfType::kSlowToRise});
    }
  }
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    both(TdfFault{nl.flop(f).q, FaultSite::kStem, kNullId, 0,
                  TdfType::kSlowToRise});
    both(TdfFault{nl.flop(f).d, FaultSite::kFlopBranch, f, 0,
                  TdfType::kSlowToRise});
  }
  return out;
}

std::vector<TdfFault> collapse_faults(const Netlist& nl,
                                      const std::vector<TdfFault>& faults) {
  std::vector<TdfFault> out;
  out.reserve(faults.size());
  // A branch may fold into its stem only if the stem fault actually exists
  // in the universe (gate/flop driver); PI nets have no stem, so their
  // branch faults must survive as the class representatives.
  const auto has_stem = [&](const Net& nr) {
    return nr.driver_kind == DriverKind::kGate ||
           nr.driver_kind == DriverKind::kFlop;
  };
  for (const TdfFault& f : faults) {
    const Net& nr = nl.net(f.net);
    // Branch on a net with exactly one load in total: equivalent to the stem.
    if (f.site == FaultSite::kGateBranch && nr.fo_count == 1 &&
        nr.ffo_count == 0 && has_stem(nr)) {
      continue;
    }
    if (f.site == FaultSite::kFlopBranch && nr.fo_count == 0 &&
        nr.ffo_count == 1 && has_stem(nr)) {
      continue;
    }
    // Output stem of a BUF/INV: equivalent to the fault at its input pin
    // (polarity-swapped for INV), which is itself represented by the input
    // net's stem or branch fault -- provided that input-side fault exists.
    if (f.site == FaultSite::kStem && nr.driver_kind == DriverKind::kGate) {
      const CellType t = nl.gate(nr.driver).type;
      if (t == CellType::kBuf || t == CellType::kInv) {
        const NetId in = nl.gate_inputs(nr.driver)[0];
        const Net& inr = nl.net(in);
        // The input net keeps a stem (gate/flop driver) or keeps the branch
        // fault feeding this buffer (multi-load or PI-driven nets keep their
        // branches after the rules above).
        if (has_stem(inr) || inr.fo_count + inr.ffo_count > 1 ||
            inr.driver_kind == DriverKind::kInput) {
          continue;
        }
      }
    }
    out.push_back(f);
  }
  return out;
}

BlockId fault_block(const Netlist& nl, const TdfFault& f) {
  switch (f.site) {
    case FaultSite::kGateBranch:
      return nl.gate(f.load).block;
    case FaultSite::kFlopBranch:
      return nl.flop(f.load).block;
    case FaultSite::kStem:
      break;
  }
  const Net& nr = nl.net(f.net);
  if (nr.driver_kind == DriverKind::kGate) return nl.gate(nr.driver).block;
  if (nr.driver_kind == DriverKind::kFlop) return nl.flop(nr.driver).block;
  return 0;
}

std::vector<std::uint8_t> observable_nets(const Netlist& nl,
                                          const TestContext& ctx) {
  std::vector<std::uint8_t> obs(nl.num_nets(), 0);
  for (FlopId f = 0; f < nl.num_flops(); ++f) {
    if (ctx.active[f]) obs[nl.flop(f).d] = 1;
  }
  // Every reader of a gate's output comes later in topological order, so one
  // reverse pass reaches the fixpoint.
  const auto topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if (!obs[nl.gate(*it).out]) continue;
    for (NetId in : nl.gate_inputs(*it)) obs[in] = 1;
  }
  return obs;
}

bool statically_unobservable(const Netlist& nl, const TestContext& ctx,
                             std::span<const std::uint8_t> observable,
                             const TdfFault& f) {
  switch (f.site) {
    case FaultSite::kStem:
      return !observable[f.net];
    case FaultSite::kGateBranch:
      return !observable[nl.gate(f.load).out];
    case FaultSite::kFlopBranch:
      return !ctx.active[f.load];
  }
  return false;
}

std::string describe_fault(const Netlist& nl, const TdfFault& f) {
  std::ostringstream os;
  os << nl.net_name(f.net);
  if (f.site == FaultSite::kGateBranch) {
    os << "->g" << f.load << "." << static_cast<int>(f.pin);
  } else if (f.site == FaultSite::kFlopBranch) {
    os << "->f" << f.load << ".D";
  }
  os << (f.type == TdfType::kSlowToRise ? "[STR]" : "[STF]");
  return os.str();
}

}  // namespace scap
