#include "atpg/quiet_state.h"

#include "sim/batch_sim.h"

namespace scap {

QuietState compute_quiet_state(const Netlist& nl, const TestContext& ctx,
                               int max_iterations) {
  // Zero-delay settles on one BatchSim lane (bit 0 of each word).
  const BatchSim sim(nl.levelized_view(), 1);
  const std::vector<std::uint64_t> pi(ctx.pi_values.begin(),
                                      ctx.pi_values.end());
  std::vector<std::uint64_t> q, nets, d;
  std::vector<std::uint8_t> next(nl.num_flops());
  // next = D(s), the state the launch pulse would capture on every flop.
  auto settle = [&](const std::vector<std::uint8_t>& s) {
    q.assign(s.begin(), s.end());
    sim.eval_frame(q, pi, nets);
    sim.next_state(nets, d);
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      next[f] = static_cast<std::uint8_t>(d[f] & 1u);
    }
  };
  std::vector<std::uint8_t> state(nl.num_flops(), 0);

  QuietState best;
  best.s1 = state;
  best.residual_launches = static_cast<std::size_t>(-1);

  for (int it = 0; it < max_iterations; ++it) {
    settle(state);
    // Held flops keep their value across the launch pulse.
    std::size_t launches = 0;
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (!ctx.active[f]) {
        next[f] = state[f];
      } else if (next[f] != state[f]) {
        ++launches;
      }
    }
    if (launches < best.residual_launches) {
      best.s1 = state;
      best.residual_launches = launches;
      if (launches == 0) break;  // true fixed point
    }
    state = next;
  }

  // Phase 2: greedy bit descent. Random logic rarely settles onto a fixed
  // point by orbit iteration alone (attractor cycles), so refine the best
  // iterate by flipping individual scan bits whenever that reduces the
  // number of launch transitions.
  auto count_launches = [&](const std::vector<std::uint8_t>& s) {
    settle(s);
    std::size_t launches = 0;
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      if (ctx.active[f] && next[f] != s[f]) ++launches;
    }
    return launches;
  };
  state = best.s1;
  std::size_t cur = count_launches(state);
  for (int pass = 0; pass < 4 && cur > 0; ++pass) {
    bool improved = false;
    for (FlopId f = 0; f < nl.num_flops(); ++f) {
      state[f] ^= 1;
      const std::size_t trial = count_launches(state);
      if (trial < cur) {
        cur = trial;
        improved = true;
      } else {
        state[f] ^= 1;
      }
    }
    if (!improved) break;
  }
  if (cur < best.residual_launches) {
    best.s1 = state;
    best.residual_launches = cur;
  }
  return best;
}

}  // namespace scap
