#include "ref/fuzz.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "atpg/fault.h"
#include "atpg/fault_sim.h"
#include "core/pattern_sim.h"
#include "power/power_grid.h"
#include "ref/ref_models.h"
#include "soc/generator.h"
#include "util/rng.h"

namespace scap::ref {

namespace {

constexpr std::size_t kNoPattern = static_cast<std::size_t>(-1);

std::vector<Pattern> make_patterns(const Scenario& sc, const TestContext& ctx) {
  const std::size_t skip = sc.pattern_skip;
  const std::size_t total = sc.num_patterns + skip;
  std::vector<Pattern> out;
  out.reserve(sc.num_patterns);
  if (sc.fill_mode < 0) {
    PatternSet set = random_pattern_set(total, ctx.num_vars(), sc.pattern_seed);
    for (std::size_t i = skip; i < set.patterns.size(); ++i) {
      out.push_back(std::move(set.patterns[i]));
    }
  } else {
    Rng pr(sc.pattern_seed);
    const auto mode = static_cast<FillMode>(sc.fill_mode % 5);
    // kQuiet needs a quiet state of num_vars bits; all-zero works for every
    // scheme. kAdjacent deliberately gets no chains: the SOC's chains cover
    // flops only, and the identity chain also fills the LOS / enhanced-scan
    // launch variables (an X surviving into a Pattern would be a bug).
    const std::vector<std::uint8_t> quiet(ctx.num_vars(), 0);
    const double px = std::clamp(sc.x_fraction, 0.0, 1.0);
    for (std::size_t i = 0; i < total; ++i) {
      TestCube cube;
      cube.s1.resize(ctx.num_vars());
      for (auto& b : cube.s1) {
        b = pr.chance(px) ? kBitX : static_cast<std::uint8_t>(pr.below(2));
      }
      Pattern p = apply_fill(cube, mode, pr, {}, quiet);
      if (i >= skip) out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace

const char* injected_bug_name(InjectedBug b) {
  switch (b) {
    case InjectedBug::kNone:
      return "none";
    case InjectedBug::kStwWindowOffByOne:
      return "stw-window-off-by-one";
    case InjectedBug::kDropLastToggle:
      return "drop-last-toggle";
    case InjectedBug::kGradeOffByOne:
      return "grade-off-by-one";
  }
  return "?";
}

ScenarioSetup materialize_scenario(const Scenario& sc) {
  TechLibrary lib = TechLibrary::generic180();
  SocConfig cfg = SocConfig::tiny(sc.soc_seed);
  cfg.seed = sc.soc_seed;
  cfg.scan_chains = std::max<std::size_t>(1, sc.scan_chains);
  cfg.gates_per_flop = std::clamp(sc.gates_per_flop, 1.0, 16.0);
  const double scale = std::clamp(sc.flops_scale, 0.05, 4.0);
  for (auto& p : cfg.population) {
    p.flops = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(
               static_cast<double>(p.flops) * scale)));
  }
  SocDesign soc = build_soc(cfg, lib);
  const Netlist& nl = soc.netlist;

  const auto domain = static_cast<DomainId>(
      std::min<std::uint64_t>(sc.domain, nl.domain_count() - 1));
  TestContext ctx;
  switch (sc.scheme % 3) {
    case 0:
      ctx = TestContext::for_domain(nl, domain);
      break;
    case 1:
      ctx = TestContext::for_domain_los(nl, domain, soc.scan.chains);
      break;
    default:
      ctx = TestContext::for_domain_enhanced(nl, domain);
      break;
  }

  std::vector<Pattern> patterns = make_patterns(sc, ctx);
  return ScenarioSetup{std::move(lib), std::move(soc), std::move(ctx),
                       std::move(patterns)};
}

ScenarioResult run_scenario(const Scenario& sc, InjectedBug inject) {
  ScenarioResult res;
  try {
    const ScenarioSetup su = materialize_scenario(sc);
    const TechLibrary& lib = su.lib;
    const SocDesign& soc = su.soc;
    const Netlist& nl = soc.netlist;
    const TestContext& ctx = su.ctx;
    const std::vector<Pattern>& patterns = su.patterns;

    DelayModel dm(nl, lib, soc.parasitics);
    if (sc.droop) {
      Rng dr(sc.droop_seed);
      const double mx = std::clamp(sc.droop_max_v, 0.0, 1.0);
      std::vector<double> droop(nl.num_gates());
      for (auto& v : droop) v = dr.uniform(0.0, mx);
      dm.set_droop(lib, droop);
    }

    if (sc.check_sim || sc.check_scap) {
      PatternAnalyzer pa(soc, lib);
      const EventSimRef rsim(nl, dm);
      const EventSimRef rsim_nominal(nl, pa.nominal_delays());
      // One production pass feeds both the recorded trace and the SCAP
      // accounting under test.
      TraceRecorder recorder;
      ScapAccumulator scap_acc(pa.scap_calculator(),
                               soc.config.tester_period_ns);
      FanoutSink sinks{&recorder, &scap_acc};
      for (std::size_t i = 0; i < patterns.size(); ++i) {
        const bool nominal = sc.droop_alternate && i % 2 == 1;
        pa.analyze_into(ctx, patterns[i], sinks, nominal ? nullptr : &dm);
        SimTrace trace = recorder.take();
        ScapReport scap = scap_acc.report();
        if (inject == InjectedBug::kDropLastToggle && !trace.toggles.empty()) {
          trace.toggles.pop_back();
        }
        if (inject == InjectedBug::kStwWindowOffByOne) {
          scap.stw_ns += 0.05;  // ~one generic180 gate delay
        }
        const SimTrace rt =
            (nominal ? rsim_nominal : rsim).run(pa.frame1(), pa.stimuli());
        std::string why;
        if (sc.check_sim && !compare_traces(trace, rt, &why)) {
          res.divergences.push_back({"eventsim", why, i});
        }
        if (sc.check_scap) {
          const ScapReport rr =
              scap_ref(nl, soc.parasitics, lib, rt, scap.period_ns);
          if (!compare_scap(scap, rr, &why)) {
            res.divergences.push_back({"scap", why, i});
          }
        }
        if (res.divergences.size() >= 8) break;  // enough evidence
      }
    }

    if (sc.check_grade) {
      std::vector<TdfFault> faults = collapse_faults(nl, enumerate_faults(nl));
      if (sc.fault_sample > 0 && sc.fault_sample < faults.size()) {
        Rng fr(sc.fault_seed);
        std::vector<std::size_t> idx(faults.size());
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        fr.shuffle(idx);
        std::vector<TdfFault> sample;
        sample.reserve(sc.fault_sample);
        for (std::size_t k = 0; k < sc.fault_sample; ++k) {
          sample.push_back(faults[idx[k]]);
        }
        faults = std::move(sample);
      }
      const std::vector<std::size_t> ref_graded =
          fault_grade_ref(nl, ctx, patterns, faults);
      // grade() packs a set that fits in 64 patterns one word per net and a
      // larger one four words, so it grades the set as given and tiled past
      // 64 patterns. The tiled set opens with the set itself, so its
      // reference first-detect indices are the untiled ones.
      std::vector<Pattern> tiled;
      while (!patterns.empty() && tiled.size() <= 64) {
        tiled.insert(tiled.end(), patterns.begin(), patterns.end());
      }
      FaultSimulator fs(nl, ctx);
      const std::vector<Pattern>* sets[] = {&patterns, &tiled};
      for (const std::vector<Pattern>* set : sets) {
        std::vector<std::size_t> graded = fs.grade(*set, faults);
        if (inject == InjectedBug::kGradeOffByOne) {
          for (auto& v : graded) {
            if (v != FaultSimulator::kUndetected) ++v;
          }
        }
        std::string why;
        if (!compare_grade(graded, ref_graded, &why)) {
          res.divergences.push_back(
              {"grade", (set == &tiled ? "tiled: " : "") + why, kNoPattern});
          break;
        }
      }
    }

    if (sc.check_grid) {
      PowerGridOptions gopt;
      gopt.nx = static_cast<std::uint32_t>(
          std::clamp<std::uint64_t>(sc.grid_nx, 2, 64));
      gopt.ny = static_cast<std::uint32_t>(
          std::clamp<std::uint64_t>(sc.grid_ny, 2, 64));
      Rng gr(sc.grid_seed);
      const Rect die = soc.floorplan.die();
      const std::size_t ns = std::max<std::uint64_t>(1, sc.grid_sources);
      std::vector<Point> where(ns);
      std::vector<double> amps(ns);
      for (std::size_t i = 0; i < ns; ++i) {
        where[i] = {gr.uniform(die.x0, die.x1), gr.uniform(die.y0, die.y1)};
        amps[i] = gr.uniform(1e-3, 2e-2);
      }
      const PowerGrid grid(soc.floorplan, gopt);
      for (const bool rail : {true, false}) {
        const GridSolution r =
            grid_solve_ref(soc.floorplan, gopt, where, amps, rail);
        std::string why;
        if (!compare_grid(grid.solve(where, amps, rail), r, &why)) {
          const std::string what = rail ? "sor vdd: " : "sor vss: ";
          res.divergences.push_back({"grid", what + why, kNoPattern});
        }
      }
    }
  } catch (const std::exception& e) {
    res.divergences.push_back({"exception", e.what(), kNoPattern});
  }
  return res;
}

ShrinkResult shrink_scenario(const Scenario& start, InjectedBug inject) {
  ShrinkResult sr;
  constexpr std::size_t kMaxRuns = 250;

  auto diverges = [&](const Scenario& s, Divergence* d) {
    const ScenarioResult r = run_scenario(s, inject);
    ++sr.runs;
    if (!r.ok() && d) *d = r.divergences.front();
    return !r.ok();
  };

  Scenario cur = start;
  Divergence cd;
  if (!diverges(cur, &cd)) {
    sr.minimal = cur;  // nothing to shrink; caller sees an empty divergence
    return sr;
  }

  // Greedy fixpoint: generate candidates from the current scenario, accept
  // the first that still diverges, regenerate. Candidates are ordered most
  // aggressive first so typical repros converge in a handful of runs.
  bool progress = true;
  while (progress && sr.runs < kMaxRuns) {
    progress = false;
    std::vector<Scenario> cands;
    auto push = [&](auto&& mutate) {
      Scenario c = cur;
      mutate(c);
      cands.push_back(std::move(c));
    };

    // Focus on the failing oracle: drop the other checks.
    if (cur.enabled_checks() > 1) {
      if (cur.check_sim) push([](Scenario& c) { c.check_sim = false; });
      if (cur.check_scap) push([](Scenario& c) { c.check_scap = false; });
      if (cur.check_grade) push([](Scenario& c) { c.check_grade = false; });
      if (cur.check_grid) push([](Scenario& c) { c.check_grid = false; });
    }
    // Bisect the pattern stream from both ends, then peel single patterns.
    if (cur.num_patterns > 1) {
      const std::uint64_t half = cur.num_patterns / 2;
      push([&](Scenario& c) { c.num_patterns -= half; });  // keep front
      push([&](Scenario& c) {                              // keep back
        c.pattern_skip += half;
        c.num_patterns -= half;
      });
      push([](Scenario& c) { c.num_patterns -= 1; });
      push([](Scenario& c) {
        c.pattern_skip += 1;
        c.num_patterns -= 1;
      });
    }
    if (cur.droop) push([](Scenario& c) { c.droop = false; });
    if (cur.droop_alternate) {
      push([](Scenario& c) { c.droop_alternate = false; });
    }
    if (cur.flops_scale > 0.3) {
      push([](Scenario& c) { c.flops_scale /= 2.0; });
    }
    if (cur.gates_per_flop > 2.5) {
      push([](Scenario& c) {
        c.gates_per_flop = std::max(2.0, c.gates_per_flop / 2.0);
      });
    }
    if (cur.scan_chains > 1) push([](Scenario& c) { c.scan_chains = 1; });
    if (cur.check_grid) {
      if (cur.grid_nx > 2) {
        push([](Scenario& c) { c.grid_nx = std::max<std::uint64_t>(2, c.grid_nx / 2); });
      }
      if (cur.grid_ny > 2) {
        push([](Scenario& c) { c.grid_ny = std::max<std::uint64_t>(2, c.grid_ny / 2); });
      }
      if (cur.grid_sources > 1) {
        push([](Scenario& c) { c.grid_sources /= 2; });
      }
    }
    if (cur.check_grade && cur.fault_sample > 1) {
      push([](Scenario& c) { c.fault_sample /= 2; });
    }
    if (cur.fill_mode >= 0 && cur.x_fraction > 0.05) {
      push([](Scenario& c) { c.x_fraction = 0.0; });
    }

    for (const Scenario& c : cands) {
      if (sr.runs >= kMaxRuns) break;
      Divergence d;
      if (diverges(c, &d)) {
        cur = c;
        cd = d;
        progress = true;
        break;
      }
    }
  }

  cur.name = start.name + "_min";
  sr.minimal = std::move(cur);
  sr.divergence = std::move(cd);
  return sr;
}

FuzzStats run_fuzz(const FuzzOptions& opt, std::ostream* log,
                   InjectedBug inject) {
  FuzzStats st;
  for (std::size_t i = 0; i < opt.iterations; ++i) {
    const std::uint64_t seed = opt.seed + i;
    const Scenario sc = Scenario::random(seed);
    const ScenarioResult r = run_scenario(sc, inject);
    ++st.executed;
    if (r.ok()) {
      if (log && (i + 1) % 50 == 0) {
        *log << "[scap_fuzz] " << (i + 1) << "/" << opt.iterations
             << " scenarios clean\n";
      }
      continue;
    }

    FailureReport fr;
    fr.seed = seed;
    fr.divergence = r.divergences.front();
    fr.scenario = sc;
    if (log) {
      *log << "[scap_fuzz] seed " << seed << " DIVERGED (" << r.divergences.size()
           << " divergence(s)); first: [" << fr.divergence.oracle << "] "
           << fr.divergence.detail << "\n";
    }
    if (opt.shrink) {
      ShrinkResult s = shrink_scenario(sc, inject);
      fr.scenario = std::move(s.minimal);
      fr.divergence = std::move(s.divergence);
      if (log) {
        *log << "[scap_fuzz] shrunk in " << s.runs << " runs to "
             << fr.scenario.num_patterns << " pattern(s), checks sim="
             << fr.scenario.check_sim << " scap=" << fr.scenario.check_scap
             << " grade=" << fr.scenario.check_grade
             << " grid=" << fr.scenario.check_grid << "\n";
      }
    }
    if (!opt.corpus_dir.empty()) {
      fr.corpus_path =
          opt.corpus_dir + "/" + fr.scenario.name + ".scenario";
      std::ofstream os(fr.corpus_path);
      if (os) {
        os << "# repro written by scap_fuzz (campaign seed "
           << std::to_string(opt.seed) << ", scenario seed "
           << std::to_string(seed) << ")\n"
           << "# first divergence: [" << fr.divergence.oracle << "] "
           << fr.divergence.detail << "\n"
           << fr.scenario.serialize();
        if (log) *log << "[scap_fuzz] repro written to " << fr.corpus_path << "\n";
      } else if (log) {
        *log << "[scap_fuzz] FAILED to write repro to " << fr.corpus_path << "\n";
      }
    }
    st.failures.push_back(std::move(fr));
    if (st.failures.size() >= opt.max_failures) break;
  }
  return st;
}

bool run_self_test(std::ostream* log, std::size_t max_repro_patterns) {
  constexpr InjectedBug kBugs[] = {InjectedBug::kStwWindowOffByOne,
                                   InjectedBug::kDropLastToggle,
                                   InjectedBug::kGradeOffByOne};
  bool ok = true;
  for (const InjectedBug bug : kBugs) {
    const char* bug_name = injected_bug_name(bug);
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 20 && !found; ++seed) {
      Scenario sc = Scenario::random(seed);
      // The injections live in the sim/scap/grade paths; make sure all three
      // oracles are armed regardless of the random draw.
      sc.check_sim = sc.check_scap = sc.check_grade = true;
      if (!run_scenario(sc, InjectedBug::kNone).ok()) {
        if (log) {
          *log << "[self-test] seed " << seed
               << " diverges without an injected bug -- real divergence?\n";
        }
        ok = false;
        break;
      }
      const ScenarioResult r = run_scenario(sc, bug);
      if (r.ok()) continue;  // this draw never tickles the bug; next seed
      found = true;

      const ShrinkResult s = shrink_scenario(sc, bug);
      if (s.divergence.oracle.empty()) {
        if (log) {
          *log << "[self-test] " << bug_name
               << ": shrink lost the divergence\n";
        }
        ok = false;
      } else if (s.minimal.num_patterns > max_repro_patterns) {
        if (log) {
          *log << "[self-test] " << bug_name << ": shrunk repro still has "
               << s.minimal.num_patterns << " patterns (want <= "
               << max_repro_patterns << ")\n";
        }
        ok = false;
      } else if (log) {
        *log << "[self-test] " << bug_name << ": caught at seed " << seed
             << ", shrunk to " << s.minimal.num_patterns << " pattern(s) in "
             << s.runs << " runs ([" << s.divergence.oracle << "] "
             << s.divergence.detail << ")\n";
      }
    }
    if (!found && ok) {
      if (log) {
        *log << "[self-test] " << bug_name
             << ": no scenario tickled the injected bug\n";
      }
      ok = false;
    }
  }
  return ok;
}

}  // namespace scap::ref
