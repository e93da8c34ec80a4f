#include "lint/lint.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scap::lint {

namespace {

void record_metrics(const LintReport& rep) {
  obs::count("lint.runs");
  obs::count("lint.findings", rep.total());
  obs::count("lint.errors", rep.errors);
  obs::count("lint.warnings", rep.warnings);
  obs::count("lint.infos", rep.infos);
  obs::count("lint.suppressed", rep.suppressed);
  for (const auto& [id, n] : rep.rule_counts) {
    obs::count("lint.rule." + id, n);
  }
}

}  // namespace

LintReport run(const LintInput& in, const LintConfig& cfg) {
  SCAP_TRACE_SCOPE("lint.run");
  if (in.netlist == nullptr) {
    throw std::invalid_argument("lint::run: input has no netlist");
  }
  Diagnostics diag(cfg);
  check_structure(*in.netlist, diag);
  if (!in.scan_chains.empty()) {
    check_scan_chains(*in.netlist, in.scan_chains, diag);
  }
  check_patterns(in, diag);
  check_dataflow(in, diag);
  LintReport rep = std::move(diag).finish();
  record_metrics(rep);
  return rep;
}

LintReport run(const Netlist& nl, const LintConfig& cfg) {
  LintInput in;
  in.netlist = &nl;
  return run(in, cfg);
}

}  // namespace scap::lint
