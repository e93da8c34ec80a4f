// Single point of environment access for one-time configuration reads.
//
// The library reads four SCAP_* switches (SCAP_THREADS, SCAP_TRACE, SCAP_PROF,
// SCAP_METRICS_DIR), each exactly once, during process or subsystem startup,
// and never calls setenv/putenv. Funneling the getenv calls through this
// helper keeps the one concurrency-mt-unsafe call site -- and its
// justification -- in one place instead of scattering per-call-site NOLINTs
// through the codebase.
#pragma once

#include <cstdlib>

namespace scap::util {

/// One-shot read of a configuration environment variable. Safe despite
/// getenv's thread-compatibility caveats because nothing in the process
/// mutates the environment, and every caller samples its variable once at
/// startup and caches the result.
inline const char* env_cstr(const char* name) noexcept {
  return std::getenv(name);  // NOLINT(concurrency-mt-unsafe) -- see header comment
}

}  // namespace scap::util
