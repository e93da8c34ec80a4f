// scap_serve: the long-lived SCAP screening daemon.
//
// Loads and finalizes designs on demand (LRU content-hash cache), keeps
// per-design pools of warm analyzer workspaces, and serves screen_exact /
// scap_profile / fault_grade requests over a length-prefixed
// binary protocol on a Unix-domain (and optionally loopback TCP) socket,
// micro-batching concurrent clients into single rt-pool dispatches.
//
// Usage:
//   scap_serve --socket PATH [--tcp PORT] [--threads N] [--max-designs N]
//              [--queue N] [--queue-mb MB] [--batch N] [--journal PATH]
//   scap_serve --replay JOURNAL
//
// The daemon runs until SIGTERM/SIGINT, then drains: every admitted request
// is answered and journaled before exit (exit code 0). --replay re-executes
// a captured journal offline and verifies each response is bit-identical to
// what the daemon originally sent (exit 0 = all match, 1 = mismatch).
//
// Exit codes: 0 = clean shutdown / replay match, 1 = replay mismatch,
// 2 = usage or startup error.
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "rt/thread_pool.h"
#include "serve/core.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "util/version.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " --socket PATH [--tcp PORT] [--threads N] [--max-designs N]\n"
         "       [--queue N] [--queue-mb MB] [--batch N] [--journal PATH]\n"
         "   or: " << argv0 << " --replay JOURNAL\n";
  return 2;
}

int replay_main(const std::string& path) {
  std::string err;
  const std::vector<scap::serve::JournalRecord> records =
      scap::serve::read_journal_file(path, &err);
  if (!err.empty()) {
    std::cerr << "scap_serve: " << err << "\n";
    return 2;
  }
  scap::serve::ServeCore core;
  const scap::serve::ReplayResult res =
      scap::serve::replay_journal(records, core);
  std::cout << "[replay] " << res.records << " record(s), " << res.mismatches
            << " mismatch(es)\n";
  if (!res.ok()) {
    std::cout << "  first: " << res.detail << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  scap::serve::ServerOptions opt;
  std::string replay;
  std::size_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "scap_serve: " << what << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        const char* v = next("--socket");
        if (!v) return 2;
        opt.unix_path = v;
      } else if (arg == "--tcp") {
        const char* v = next("--tcp");
        if (!v) return 2;
        opt.tcp_port = std::stoi(v);
      } else if (arg == "--threads") {
        const char* v = next("--threads");
        if (!v) return 2;
        threads = std::stoull(v);
      } else if (arg == "--max-designs") {
        const char* v = next("--max-designs");
        if (!v) return 2;
        opt.max_designs = std::stoull(v);
      } else if (arg == "--queue") {
        const char* v = next("--queue");
        if (!v) return 2;
        opt.queue_capacity = std::stoull(v);
      } else if (arg == "--queue-mb") {
        const char* v = next("--queue-mb");
        if (!v) return 2;
        opt.queue_max_bytes = std::stoull(v) << 20;
      } else if (arg == "--batch") {
        const char* v = next("--batch");
        if (!v) return 2;
        opt.batch_max = std::stoull(v);
      } else if (arg == "--journal") {
        const char* v = next("--journal");
        if (!v) return 2;
        opt.journal_path = v;
      } else if (arg == "--replay") {
        const char* v = next("--replay");
        if (!v) return 2;
        replay = v;
      } else if (arg == "--version") {
        std::cout << "scap_serve " << scap::kVersion << "\n";
        return 0;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::cerr << "scap_serve: unknown option " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::cerr << "scap_serve: bad value for " << arg << "\n";
      return 2;
    }
  }

  if (!replay.empty()) return replay_main(replay);
  if (opt.unix_path.empty() && opt.tcp_port < 0) return usage(argv[0]);

  // The daemon's concurrency is fixed here, at startup: --threads rebuilds
  // the global pool, otherwise the startup-cached SCAP_THREADS / hardware
  // default applies (rt/thread_pool.h).
  if (threads > 0) scap::rt::ThreadPool::set_global_concurrency(threads);

  // Block the shutdown signals in main (and thus in every thread the server
  // spawns, which inherit the mask) and sigwait for them: the drain runs on
  // this thread in a normal context, not in a signal handler.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  scap::serve::Server server(opt);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "scap_serve: " << err << "\n";
    return 2;
  }
  std::cout << "[scap_serve] listening"
            << (opt.unix_path.empty() ? "" : " on " + opt.unix_path);
  if (server.tcp_port() >= 0) {
    std::cout << " (tcp 127.0.0.1:" << server.tcp_port() << ")";
  }
  std::cout << ", threads=" << scap::rt::concurrency()
            << ", max-designs=" << opt.max_designs
            << ", queue=" << opt.queue_capacity
            << ", batch=" << opt.batch_max << "\n"
            << std::flush;

  int sig = 0;
  sigwait(&set, &sig);
  std::cout << "[scap_serve] caught " << strsignal(sig) << ", draining\n";
  server.stop();
  std::cout << "[scap_serve] clean shutdown\n";
  return 0;
}
