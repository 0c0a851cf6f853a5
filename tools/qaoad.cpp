// qaoad — the warm-start serving daemon (core/serving.hpp behind a
// CLI).  Loads one trained predictor bank per graph family at startup
// and serves predictions, warm starts and full two-level solves over a
// Unix-domain socket until told to stop:
//
//   qaoad --socket /tmp/qaoad.sock
//         --bank erdos-renyi=er.qpb --bank regular=reg.qpb   (one command)
//
//   SIGHUP   hot-reloads every bank file (zero dropped requests:
//            in-flight work finishes on the bank it started with)
//   SIGTERM / SIGINT   drains in-flight requests and exits 0
//
// The ready line ("qaoad: serving on ...") is flushed before the first
// accept, so scripts can `wait` on it; final stats print on exit.
// Clients: tools/qaoad_request (one-shot CLI), bench/bench_serving
// (load generator), core/serving_client.hpp (C++ API).
#include <algorithm>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/signals.hpp"
#include "core/serving.hpp"

namespace {

using qaoaml::cli::to_int;
using qaoaml::cli::to_u64;
using qaoaml::core::serving::Server;
using qaoaml::core::serving::ServerConfig;
using qaoaml::core::serving::ServerStats;

void print_usage() {
  std::printf(
      "usage: qaoad --socket PATH --bank FAMILY=PATH [options]\n"
      "\n"
      "  --socket PATH     Unix-domain socket to serve on (required)\n"
      "  --bank F=PATH     predictor bank for family F (repeatable;\n"
      "                    at least one required)\n"
      "  --workers N       scheduler worker threads (default: hardware\n"
      "                    concurrency)\n"
      "  --batch N         micro-batch size cap (default 8)\n"
      "  --queue N         request queue capacity (default 64)\n"
      "\n"
      "signals: SIGHUP reloads every bank file in place; SIGTERM/SIGINT\n"
      "drain in-flight requests and exit 0.\n");
}

/// Parses "FAMILY=PATH".
bool to_bank(const char* text, std::pair<std::string, std::string>& out) {
  const std::string s = text;
  const auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == s.size()) return false;
  out = {s.substr(0, eq), s.substr(eq + 1)};
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  config.workers = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  config.log = stdout;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "qaoad: %s needs a value\n", arg.c_str());
      print_usage();
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--socket") {
      config.socket_path = value;
    } else if (arg == "--bank") {
      std::pair<std::string, std::string> bank;
      ok = to_bank(value, bank);
      if (ok) config.banks.push_back(std::move(bank));
    } else if (arg == "--workers") {
      ok = to_int(value, config.workers) && config.workers >= 1;
    } else if (arg == "--batch") {
      int batch = 0;
      ok = to_int(value, batch) && batch >= 1;
      if (ok) config.batch_max = static_cast<std::size_t>(batch);
    } else if (arg == "--queue") {
      int queue = 0;
      ok = to_int(value, queue) && queue >= 1;
      if (ok) config.queue_capacity = static_cast<std::size_t>(queue);
    } else {
      std::fprintf(stderr, "qaoad: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "qaoad: invalid value '%s' for %s\n", value,
                   arg.c_str());
      print_usage();
      return 2;
    }
  }
  if (config.socket_path.empty() || config.banks.empty()) {
    std::fprintf(stderr, "qaoad: --socket and at least one --bank are "
                         "required\n");
    print_usage();
    return 2;
  }

  try {
    qaoaml::ignore_sigpipe();

    // The waiter must exist (and block the signals) BEFORE the server
    // spawns its threads, so it holds a server pointer that is armed
    // right after construction.  The mutex orders reload against
    // shutdown: the handler never touches a dying server.
    std::mutex mutex;
    std::condition_variable cv;
    bool stop_requested = false;
    Server* server = nullptr;

    qaoaml::SignalWaiter waiter(
        {SIGHUP, SIGINT, SIGTERM}, [&](int signum) {
          std::lock_guard<std::mutex> lock(mutex);
          if (signum == SIGHUP) {
            if (server == nullptr) return;
            try {
              server->reload();
            } catch (const std::exception& e) {
              // Keep serving the old banks; the operator sees why.
              std::fprintf(stderr, "qaoad: reload failed: %s\n", e.what());
            }
            return;
          }
          std::printf("qaoad: %s received, draining\n",
                      qaoaml::signal_name(signum));
          std::fflush(stdout);
          stop_requested = true;
          cv.notify_all();
        });

    Server daemon(config);
    {
      std::lock_guard<std::mutex> lock(mutex);
      server = &daemon;
    }
    std::printf("qaoad: serving on %s (%zu banks, %d workers, batch %zu)\n",
                config.socket_path.c_str(), config.banks.size(),
                config.workers, config.batch_max);
    std::fflush(stdout);

    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return stop_requested; });
      server = nullptr;  // reloads after this point are no-ops
    }
    daemon.stop();

    const ServerStats stats = daemon.stats();
    std::printf("qaoad: served %llu ok, %llu errors, %llu batches "
                "(max %llu), %llu reloads, %llu connections\n",
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.errors),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.max_batch),
                static_cast<unsigned long long>(stats.reloads),
                static_cast<unsigned long long>(stats.connections));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoad: %s\n", e.what());
    return 1;
  }
  return 0;
}
