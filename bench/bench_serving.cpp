// bench_serving — load generator for the qaoad daemon.
//
// Opens C concurrent connections (one serving_client::Client per
// thread), fires a fixed number of synchronous requests on each, and
// reports throughput and latency per client count:
//
//   clients  requests  req/s      p50_ms    p99_ms   errors
//         1       200   9321.4      0.105     0.212        0
//         4       200  24817.9      0.152     0.388        0
//
//   bench_serving --socket /tmp/qaoad.sock --clients 1,2,4
//       --requests 200 --family erdos-renyi --depth 3   (one command)
//
// Requests vary deterministically (gamma/beta swept across the QAOA
// domain per request index), so two runs against the same bank load the
// same work.  Any serving error — dropped response, daemon error text,
// id mismatch — counts in the errors column AND fails the exit status:
// CI runs this with `kill -HUP` storms against the daemon and a zero
// exit IS the zero-dropped-requests assertion of hot reload.
//
// --mode warm-start exercises the simulator path (micro-batching) with
// one locally sampled instance per request; predict mode measures the
// pure serving overhead (wire + scheduler + bank lookup).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/graph_ensemble.hpp"
#include "core/serving_client.hpp"

namespace {

using qaoaml::cli::split_list;
using qaoaml::cli::to_int;
using qaoaml::core::serving::Client;
using qaoaml::core::serving::Response;

struct Options {
  std::string socket_path;
  std::vector<int> clients = {1, 2, 4};
  int requests = 200;       // per client
  std::string family = "erdos-renyi";
  int depth = 3;
  bool warm_start = false;  // predict mode otherwise
  int nodes = 8;            // warm-start instance size
};

void print_usage() {
  std::printf(
      "usage: bench_serving --socket PATH [options]\n"
      "\n"
      "  --socket PATH   qaoad socket (required)\n"
      "  --clients CSV   concurrent client counts to sweep (default 1,2,4)\n"
      "  --requests N    requests per client (default 200)\n"
      "  --family F      bank family (default erdos-renyi)\n"
      "  --depth P       prediction target depth (default 3)\n"
      "  --mode M        predict (default) | warm-start\n"
      "  --nodes N       warm-start instance size (default 8)\n"
      "\n"
      "Exit status is nonzero when ANY request fails — the zero-drop\n"
      "assertion CI leans on while SIGHUPing the daemon mid-load.\n");
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_serving: %s needs a value\n", arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--socket") {
      options.socket_path = value;
    } else if (arg == "--clients") {
      options.clients.clear();
      for (const std::string& token : split_list(value)) {
        int count = 0;
        if (!to_int(token.c_str(), count) || count < 1) {
          ok = false;
          break;
        }
        options.clients.push_back(count);
      }
      ok = ok && !options.clients.empty();
    } else if (arg == "--requests") {
      ok = to_int(value, options.requests) && options.requests >= 1;
    } else if (arg == "--family") {
      options.family = value;
    } else if (arg == "--depth") {
      ok = to_int(value, options.depth) && options.depth >= 2;
    } else if (arg == "--mode") {
      const std::string mode = value;
      if (mode == "predict") {
        options.warm_start = false;
      } else if (mode == "warm-start") {
        options.warm_start = true;
      } else {
        ok = false;
      }
    } else if (arg == "--nodes") {
      ok = to_int(value, options.nodes) && options.nodes >= 2;
    } else {
      std::fprintf(stderr, "bench_serving: unknown option %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bench_serving: invalid value '%s' for %s\n",
                   value, arg.c_str());
      return false;
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "bench_serving: --socket is required\n");
    return false;
  }
  return true;
}

struct ThreadResult {
  std::vector<double> latencies_ms;
  int errors = 0;
};

/// One client thread's load: `requests` synchronous round trips with a
/// deterministic (thread, index)-dependent workload.
ThreadResult run_client(const Options& options, int thread_index) {
  ThreadResult result;
  result.latencies_ms.reserve(static_cast<std::size_t>(options.requests));
  try {
    Client client(options.socket_path);
    qaoaml::core::EnsembleConfig ensemble;
    ensemble.family = qaoaml::core::family_from_string(options.family);
    for (int i = 0; i < options.requests; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Response response;
      if (options.warm_start) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(thread_index) * 1000003u +
            static_cast<std::uint64_t>(i);
        qaoaml::Rng rng(seed);
        const qaoaml::graph::Graph problem =
            qaoaml::core::sample_graph(ensemble, options.nodes, rng);
        response = client.warm_start(options.family, problem, options.depth,
                                     seed);
      } else {
        // Sweep the depth-1 domain: gamma in [0, 2*pi), beta in [0, pi).
        const int step = thread_index * options.requests + i;
        const double gamma1 = 6.28 * ((step % 89) / 89.0);
        const double beta1 = 3.14 * ((step % 61) / 61.0);
        response = client.predict(options.family, gamma1, beta1,
                                  options.depth);
      }
      const auto end = std::chrono::steady_clock::now();
      if (response.ok) {
        result.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
      } else {
        ++result.errors;
      }
    }
  } catch (const std::exception& e) {
    // A torn connection mid-run: every unsent request is an error.
    std::fprintf(stderr, "bench_serving: client %d: %s\n", thread_index,
                 e.what());
    result.errors +=
        options.requests - static_cast<int>(result.latencies_ms.size()) -
        result.errors;
  }
  return result;
}

double percentile(std::vector<double>& sorted, double fraction) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      fraction * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }

  std::printf("bench_serving: socket=%s mode=%s family=%s depth=%d "
              "requests/client=%d\n",
              options.socket_path.c_str(),
              options.warm_start ? "warm-start" : "predict",
              options.family.c_str(), options.depth, options.requests);
  std::printf("%8s %9s %10s %9s %9s %7s\n", "clients", "requests", "req/s",
              "p50_ms", "p99_ms", "errors");

  int total_errors = 0;
  for (const int client_count : options.clients) {
    std::vector<ThreadResult> results(
        static_cast<std::size_t>(client_count));
    const auto start = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> threads;
      threads.reserve(static_cast<std::size_t>(client_count));
      for (int t = 0; t < client_count; ++t) {
        threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] =
                                          run_client(options, t); });
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::vector<double> latencies;
    int errors = 0;
    for (const ThreadResult& result : results) {
      latencies.insert(latencies.end(), result.latencies_ms.begin(),
                       result.latencies_ms.end());
      errors += result.errors;
    }
    std::sort(latencies.begin(), latencies.end());
    const double total_requests =
        static_cast<double>(client_count) * options.requests;
    std::printf("%8d %9.0f %10.1f %9.3f %9.3f %7d\n", client_count,
                total_requests,
                seconds > 0.0 ? total_requests / seconds : 0.0,
                percentile(latencies, 0.50), percentile(latencies, 0.99),
                errors);
    total_errors += errors;
  }

  if (total_errors > 0) {
    std::fprintf(stderr, "bench_serving: %d requests failed\n", total_errors);
    return 1;
  }
  return 0;
}
