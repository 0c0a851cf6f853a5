// qaoad_request — one-shot client CLI for the qaoad daemon.  Each
// example below is one command; the long ones are wrapped.
//
//   # bank lookup (prints the EXACT `train_predictor --predict` line,
//   # so CI can `cmp` served angles against the offline bank):
//   qaoad_request --socket /tmp/qaoad.sock --family erdos-renyi
//       --predict 0.6,0.4,3
//
//   # server-side level-1 optimize + predict on a locally sampled
//   # instance (NODES,SEED,DEPTH; the graph travels on the wire):
//   qaoad_request --socket /tmp/qaoad.sock --family erdos-renyi
//       --warm-start 8,7,3
//
//   # full two-level solve on the server:
//   qaoad_request --socket /tmp/qaoad.sock --family erdos-renyi
//       --solve 8,7,3
//
//   # daemon counters:
//   qaoad_request --socket /tmp/qaoad.sock --stats
//
// Exit status: 0 when every request succeeded, 1 otherwise — a serving
// error (unknown family, malformed graph) prints the daemon's error
// text and fails the invocation.
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/graph_ensemble.hpp"
#include "core/serving_client.hpp"

namespace {

using qaoaml::cli::to_double;
using qaoaml::cli::to_int;
using qaoaml::cli::to_u64;
using qaoaml::core::serving::Client;
using qaoaml::core::serving::Response;
using qaoaml::core::serving::ServerStats;

struct PredictArgs {
  double gamma1 = 0.0;
  double beta1 = 0.0;
  int depth = 2;
};

struct InstanceArgs {
  int nodes = 8;
  std::uint64_t seed = 0;
  int depth = 2;
};

void print_usage() {
  std::printf(
      "usage: qaoad_request --socket PATH [options]\n"
      "\n"
      "  --socket PATH      daemon socket (required)\n"
      "  --family F         bank family for requests (default erdos-renyi)\n"
      "  --predict G,B,P    predicted depth-P angles for the depth-1\n"
      "                     optimum (gamma1=G, beta1=B); repeatable;\n"
      "                     output is byte-identical to\n"
      "                     `train_predictor --predict G,B,P`\n"
      "  --warm-start N,S,P sample an N-node instance with seed S\n"
      "                     (--family ensemble), request a server-side\n"
      "                     warm start to depth P; repeatable\n"
      "  --solve N,S,P      same instance, full two-level solve;\n"
      "                     repeatable\n"
      "  --edge-prob F      ER edge probability for sampled instances\n"
      "                     (default 0.5)\n"
      "  --restarts R       server-side level-1 restarts (default 1)\n"
      "  --shots N          evaluate warm-start/solve requests on N-shot\n"
      "                     sampled objectives (versioned optional wire\n"
      "                     block; exact requests stay old-client\n"
      "                     compatible; measurement seed = instance seed)\n"
      "  --ping             liveness round trip\n"
      "  --stats            print the daemon's counters\n");
}

bool parse_triple(const char* text, std::string& a, std::string& b,
                  std::string& c) {
  const std::string s = text;
  const auto c1 = s.find(',');
  const auto c2 = s.find(',', c1 == std::string::npos ? c1 : c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return false;
  a = s.substr(0, c1);
  b = s.substr(c1 + 1, c2 - c1 - 1);
  c = s.substr(c2 + 1);
  return true;
}

bool to_predict_args(const char* text, PredictArgs& out) {
  std::string a, b, c;
  return parse_triple(text, a, b, c) && to_double(a.c_str(), out.gamma1) &&
         to_double(b.c_str(), out.beta1) && to_int(c.c_str(), out.depth);
}

bool to_instance_args(const char* text, InstanceArgs& out) {
  std::string a, b, c;
  return parse_triple(text, a, b, c) && to_int(a.c_str(), out.nodes) &&
         to_u64(b.c_str(), out.seed) && to_int(c.c_str(), out.depth);
}

/// Fails the run on a serving error; prints the daemon's error text.
bool check(const Response& response, const char* what) {
  if (response.ok) return true;
  std::fprintf(stderr, "qaoad_request: %s failed: %s\n", what,
               response.error.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string family = "erdos-renyi";
  double edge_prob = 0.5;
  int restarts = 1;
  int shots = 0;  // 0 = exact (no eval block on the wire)
  bool ping = false;
  bool stats = false;
  std::vector<PredictArgs> predicts;
  std::vector<InstanceArgs> warm_starts;
  std::vector<InstanceArgs> solves;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--ping") {
      ping = true;
      continue;
    }
    if (arg == "--stats") {
      stats = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "qaoad_request: %s needs a value\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--socket") {
      socket_path = value;
    } else if (arg == "--family") {
      family = value;
    } else if (arg == "--edge-prob") {
      ok = to_double(value, edge_prob);
    } else if (arg == "--restarts") {
      ok = to_int(value, restarts) && restarts >= 1;
    } else if (arg == "--shots") {
      ok = to_int(value, shots) && shots >= 1;
    } else if (arg == "--predict") {
      PredictArgs args;
      ok = to_predict_args(value, args);
      if (ok) predicts.push_back(args);
    } else if (arg == "--warm-start") {
      InstanceArgs args;
      ok = to_instance_args(value, args);
      if (ok) warm_starts.push_back(args);
    } else if (arg == "--solve") {
      InstanceArgs args;
      ok = to_instance_args(value, args);
      if (ok) solves.push_back(args);
    } else {
      std::fprintf(stderr, "qaoad_request: unknown option %s\n", arg.c_str());
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "qaoad_request: invalid value '%s' for %s\n",
                   value, arg.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "qaoad_request: --socket is required\n");
    print_usage();
    return 2;
  }

  try {
    Client client(socket_path);
    bool all_ok = true;

    if (ping) {
      if (!client.ping()) {
        std::fprintf(stderr, "qaoad_request: ping echo mismatch\n");
        return 1;
      }
      std::printf("pong\n");
    }

    for (const PredictArgs& args : predicts) {
      const Response response =
          client.predict(family, args.gamma1, args.beta1, args.depth);
      if (!check(response, "predict")) {
        all_ok = false;
        continue;
      }
      // Byte-identical to train_predictor's --predict output.
      std::printf("predict %.17g %.17g %d:", args.gamma1, args.beta1,
                  args.depth);
      for (const double a : response.angles) std::printf(" %.17g", a);
      std::printf("\n");
    }

    qaoaml::core::EnsembleConfig ensemble;
    ensemble.family = qaoaml::core::family_from_string(family);
    ensemble.edge_probability = edge_prob;

    // Sampled evaluation reuses the instance seed as the measurement
    // seed: the request stays reproducible from the command line alone.
    const auto eval_spec = [&](std::uint64_t seed) {
      return shots >= 1
                 ? qaoaml::core::EvalSpec::sampled_with(shots, seed)
                 : qaoaml::core::EvalSpec::exact();
    };

    for (const InstanceArgs& args : warm_starts) {
      qaoaml::Rng rng(args.seed);
      const qaoaml::graph::Graph problem =
          qaoaml::core::sample_graph(ensemble, args.nodes, rng);
      const Response response =
          client.warm_start(family, problem, args.depth, args.seed, restarts,
                            eval_spec(args.seed));
      if (!check(response, "warm-start")) {
        all_ok = false;
        continue;
      }
      std::printf("warm-start n=%d seed=%llu depth=%d: gamma1=%.17g "
                  "beta1=%.17g expectation=%.17g AR=%.17g FC=%d\n",
                  args.nodes, static_cast<unsigned long long>(args.seed),
                  args.depth, response.gamma1, response.beta1,
                  response.expectation, response.approximation_ratio,
                  response.function_calls);
    }

    for (const InstanceArgs& args : solves) {
      qaoaml::Rng rng(args.seed);
      const qaoaml::graph::Graph problem =
          qaoaml::core::sample_graph(ensemble, args.nodes, rng);
      const Response response = client.solve(
          family, problem, args.depth, args.seed, restarts, eval_spec(args.seed));
      if (!check(response, "solve")) {
        all_ok = false;
        continue;
      }
      std::printf("solve n=%d seed=%llu depth=%d: expectation=%.17g "
                  "AR=%.17g FC=%d\n",
                  args.nodes, static_cast<unsigned long long>(args.seed),
                  args.depth, response.expectation,
                  response.approximation_ratio, response.function_calls);
    }

    if (stats) {
      const ServerStats s = client.server_stats();
      std::printf("stats: served=%llu errors=%llu batches=%llu "
                  "max_batch=%llu reloads=%llu connections=%llu "
                  "generation=%llu\n",
                  static_cast<unsigned long long>(s.served),
                  static_cast<unsigned long long>(s.errors),
                  static_cast<unsigned long long>(s.batches),
                  static_cast<unsigned long long>(s.max_batch),
                  static_cast<unsigned long long>(s.reloads),
                  static_cast<unsigned long long>(s.connections),
                  static_cast<unsigned long long>(s.bank_generation));
    }

    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoad_request: %s\n", e.what());
    return 1;
  }
}
