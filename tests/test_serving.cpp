// The serving layer end to end (core/serving.hpp + serving_client.hpp):
// codecs, in-process Server/Client round trips, bit-identity of served
// predictions against the bank, error paths for hostile input, the
// micro-batching scheduler, and hot reload under concurrent load with
// zero dropped requests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/graph_ensemble.hpp"
#include "core/parameter_dataset.hpp"
#include "core/parameter_predictor.hpp"
#include "core/serving.hpp"
#include "core/serving_client.hpp"
#include "core/two_level_solver.hpp"
#include "graph/generators.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core::serving {
namespace {

/// A tiny trained bank on disk, shared by every test in this file
/// (training once keeps the suite fast; the tests only need SOME
/// trained bank, not a good one).
class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    char dir_template[] = "/tmp/qaoaml_serving_XXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    dir_ = dir_template;
    bank_path_ = dir_ + "/bank.qpb";

    DatasetConfig config;
    config.num_graphs = 6;
    config.num_nodes = 6;
    config.max_depth = 3;
    config.restarts = 2;
    config.seed = 11;
    const ParameterDataset corpus = ParameterDataset::generate(config);
    ParameterPredictor bank;
    std::vector<std::size_t> all(corpus.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    bank.train(corpus, all);
    bank.save(bank_path_);
  }

  static void TearDownTestSuite() {
    std::remove(bank_path_.c_str());
    ::rmdir(dir_.c_str());
  }

  /// Short socket paths: sockaddr_un caps at ~108 bytes.
  static std::string socket_path(const char* name) {
    return dir_ + "/" + name + ".sock";
  }

  static ServerConfig server_config(const char* name) {
    ServerConfig config;
    config.socket_path = socket_path(name);
    config.banks = {{"erdos-renyi", bank_path_}};
    config.workers = 2;
    return config;
  }

  static graph::Graph sample_problem(std::uint64_t seed) {
    EnsembleConfig ensemble;
    Rng rng(seed);
    return sample_graph(ensemble, 6, rng);
  }

  static std::string dir_;
  static std::string bank_path_;
};

std::string ServingTest::dir_;
std::string ServingTest::bank_path_;

TEST_F(ServingTest, RequestCodecRoundTripsEveryMode) {
  Request request;
  request.mode = Mode::kWarmStart;
  request.id = 77;
  request.family = "erdos-renyi";
  request.target_depth = 3;
  request.problem = sample_problem(3);
  request.seed = 99;
  request.level1_restarts = 4;

  const Request decoded = decode_request(request_frame_type(request.mode),
                                         encode_request(request));
  EXPECT_EQ(decoded.id, 77u);
  EXPECT_EQ(decoded.family, "erdos-renyi");
  EXPECT_EQ(decoded.target_depth, 3);
  EXPECT_EQ(decoded.seed, 99u);
  EXPECT_EQ(decoded.level1_restarts, 4);
  EXPECT_EQ(decoded.problem.num_nodes(), request.problem.num_nodes());
  EXPECT_EQ(decoded.problem.edges(), request.problem.edges());

  Request predict;
  predict.mode = Mode::kPredict;
  predict.id = 5;
  predict.family = "regular";
  predict.gamma1 = 0.25;
  predict.beta1 = -0.5;
  const Request predict_decoded = decode_request(
      request_frame_type(predict.mode), encode_request(predict));
  EXPECT_EQ(predict_decoded.gamma1, 0.25);
  EXPECT_EQ(predict_decoded.beta1, -0.5);
}

TEST_F(ServingTest, ResponseCodecRoundTripsBitExactly) {
  Response response;
  response.id = 123;
  response.ok = true;
  response.bank_generation = 9;
  response.gamma1 = 0.1;
  response.beta1 = 0.2;
  response.angles = {1.0000000000000002, -0.0, 3.25};
  response.expectation = 4.999999999999999;
  response.approximation_ratio = 0.875;
  response.function_calls = 321;

  const Response decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.id, 123u);
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.bank_generation, 9u);
  EXPECT_EQ(decoded.angles, response.angles);      // bit-exact doubles
  EXPECT_EQ(decoded.expectation, response.expectation);
  EXPECT_EQ(decoded.function_calls, 321);
}

TEST_F(ServingTest, DecodeRequestRejectsHostilePayloads) {
  EXPECT_THROW(decode_request(999, ""), InvalidArgument);  // unknown type
  EXPECT_THROW(decode_request(kPredictRequest, "short"), InvalidArgument);

  // A graph announcing more edges than a simple graph admits.
  wire::PayloadWriter writer;
  writer.u64(1);
  writer.str("erdos-renyi");
  writer.i32(2);
  writer.u32(4);           // 4 nodes
  writer.u64(1000);        // ...with 1000 edges
  EXPECT_THROW(decode_request(kWarmStartRequest, writer.bytes()),
               InvalidArgument);

  // Trailing garbage after a well-formed predict payload.
  const Request probe = [] {
    Request r;
    r.mode = Mode::kPredict;
    return r;
  }();
  std::string bytes = encode_request(probe);
  bytes += "x";
  EXPECT_THROW(decode_request(kPredictRequest, bytes), InvalidArgument);

  // A graph one node past the simulator's cap, in both modes that build
  // its 2^n cut table and state; a graph at the cap still decodes.
  for (Mode mode : {Mode::kWarmStart, Mode::kSolve}) {
    Request request;
    request.mode = mode;
    request.problem = graph::cycle_graph(quantum::kMaxQubits);
    EXPECT_EQ(decode_request(request_frame_type(mode), encode_request(request))
                  .problem.num_nodes(),
              quantum::kMaxQubits);
    request.problem = graph::cycle_graph(quantum::kMaxQubits + 1);
    EXPECT_THROW(
        decode_request(request_frame_type(mode), encode_request(request)),
        InvalidArgument);
  }

  // A restart count below one is an error, not a silent single restart.
  for (Mode mode : {Mode::kWarmStart, Mode::kSolve}) {
    Request request;
    request.mode = mode;
    request.problem = graph::cycle_graph(4);
    request.level1_restarts = 1;
    EXPECT_EQ(decode_request(request_frame_type(mode), encode_request(request))
                  .level1_restarts,
              1);
    for (const int restarts : {0, -5}) {
      request.level1_restarts = restarts;
      EXPECT_THROW(
          decode_request(request_frame_type(mode), encode_request(request)),
          InvalidArgument)
          << "level1_restarts " << restarts;
    }
  }
}

TEST_F(ServingTest, SampledEvalBlockRoundTripsAndExactStaysOldProtocol) {
  Request request;
  request.mode = Mode::kSolve;
  request.id = 9;
  request.family = "erdos-renyi";
  request.target_depth = 2;
  request.problem = sample_problem(5);
  request.seed = 77;
  request.eval = EvalSpec::sampled_with(512, 4242, 3);
  request.eval.seed_policy = SeedPolicy::kPerCall;

  const std::string sampled_bytes = encode_request(request);
  const Request decoded =
      decode_request(request_frame_type(request.mode), sampled_bytes);
  EXPECT_TRUE(decoded.eval.sampled());
  EXPECT_EQ(decoded.eval.shots, 512);
  EXPECT_EQ(decoded.eval.averaging, 3);
  EXPECT_EQ(decoded.eval.seed_policy, SeedPolicy::kPerCall);
  EXPECT_EQ(decoded.eval.seed, 4242u);

  // An exact request writes NO trailing block: its bytes are a strict
  // prefix of the sampled encoding and decode to an exact spec — which
  // is exactly what a pre-EvalSpec client puts on the wire, so old
  // clients keep working against new servers unchanged.
  Request exact = request;
  exact.eval = EvalSpec::exact();
  const std::string exact_bytes = encode_request(exact);
  ASSERT_LT(exact_bytes.size(), sampled_bytes.size());
  EXPECT_EQ(exact_bytes, sampled_bytes.substr(0, exact_bytes.size()));
  const Request exact_decoded =
      decode_request(request_frame_type(exact.mode), exact_bytes);
  EXPECT_FALSE(exact_decoded.eval.sampled());
}

TEST_F(ServingTest, DecodeRequestRejectsHostileEvalBlocks) {
  Request base;
  base.mode = Mode::kWarmStart;
  base.family = "erdos-renyi";
  base.problem = sample_problem(6);
  const std::string prefix = encode_request(base);

  const auto eval_block = [](std::uint32_t version, std::int32_t shots) {
    wire::PayloadWriter writer;
    writer.u32(version);
    writer.i32(shots);
    writer.i32(1);   // averaging
    writer.u32(0);   // stream policy
    writer.u64(7);   // seed
    return writer.bytes();
  };
  // A future block version must fail loudly, not silently serve exact.
  EXPECT_THROW(
      decode_request(kWarmStartRequest, prefix + eval_block(99, 128)),
      InvalidArgument);
  // Hostile shot counts are rejected at decode time.
  EXPECT_THROW(decode_request(kWarmStartRequest, prefix + eval_block(1, 0)),
               InvalidArgument);
  EXPECT_THROW(decode_request(kWarmStartRequest, prefix + eval_block(1, -8)),
               InvalidArgument);
  // A truncated block is a framing error.
  const std::string block = eval_block(1, 128);
  EXPECT_THROW(
      decode_request(kWarmStartRequest,
                     prefix + block.substr(0, block.size() - 3)),
      InvalidArgument);
}

TEST_F(ServingTest, ServedPredictionIsBitIdenticalToTheBank) {
  const ParameterPredictor bank = ParameterPredictor::load(bank_path_);
  Server server(server_config("predict"));
  Client client(server.socket_path());

  for (const auto& [gamma1, beta1] : std::vector<std::pair<double, double>>{
           {0.6, 0.4}, {1.0, 0.1}, {5.9, 3.0}}) {
    const Response response =
        client.predict("erdos-renyi", gamma1, beta1, 3);
    ASSERT_TRUE(response.ok) << response.error;
    const std::vector<double> expected = bank.predict(gamma1, beta1, 3);
    // Bit-identity, not approximate equality: the wire carries IEEE-754
    // bits, so served angles must equal the bank's exactly.
    EXPECT_EQ(response.angles, expected);
    EXPECT_EQ(response.bank_generation, 1u);
  }
}

TEST_F(ServingTest, PingAndStatsRoundTrip) {
  Server server(server_config("ping"));
  Client client(server.socket_path());
  EXPECT_TRUE(client.ping(42));
  const Response response = client.predict("erdos-renyi", 0.5, 0.5, 2);
  ASSERT_TRUE(response.ok) << response.error;
  const ServerStats stats = client.server_stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.bank_generation, 1u);
}

TEST_F(ServingTest, UnknownFamilyAnswersAnErrorNotAHangup) {
  Server server(server_config("unknown"));
  Client client(server.socket_path());
  const Response response = client.predict("no-such-family", 0.5, 0.5, 2);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("no-such-family"), std::string::npos);
  // The connection survives the error: the next request still works.
  const Response good = client.predict("erdos-renyi", 0.5, 0.5, 2);
  EXPECT_TRUE(good.ok) << good.error;
}

TEST_F(ServingTest, OutOfRangeDepthAnswersAnError) {
  Server server(server_config("depth"));
  Client client(server.socket_path());
  const Response response = client.predict("erdos-renyi", 0.5, 0.5, 99);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
}

TEST_F(ServingTest, WarmStartEvaluatesThePredictionOnTheInstance) {
  Server server(server_config("warm"));
  Client client(server.socket_path());
  const graph::Graph problem = sample_problem(21);
  const Response response =
      client.warm_start("erdos-renyi", problem, 3, /*seed=*/21);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.angles.size(), 6u);  // 2 * depth
  EXPECT_GT(response.expectation, 0.0);
  EXPECT_GT(response.approximation_ratio, 0.0);
  EXPECT_LE(response.approximation_ratio, 1.0);
  EXPECT_GT(response.function_calls, 0);

  // Determinism: the same request bits yield the same response bits.
  const Response again =
      client.warm_start("erdos-renyi", problem, 3, /*seed=*/21);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.angles, response.angles);
  EXPECT_EQ(again.expectation, response.expectation);
  EXPECT_EQ(again.gamma1, response.gamma1);
}

TEST_F(ServingTest, WarmStartLevel1IsTheLibrarysSolveLevel1) {
  // A warm start's level 1 is solve_level1 on the request's seed: the
  // same depth-1 optimum, and its calls plus the one evaluation at the
  // predicted angles.
  Server server(server_config("level1"));
  Client client(server.socket_path());
  const graph::Graph problem = sample_problem(12);
  const std::uint64_t seed = 12;
  for (const int restarts : {1, 3}) {
    const Response response =
        client.warm_start("erdos-renyi", problem, 3, seed, restarts);
    ASSERT_TRUE(response.ok) << response.error;

    TwoLevelConfig config;
    config.level1_restarts = restarts;
    Rng rng(seed);
    const QaoaRun level1 = solve_level1(problem, config, rng);
    EXPECT_EQ(response.gamma1, gamma_of(level1.params, 1))
        << "restarts " << restarts;
    EXPECT_EQ(response.beta1, beta_of(level1.params, 1))
        << "restarts " << restarts;
    EXPECT_EQ(response.function_calls - 1, level1.function_calls)
        << "restarts " << restarts;
  }
}

TEST_F(ServingTest, OneSocketServesExactAndSampledRequests) {
  // The acceptance shape of the EvalSpec wire extension: a single
  // daemon serves pre-EvalSpec-style exact requests and shots-bearing
  // sampled requests side by side, sampled responses are deterministic
  // in the request bits, and the reported expectation is exact-rescored
  // at the returned angles.
  Server server(server_config("mixed"));
  Client client(server.socket_path());
  const graph::Graph problem = sample_problem(31);

  const Response exact =
      client.warm_start("erdos-renyi", problem, 2, /*seed=*/31);
  ASSERT_TRUE(exact.ok) << exact.error;

  const EvalSpec spec = EvalSpec::sampled_with(128, 1717);
  const Response sampled = client.warm_start("erdos-renyi", problem, 2,
                                             /*seed=*/31, 1, spec);
  ASSERT_TRUE(sampled.ok) << sampled.error;
  const Response sampled_again = client.warm_start("erdos-renyi", problem, 2,
                                                   /*seed=*/31, 1, spec);
  ASSERT_TRUE(sampled_again.ok) << sampled_again.error;
  EXPECT_EQ(sampled.angles, sampled_again.angles);
  EXPECT_EQ(sampled.expectation, sampled_again.expectation);
  EXPECT_EQ(sampled.function_calls, sampled_again.function_calls);

  // The exact arm reports <C> at the served angles; the sampled arm
  // reports the finite-shot estimate a shot-limited device would — a
  // pure function of the request, reproducible locally from its spec.
  const MaxCutQaoa instance(problem, 2);
  EXPECT_EQ(exact.expectation, instance.expectation(exact.angles));
  Rng measure(spec.seed);
  EXPECT_EQ(sampled.expectation,
            instance.sampled_expectation(sampled.angles, spec.shots, measure));

  const Response solved = client.solve("erdos-renyi", problem, 2,
                                       /*seed=*/31, 1, spec);
  ASSERT_TRUE(solved.ok) << solved.error;
  EXPECT_GT(solved.function_calls, 0);
}

TEST_F(ServingTest, SolveMatchesALocalTwoLevelRunBitForBit) {
  Server server(server_config("solve"));
  Client client(server.socket_path());
  const graph::Graph problem = sample_problem(8);
  const std::uint64_t seed = 8;

  const Response response =
      client.solve("erdos-renyi", problem, 3, seed, /*level1_restarts=*/2);
  ASSERT_TRUE(response.ok) << response.error;

  const ParameterPredictor bank = ParameterPredictor::load(bank_path_);
  TwoLevelConfig config;
  config.level1_restarts = 2;
  Rng rng(seed);
  const AcceleratedRun local = solve_two_level(problem, 3, bank, config, rng);
  EXPECT_EQ(response.expectation, local.final.expectation);
  EXPECT_EQ(response.approximation_ratio, local.final.approximation_ratio);
  EXPECT_EQ(response.function_calls, local.total_function_calls);
  EXPECT_EQ(response.angles, local.predicted_init);
}

TEST_F(ServingTest, HotReloadUnderLoadDropsNothing) {
  ServerConfig config = server_config("reload");
  config.workers = 3;
  Server server(config);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 150;
  std::atomic<int> failures{0};
  std::atomic<bool> reloading{true};

  // A reload storm concurrent with the request storm.
  std::thread reloader([&] {
    while (reloading.load()) {
      server.reload();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  {
    std::vector<std::jthread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        Client client(server.socket_path());
        for (int i = 0; i < kRequestsPerThread; ++i) {
          const Response response = client.predict(
              "erdos-renyi", 0.1 + 0.01 * t, 0.2 + 0.001 * i, 3);
          if (!response.ok) failures.fetch_add(1);
        }
      });
    }
  }
  reloading.store(false);
  reloader.join();

  EXPECT_EQ(failures.load(), 0) << "requests dropped across reloads";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served,
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.bank_generation, 1u);  // reloads really happened
  EXPECT_GT(stats.reloads, 0u);
}

TEST_F(ServingTest, ReloadFailureKeepsTheOldBanksServing) {
  ServerConfig config = server_config("reloadfail");
  const std::string moved = bank_path_ + ".away";
  Server server(config);
  Client client(server.socket_path());

  ASSERT_EQ(std::rename(bank_path_.c_str(), moved.c_str()), 0);
  EXPECT_THROW(server.reload(), Error);
  ASSERT_EQ(std::rename(moved.c_str(), bank_path_.c_str()), 0);

  const Response response = client.predict("erdos-renyi", 0.5, 0.5, 2);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.bank_generation, 1u);  // old set, old generation
}

TEST_F(ServingTest, SchedulerBatchesConcurrentRequests) {
  // Saturate a 1-worker scheduler so in-flight requests pile up in the
  // queue and pop_batch has something to batch.
  BankSet banks({{"erdos-renyi", bank_path_}});
  SchedulerConfig config;
  config.workers = 1;
  config.batch_max = 8;
  Scheduler scheduler(banks, config);

  constexpr int kRequests = 64;
  std::atomic<int> answered{0};
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.mode = Mode::kPredict;
    request.id = static_cast<std::uint64_t>(i);
    request.family = "erdos-renyi";
    request.target_depth = 2;
    request.gamma1 = 0.01 * i;
    request.beta1 = 0.02 * i;
    scheduler.submit(std::move(request), [&](const Response& response) {
      if (response.ok) answered.fetch_add(1);
    });
  }
  scheduler.stop();  // drains everything accepted

  EXPECT_EQ(answered.load(), kRequests);
  const Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.served, static_cast<std::uint64_t>(kRequests));
  // With one worker and a fast handler, at least one pop saw >1 queued
  // item; max_batch must reflect real batching, bounded by batch_max.
  EXPECT_GT(stats.max_batch, 1u);
  EXPECT_LE(stats.max_batch, 8u);
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kRequests));
}

TEST_F(ServingTest, BankSetLookupNamesTheKnownFamilies) {
  BankSet banks({{"erdos-renyi", bank_path_}});
  EXPECT_EQ(banks.generation(), 1u);
  EXPECT_EQ(banks.families(), std::vector<std::string>{"erdos-renyi"});
  try {
    banks.lookup("small-world");
    FAIL() << "lookup of an unloaded family must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("erdos-renyi"), std::string::npos);
  }
}

TEST_F(ServingTest, StopIsIdempotentAndStatsSurviveIt) {
  Server server(server_config("stop"));
  {
    Client client(server.socket_path());
    ASSERT_TRUE(client.predict("erdos-renyi", 0.3, 0.3, 2).ok);
  }
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.stats().served, 1u);
}

}  // namespace
}  // namespace qaoaml::core::serving
