// serve_predict / serve_mixed: an in-process serving::Server on a Unix
// socket under closed-loop load from this process.
//
// serve_predict: 1 worker, batch 8, queue 64; three clients, one thread
// each, send `predict` requests with seeded (gamma1, beta1, p in 2..5).
// No simulator runs, so this measures serving overhead alone: wire,
// socket, scheduler and bank lookup.
//
// serve_mixed: the same server with 2 workers and the same three predict
// clients, plus one client alternating `warm-start` and `solve` requests
// on seeded 10-node ER graphs at p = 3.  Scheduler::process_batch fires
// completions only after its whole micro-batch finishes, so a predict
// that shares a batch with a solve waits for it; that head-of-line
// blocking shows in the predict tail.
//
// Every predict response is checked bit for bit against a local
// ParameterPredictor loaded from the served bank file, and one in
// fifteen warm-start / solve responses against the library called
// locally on the same request.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <thread>

#include "bench_e2e.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/serving.hpp"
#include "core/serving_client.hpp"
#include "graph/generators.hpp"
#include "latency.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace qaoaml;
using core::serving::Client;
using core::serving::Response;
using Clock = std::chrono::steady_clock;

constexpr const char* kFamily = "erdos-renyi";
constexpr int kPredictClients = 3;
constexpr int kSolveDepth = 3;
// One warm-start / solve response in this many is recomputed locally and
// compared; only those are kept (alternating kinds, so both are checked).
constexpr std::uint64_t kSolveCheckStride = 15;

// Latencies go into a buffer of fixed size, touched before the clock
// starts, so the load generator's memory does not grow with the server's
// throughput and peak_rss_mb stays a property of the system under test.
// 2^19 samples per client is about twice what a 20 s window of
// predicts produced on the reference host (about 12k per client per
// second); later requests are still sent, counted and checked.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 19;

struct PredictRequest {
  double gamma1 = 0.0;
  double beta1 = 0.0;
  int depth = 2;
};

/// The next request of a predict client's seeded stream.  The checker
/// replays the same stream, so requests are never stored.
PredictRequest next_predict(Rng& rng) {
  PredictRequest request;
  request.gamma1 = rng.uniform(0.0, 2.0 * std::numbers::pi);
  request.beta1 = rng.uniform(0.0, std::numbers::pi);
  request.depth = 2 + static_cast<int>(rng.uniform_int(4));
  return request;
}

std::uint64_t fold(std::uint64_t digest, const std::vector<double>& angles) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(angles.data()),
                                angles.size() * sizeof(double)),
               digest);
}

struct SolveSample {
  bool solve = false;  ///< false = warm-start
  graph::Graph problem{1};
  std::uint64_t seed = 0;
  Response response;
};

/// What one client thread saw in one phase.  Per-request numbers are
/// kept apart by whether spans were being recorded when the request
/// started ([0] untraced, [1] traced).
struct ClientLog {
  Rng stream;                       ///< first state of the request stream
  std::span<double> latency_ms[2];  ///< predicts; first `recorded` valid
  std::size_t recorded[2] = {0, 0};
  std::int64_t completed[2] = {0, 0};  ///< ok responses
  std::vector<double> solve_ms[2];
  std::vector<double> warm_ms[2];
  std::uint64_t digest = fnv1a("");  ///< over the angles of ok predicts
  std::vector<std::uint64_t> unanswered;  ///< predicts with no ok response
  std::vector<SolveSample> solves;        ///< the ones to check
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string error;
};

struct Phase {
  double seconds[2] = {0.0, 0.0};  ///< reference-speed time untraced / traced
  std::vector<ClientLog> clients;
  LatencySummary predict[2];
  double predict_p99[2] = {0.0, 0.0};
  LatencySummary solve[2];
  LatencySummary warm[2];
  std::string speed_error;

  double rate(int traced) const {
    double done = 0.0;
    for (const ClientLog& log : clients) done += static_cast<double>(log.completed[traced]);
    return seconds[traced] > 0.0 ? done / seconds[traced] : 0.0;
  }
};

constexpr auto kSliceLength = std::chrono::milliseconds(500);

/// The slices of one phase.  Clients run closed loop until the slice
/// ends, then wait at a barrier.  The barrier's completion step runs on
/// the last client to arrive, so with every client, and the server, idle:
/// it runs the host-speed kernel, books the slice's time at reference
/// speed and opens the next slice.  The barrier orders its writes before
/// the clients read `end`, `scale` and `done`.
struct Slices {
  const Options* options = nullptr;
  bool alternate = false;  ///< ABBA-interleave traced slices (traced_op)
  HostSpeed* speed = nullptr;  ///< null: every scale is 1
  Phase* phase = nullptr;
  Clock::time_point deadline;

  std::size_t index = 0;
  int traced = 0;
  Clock::time_point start;
  Clock::time_point end;  ///< the current slice takes no request after this
  double scale = 1.0;     ///< factor of the slice closed last
  bool done = false;      ///< no slice follows the one closed last

  void open(std::size_t slice) {
    index = slice;
    traced = alternate && traced_op(*options, slice) ? 1 : 0;
    trace::set_enabled(traced == 1);
    start = Clock::now();
    end = std::min(start + std::chrono::duration_cast<Clock::duration>(kSliceLength),
                   deadline);
  }

  void close() noexcept {
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    trace::set_enabled(false);
    scale = 1.0;
    if (speed != nullptr) {
      try {
        scale = speed->scale();
      } catch (const std::exception& e) {
        phase->speed_error = e.what();
        done = true;
      }
    }
    phase->seconds[traced] += wall * scale;
    done = done || Clock::now() >= deadline;
    if (!done) open(index + 1);
  }
};

struct CloseSlice {
  Slices* slices;
  void operator()() noexcept { slices->close(); }
};
using SliceBarrier = std::barrier<CloseSlice>;

void predict_client(const std::string& socket_path, Slices& slices, SliceBarrier& barrier,
                    std::uint64_t client, ClientLog& log) {
  Rng rng = log.stream;
  std::uint64_t i = 0;
  try {
    Client connection(socket_path);
    do {
      const std::size_t begin[2] = {log.recorded[0], log.recorded[1]};
      for (; Clock::now() < slices.end; ++i) {
        const PredictRequest request = next_predict(rng);
        ++log.attempted;
        const int traced = trace::enabled() ? 1 : 0;
        const trace::Span span("serve.request", client << 32 | i);
        const auto start = Clock::now();
        const Response response = connection.predict(kFamily, request.gamma1,
                                                     request.beta1, request.depth);
        if (log.recorded[traced] < log.latency_ms[traced].size()) {
          log.latency_ms[traced][log.recorded[traced]++] =
              std::chrono::duration<double, std::milli>(Clock::now() - start).count();
        }
        if (response.ok) {
          ++log.completed[traced];
          log.digest = fold(log.digest, response.angles);
        } else {
          ++log.failed;
          log.unanswered.push_back(i);
        }
      }
      barrier.arrive_and_wait();
      for (int k = 0; k < 2; ++k) {
        for (std::size_t j = begin[k]; j < log.recorded[k]; ++j) {
          log.latency_ms[k][j] *= slices.scale;
        }
      }
    } while (!slices.done);
  } catch (const std::exception& e) {
    if (log.attempted > static_cast<std::int64_t>(i)) {  // the request in flight
      ++log.failed;
      log.unanswered.push_back(i);
    }
    log.error = e.what();
    barrier.arrive_and_drop();
  }
}

void solve_client(const std::string& socket_path, Slices& slices, SliceBarrier& barrier,
                  std::uint64_t client, ClientLog& log) {
  Rng rng = log.stream;
  try {
    Client connection(socket_path);
    std::uint64_t i = 0;
    do {
      const std::size_t solves[2] = {log.solve_ms[0].size(), log.solve_ms[1].size()};
      const std::size_t warms[2] = {log.warm_ms[0].size(), log.warm_ms[1].size()};
      for (; Clock::now() < slices.end; ++i) {
        SolveSample sample;
        sample.solve = i % 2 == 1;
        sample.problem = graph::erdos_renyi_gnp(10, 0.5, rng);
        while (sample.problem.num_edges() == 0) {
          sample.problem = graph::erdos_renyi_gnp(10, 0.5, rng);
        }
        sample.seed = rng();
        ++log.attempted;
        const int traced = trace::enabled() ? 1 : 0;
        const trace::Span span("serve.request", client << 32 | i);
        const auto start = Clock::now();
        sample.response =
            sample.solve
                ? connection.solve(kFamily, sample.problem, kSolveDepth, sample.seed)
                : connection.warm_start(kFamily, sample.problem, kSolveDepth,
                                        sample.seed);
        (sample.solve ? log.solve_ms : log.warm_ms)[traced].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start).count());
        if (!sample.response.ok) {
          ++log.failed;
          continue;
        }
        ++log.completed[traced];
        if (i % kSolveCheckStride == 0) log.solves.push_back(std::move(sample));
      }
      barrier.arrive_and_wait();
      for (int k = 0; k < 2; ++k) {
        for (std::size_t j = solves[k]; j < log.solve_ms[k].size(); ++j) {
          log.solve_ms[k][j] *= slices.scale;
        }
        for (std::size_t j = warms[k]; j < log.warm_ms[k].size(); ++j) {
          log.warm_ms[k][j] *= slices.scale;
        }
      }
    } while (!slices.done);
  } catch (const std::exception& e) {
    ++log.failed;
    log.error = e.what();
    barrier.arrive_and_drop();
  }
}

/// Runs every client for `seconds`, closed loop, one thread each, in
/// slices (see Slices), and summarizes the latencies at reference speed.
/// With `alternate`, span recording is switched on and off slice by
/// slice (traced_op's order) and each request is booked by the slice it
/// started in.  `latency_buffer` holds kLatencyCapacity samples per
/// predict client and slice kind, and is reused by every phase.
Phase run_phase(const Options& options, const std::string& socket_path,
                bool mixed, double seconds, int phase_index, bool alternate,
                std::span<double> latency_buffer, HostSpeed* speed) {
  Phase phase;
  const int clients = kPredictClients + (mixed ? 1 : 0);
  const int kinds = alternate ? 2 : 1;
  phase.clients.resize(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    ClientLog& log = phase.clients[static_cast<std::size_t>(c)];
    log.stream = Rng(mix(options.seed, 0xC11E + 16 * static_cast<std::uint64_t>(phase_index) +
                                           static_cast<std::uint64_t>(c)));
    for (int k = 0; k < kinds && c < kPredictClients; ++k) {
      log.latency_ms[k] = latency_buffer.subspan(
          static_cast<std::size_t>(k * kPredictClients + c) * kLatencyCapacity,
          kLatencyCapacity);
    }
  }
  Slices slices;
  slices.options = &options;
  slices.alternate = alternate;
  slices.speed = speed;
  slices.phase = &phase;
  slices.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  slices.open(0);
  SliceBarrier barrier(clients, CloseSlice{&slices});
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      ClientLog* log = &phase.clients[static_cast<std::size_t>(c)];
      const auto id = static_cast<std::uint64_t>(c);
      if (c < kPredictClients) {
        threads.emplace_back(
            [&, id, log] { predict_client(socket_path, slices, barrier, id, *log); });
      } else {
        threads.emplace_back(
            [&, id, log] { solve_client(socket_path, slices, barrier, id, *log); });
      }
    }
  }
  trace::set_enabled(false);

  // Pack each kind's predict samples to the front of its part of the
  // buffer and summarize them there; the buffer is free again afterwards.
  for (int k = 0; k < kinds; ++k) {
    const std::span<double> part = latency_buffer.subspan(
        static_cast<std::size_t>(k * kPredictClients) * kLatencyCapacity,
        kPredictClients * kLatencyCapacity);
    std::size_t packed = 0;
    std::vector<double> solve_ms;
    std::vector<double> warm_ms;
    for (ClientLog& log : phase.clients) {
      std::copy_n(log.latency_ms[k].begin(), log.recorded[k], part.begin() + packed);
      packed += log.recorded[k];
      log.latency_ms[k] = {};
      solve_ms.insert(solve_ms.end(), log.solve_ms[k].begin(), log.solve_ms[k].end());
      warm_ms.insert(warm_ms.end(), log.warm_ms[k].begin(), log.warm_ms[k].end());
    }
    phase.predict[k] = summarize_latency(part.first(packed));
    phase.predict_p99[k] = percentile(part.first(packed), 99.0);
    phase.solve[k] = summarize_latency(solve_ms);
    phase.warm[k] = summarize_latency(warm_ms);
  }
  return phase;
}

/// Replays a predict client's request stream against the local bank and
/// compares the digest of every answered request bit for bit.
struct PredictVerdict {
  std::uint64_t checked = 0;
  bool same = false;
  double seconds = 0.0;  ///< replay time, almost all of it in predict()
};

PredictVerdict verify_predicts(const ClientLog& log,
                               const core::ParameterPredictor& bank) {
  const trace::Span span("serve.compute");
  PredictVerdict verdict;
  Rng rng = log.stream;
  std::uint64_t digest = fnv1a("");
  std::size_t next_unanswered = 0;
  verdict.seconds = time_call([&] {
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(log.attempted); ++i) {
      const PredictRequest request = next_predict(rng);
      if (next_unanswered < log.unanswered.size() &&
          log.unanswered[next_unanswered] == i) {
        ++next_unanswered;
        continue;
      }
      digest = fold(digest,
                    bank.predict(request.gamma1, request.beta1, request.depth));
      ++verdict.checked;
    }
  });
  verdict.same = digest == log.digest;
  return verdict;
}

/// The server's answer to a warm-start or solve request, recomputed
/// locally through the same library calls process_batch makes.
bool matches_library(const SolveSample& sample,
                     const core::ParameterPredictor& bank) {
  const core::TwoLevelConfig solver;  // ServerConfig's default
  Rng rng(sample.seed);
  const Response& got = sample.response;
  if (sample.solve) {
    const core::AcceleratedRun run =
        core::solve_two_level(sample.problem, kSolveDepth, bank, solver, rng);
    return got.function_calls == run.total_function_calls &&
           same_bits(got.expectation, run.final.expectation) &&
           same_bits(got.angles, run.predicted_init);
  }
  const core::MaxCutQaoa level1_instance(sample.problem, 1);
  const core::QaoaRun level1 = core::solve_random_init(
      level1_instance, solver.optimizer, rng, solver.eval, solver.options);
  const std::vector<double> angles =
      bank.predict(core::gamma_of(level1.params, 1), core::beta_of(level1.params, 1),
                   kSolveDepth);
  const core::MaxCutQaoa target(sample.problem, kSolveDepth);
  const core::BatchJob job{&target, angles, solver.eval};
  const double expectation =
      core::BatchEvaluator::evaluations(std::span<const core::BatchJob>(&job, 1))[0];
  return got.function_calls == level1.function_calls + 1 &&
         same_bits(got.angles, angles) && same_bits(got.expectation, expectation);
}

}  // namespace

void run_serve(const Options& options, bool mixed, Report& report) {
  const char* name = mixed ? "serve_mixed" : "serve_predict";
  const TempDir tmp(options, name);
  const std::string bank_path = tmp.file("bank.qpb");
  const std::string socket_path = tmp.file("qaoad.sock");
  std::optional<Bank> bank;
  std::unique_ptr<core::serving::Server> server;
  // Set-up and the traced replays compute; the window serves.
  HostSpeed compute_speed(SpeedKernel::kCompute);
  HostSpeed serve_speed(SpeedKernel::kServe);
  int setups = 0;
  report.add("setup_s", median_setup(options, compute_speed, [&] {
               server.reset();
               bank.reset();
               bank.emplace(build_bank(
                   options, tmp.file("bank" + std::to_string(setups++))));
               bank->predictor.save(bank_path);
               core::serving::ServerConfig config;
               config.socket_path = socket_path;
               config.banks = {{kFamily, bank_path}};
               config.workers = mixed ? 2 : 1;
               config.batch_max = 8;
               config.queue_capacity = 64;
               server = std::make_unique<core::serving::Server>(config);
               Client probe(socket_path);
               if (!probe.ping()) throw std::runtime_error("server did not answer ping");
             }),
             "s");

  // Allocated and touched once, before any phase, so its pages count the
  // same in every run.
  std::vector<double> latency_buffer(
      (options.trace ? 2 : 1) * kPredictClients * kLatencyCapacity, 0.0);
  const Phase warmup = run_phase(options, socket_path, mixed, options.smoke ? 0.1 : 1.0,
                                 0, /*alternate=*/false, latency_buffer, nullptr);
  for (const ClientLog& log : warmup.clients) {
    report.check(log.failed == 0, std::string(name) + ": warm-up request failed " +
                                      log.error);
  }
  const Phase phase = run_phase(options, socket_path, mixed, options.seconds, 1,
                                /*alternate=*/options.trace, latency_buffer,
                                &serve_speed);
  report.check(phase.speed_error.empty(),
               std::string(name) + ": host-speed kernel failed: " + phase.speed_error);
  const core::serving::ServerStats stats = Client(socket_path).server_stats();
  server.reset();

  const core::ParameterPredictor local = core::ParameterPredictor::load(bank_path);
  double solve_checks = 0.0;
  std::vector<double> recompute_ms;  // checked solves, computed locally
  for (const ClientLog& log : phase.clients) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    report.check(log.error.empty(), std::string(name) + ": client failed: " + log.error);
    for (const SolveSample& sample : log.solves) {
      bool same = false;
      const double seconds = time_call([&] { same = matches_library(sample, local); });
      if (sample.solve) recompute_ms.push_back(1e3 * seconds);
      ++solve_checks;
      if (!same) ++report.failed;
      report.check(same, std::string(name) + ": a warm-start/solve response "
                                             "differs from the library");
    }
  }
  std::vector<PredictVerdict> verdicts(kPredictClients);
  {
    const TraceScope recording(options.trace);
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      threads.emplace_back([&, i] { verdicts[i] = verify_predicts(phase.clients[i], local); });
    }
  }
  const double compute_scale = options.trace ? compute_speed.scale() : 1.0;
  double checked = 0.0;
  double compute_s = 0.0;  // at reference speed
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    checked += static_cast<double>(verdicts[i].checked);
    compute_s += verdicts[i].seconds * compute_scale;
    if (!verdicts[i].same) {
      // The digest cannot say which responses differ: count them all.
      report.failed += static_cast<std::int64_t>(verdicts[i].checked);
    }
    report.check(verdicts[i].same,
                 std::string(name) + ": predict responses differ from the local bank");
  }
  std::printf("# checked %.0f predict responses and %.0f warm-start/solve responses\n",
              checked, solve_checks);

  // End-to-end numbers from the untraced requests, at reference speed.
  const LatencySummary& predict = phase.predict[0];
  const double predict_p99 = phase.predict_p99[0];
  const double rps = phase.rate(0);
  std::printf("# predict round trips (reference speed): %s\n",
              describe(predict, "ms").c_str());
  report.add("throughput_per_s", rps, "1/s");
  report.add("latency_p50_ms", predict.median, "ms");
  report.add("host_speed", serve_speed.median_speed(), "x");
  if (mixed) {
    const LatencySummary& solve = phase.solve[0];
    std::printf("# solve round trips (reference speed): %s\n", describe(solve, "ms").c_str());
    std::printf("# warm-start round trips (reference speed): %s\n",
                describe(phase.warm[0], "ms").c_str());
    // A served solve's round trip less the same solve computed locally
    // is what serving adds: wire, queue, and waiting behind batch mates.
    std::printf("# checked solves computed locally (wall time): %s\n",
                describe(summarize_latency(recompute_ms), "ms").c_str());
    report.add("mixed_solve_p50_ms", solve.median, "ms");
  }

  if (!options.trace) return;
  const double traced_rps = phase.rate(1);
  report.add("trace_overhead_pct",
             traced_rps > 0.0 ? 100.0 * (rps / traced_rps - 1.0) : 0.0, "%");

  // Codec replay on the first client's requests: the four codec calls one
  // predict round trip makes, outside any socket.
  const std::size_t replays = std::min<std::size_t>(
      static_cast<std::size_t>(phase.clients[0].attempted), 20000);
  std::vector<core::serving::Request> requests_in(replays);
  std::vector<std::vector<double>> angles_out(replays);
  {
    Rng rng = phase.clients[0].stream;
    for (std::size_t i = 0; i < replays; ++i) {
      const PredictRequest r = next_predict(rng);
      requests_in[i].id = i;
      requests_in[i].family = kFamily;
      requests_in[i].target_depth = r.depth;
      requests_in[i].gamma1 = r.gamma1;
      requests_in[i].beta1 = r.beta1;
      angles_out[i] = local.predict(r.gamma1, r.beta1, r.depth);
    }
  }
  double codec_s = 0.0;
  std::size_t codec_mismatches = 0;
  {
    const TraceScope recording(true);
    const trace::Span span("serve.codec");
    codec_s = time_call([&] {
      for (std::size_t i = 0; i < replays; ++i) {
        const core::serving::Request decoded = core::serving::decode_request(
            core::serving::kPredictRequest, core::serving::encode_request(requests_in[i]));
        Response response;
        response.id = decoded.id;
        response.ok = true;
        response.gamma1 = decoded.gamma1;
        response.beta1 = decoded.beta1;
        response.angles = angles_out[i];
        const Response back =
            core::serving::decode_response(core::serving::encode_response(response));
        if (back.id != i || !same_bits(back.angles, angles_out[i])) ++codec_mismatches;
      }
    });
  }
  codec_s *= compute_speed.scale();
  report.check(codec_mismatches == 0,
               std::string(name) + ": codec round trip changed a response");
  const double rtt_us = 1e3 * predict.median;
  const double codec_us = replays > 0 ? 1e6 * codec_s / static_cast<double>(replays) : 0.0;
  const double compute_us = checked > 0.0 ? 1e6 * compute_s / checked : 0.0;
  std::printf("# predict p50 %.2f us = codec %.2f + compute %.2f + wait %.2f\n", rtt_us,
              codec_us, compute_us, rtt_us - codec_us - compute_us);
  report.add("serve.codec_pct", 100.0 * codec_us / rtt_us, "%");
  report.add("serve.compute_pct", 100.0 * compute_us / rtt_us, "%");
  report.add("serve.wait_pct", 100.0 * (rtt_us - codec_us - compute_us) / rtt_us, "%");
  report.add("serve.tail_ratio", predict_p99 / predict.median, "x");
  report.add("serve.batch_mean",
             stats.batches > 0
                 ? static_cast<double>(stats.served + stats.errors) /
                       static_cast<double>(stats.batches)
                 : 0.0,
             "count");
  report.add("serve.max_batch", static_cast<double>(stats.max_batch), "count");
  report.add("ml.train_s", bank->train_s, "s");
  run_probe(options, bank->predictor, report);
}

}  // namespace e2e
