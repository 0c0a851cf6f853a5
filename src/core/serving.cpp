#include "core/serving.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signals.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/qaoa_solver.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core::serving {

namespace {

Mode mode_from_frame_type(std::uint32_t frame_type) {
  switch (frame_type) {
    case kPredictRequest:
      return Mode::kPredict;
    case kWarmStartRequest:
      return Mode::kWarmStart;
    case kSolveRequest:
      return Mode::kSolve;
    default:
      throw InvalidArgument("serving: unknown request frame type " +
                            std::to_string(frame_type));
  }
}

}  // namespace

std::uint32_t request_frame_type(Mode mode) {
  switch (mode) {
    case Mode::kPredict:
      return kPredictRequest;
    case Mode::kWarmStart:
      return kWarmStartRequest;
    case Mode::kSolve:
      return kSolveRequest;
  }
  throw InvalidArgument("serving: invalid request mode");
}

void encode_graph(wire::PayloadWriter& writer, const graph::Graph& g) {
  writer.u32(static_cast<std::uint32_t>(g.num_nodes()));
  writer.u64(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    writer.u32(static_cast<std::uint32_t>(e.u));
    writer.u32(static_cast<std::uint32_t>(e.v));
    writer.f64(e.weight);
  }
}

graph::Graph decode_graph(wire::PayloadReader& reader) {
  const std::uint32_t nodes = reader.u32();
  // Every mode builds a 2^nodes cut table and statevector: a graph
  // beyond the simulator's cap is rejected here, before any allocation.
  if (nodes > static_cast<std::uint32_t>(quantum::kMaxQubits)) {
    throw InvalidArgument("serving: graph too large (" +
                          std::to_string(nodes) + " nodes)");
  }
  const std::uint64_t edge_count = reader.u64();
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(nodes) * (nodes > 0 ? nodes - 1 : 0) / 2;
  if (edge_count > max_edges) {
    throw InvalidArgument("serving: graph announces more edges than a "
                          "simple graph admits");
  }
  graph::Graph g(static_cast<int>(nodes));
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    const std::uint32_t u = reader.u32();
    const std::uint32_t v = reader.u32();
    const double weight = reader.f64();
    // add_edge re-validates: out-of-range endpoints, self-loops and
    // duplicates from a hostile client all throw here.
    g.add_edge(static_cast<int>(u), static_cast<int>(v), weight);
  }
  return g;
}

/// Version tag of the optional trailing eval block on kWarmStart /
/// kSolve requests.  The block is appended only for sampled specs, so
/// exact requests stay byte-identical to the pre-EvalSpec protocol.
constexpr std::uint32_t kEvalBlockVersion = 1;

std::string encode_request(const Request& request) {
  wire::PayloadWriter writer;
  writer.u64(request.id);
  writer.str(request.family);
  writer.i32(request.target_depth);
  if (request.mode == Mode::kPredict) {
    writer.f64(request.gamma1);
    writer.f64(request.beta1);
  } else {
    encode_graph(writer, request.problem);
    writer.u64(request.seed);
    writer.i32(request.level1_restarts);
    if (request.eval.sampled()) {
      writer.u32(kEvalBlockVersion);
      writer.i32(request.eval.shots);
      writer.i32(request.eval.averaging);
      writer.u32(request.eval.seed_policy == SeedPolicy::kPerCall ? 1 : 0);
      writer.u64(request.eval.seed);
    }
  }
  return writer.bytes();
}

Request decode_request(std::uint32_t frame_type, const std::string& payload) {
  Request request;
  request.mode = mode_from_frame_type(frame_type);
  wire::PayloadReader reader(payload);
  request.id = reader.u64();
  request.family = reader.str(1u << 10);
  request.target_depth = reader.i32();
  if (request.mode == Mode::kPredict) {
    request.gamma1 = reader.f64();
    request.beta1 = reader.f64();
  } else {
    request.problem = decode_graph(reader);
    request.seed = reader.u64();
    request.level1_restarts = reader.i32();
    require(request.level1_restarts >= 1,
            "decode_request: level1_restarts must be >= 1");
    if (!reader.at_end()) {
      // Optional trailing eval block (new clients in sampled mode).
      // Unknown versions throw: the checksum already passed, so this is
      // a future client, not line noise, and a loud error response
      // beats silently serving exact values for a sampled request.
      const std::uint32_t version = reader.u32();
      require(version == kEvalBlockVersion,
              "decode_request: unsupported eval block version " +
                  std::to_string(version));
      request.eval.mode = ObjectiveMode::kSampled;
      request.eval.shots = reader.i32();
      request.eval.averaging = reader.i32();
      request.eval.seed_policy =
          reader.u32() == 1 ? SeedPolicy::kPerCall : SeedPolicy::kStream;
      request.eval.seed = reader.u64();
      validate(request.eval);  // hostile shot counts -> error response
    }
  }
  reader.expect_end();
  return request;
}

std::string encode_response(const Response& response) {
  wire::PayloadWriter writer;
  writer.u64(response.id);
  writer.u32(response.ok ? 1 : 0);
  writer.str(response.error);
  writer.u64(response.bank_generation);
  writer.f64(response.gamma1);
  writer.f64(response.beta1);
  writer.vec_f64(response.angles);
  writer.f64(response.expectation);
  writer.f64(response.approximation_ratio);
  writer.i32(response.function_calls);
  return writer.bytes();
}

Response decode_response(const std::string& payload) {
  wire::PayloadReader reader(payload);
  Response response;
  response.id = reader.u64();
  response.ok = reader.u32() != 0;
  response.error = reader.str(1u << 16);
  response.bank_generation = reader.u64();
  response.gamma1 = reader.f64();
  response.beta1 = reader.f64();
  response.angles = reader.vec_f64(1u << 16);
  response.expectation = reader.f64();
  response.approximation_ratio = reader.f64();
  response.function_calls = reader.i32();
  reader.expect_end();
  return response;
}

std::string encode_stats(const ServerStats& stats) {
  wire::PayloadWriter writer;
  writer.u64(stats.served);
  writer.u64(stats.errors);
  writer.u64(stats.batches);
  writer.u64(stats.max_batch);
  writer.u64(stats.reloads);
  writer.u64(stats.connections);
  writer.u64(stats.bank_generation);
  return writer.bytes();
}

ServerStats decode_stats(const std::string& payload) {
  wire::PayloadReader reader(payload);
  ServerStats stats;
  stats.served = reader.u64();
  stats.errors = reader.u64();
  stats.batches = reader.u64();
  stats.max_batch = reader.u64();
  stats.reloads = reader.u64();
  stats.connections = reader.u64();
  stats.bank_generation = reader.u64();
  reader.expect_end();
  return stats;
}

// ---------------------------------------------------------------------------
// BankSet

namespace {

std::map<std::string, std::shared_ptr<const ParameterPredictor>> load_banks(
    const std::vector<std::pair<std::string, std::string>>& family_paths) {
  require(!family_paths.empty(), "BankSet: at least one bank is required");
  std::map<std::string, std::shared_ptr<const ParameterPredictor>> banks;
  for (const auto& [family, path] : family_paths) {
    require(!family.empty(), "BankSet: empty family name");
    auto bank = std::make_shared<const ParameterPredictor>(
        ParameterPredictor::load(path));
    if (!banks.emplace(family, std::move(bank)).second) {
      throw InvalidArgument("BankSet: duplicate bank for family '" + family +
                            "'");
    }
  }
  return banks;
}

}  // namespace

BankSet::BankSet(std::vector<std::pair<std::string, std::string>> family_paths)
    : family_paths_(std::move(family_paths)),
      banks_(load_banks(family_paths_)) {}

BankSet::Entry BankSet::lookup(const std::string& family) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = banks_.find(family);
  if (it == banks_.end()) {
    std::string known;
    for (const auto& [name, bank] : banks_) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw InvalidArgument("serving: no bank for family '" + family +
                          "' (loaded: " + known + ")");
  }
  return Entry{it->second, generation_};
}

void BankSet::reload() {
  // Load outside the lock — file I/O and deserialization must not stall
  // lookups — then swap atomically.  On a throw the old set is untouched.
  auto fresh = load_banks(family_paths_);
  std::lock_guard<std::mutex> lock(mutex_);
  banks_ = std::move(fresh);
  ++generation_;
}

std::uint64_t BankSet::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

std::vector<std::string> BankSet::families() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(banks_.size());
  for (const auto& [name, bank] : banks_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(const BankSet& banks, SchedulerConfig config)
    : banks_(banks), config_(config), queue_(config.queue_capacity) {
  require(config_.workers >= 1, "Scheduler: workers must be >= 1");
  require(config_.batch_max >= 1, "Scheduler: batch_max must be >= 1");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::submit(Request request, Completion done) {
  queue_.push(Job{std::move(request), std::move(done)});
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  workers_.clear();  // jthread destructors join; pop_batch drains first
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Scheduler::worker_loop() {
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    if (queue_.pop_batch(batch, config_.batch_max) == 0) return;
    process_batch(batch);
  }
}

void Scheduler::process_batch(std::vector<Job>& jobs) {
  // Pass 1 — per-request work: bank lookup, level-1 optimization
  // (kWarmStart), or the full two-level solve (kSolve).  kWarmStart
  // defers its predicted-angle expectation to pass 2 so the whole
  // micro-batch evaluates as ONE heterogeneous BatchEvaluator batch.
  struct Deferred {
    std::size_t job = 0;           // index into `jobs`
    MaxCutQaoa instance;           // keeps the target instance alive
    int level1_calls = 0;          // carried through for the response
  };
  std::vector<Response> responses(jobs.size());
  std::deque<Deferred> deferred;
  std::vector<BatchJob> eval_jobs;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Request& request = jobs[i].request;
    Response& response = responses[i];
    response.id = request.id;
    try {
      const BankSet::Entry entry = banks_.lookup(request.family);
      response.bank_generation = entry.generation;
      switch (request.mode) {
        case Mode::kPredict: {
          response.gamma1 = request.gamma1;
          response.beta1 = request.beta1;
          response.angles = entry.bank->predict(request.gamma1, request.beta1,
                                                request.target_depth);
          break;
        }
        case Mode::kWarmStart: {
          TwoLevelConfig solver = config_.solver;
          solver.level1_restarts = request.level1_restarts;
          solver.eval = request.eval;
          Rng rng(request.seed);
          const QaoaRun level1 = solve_level1(request.problem, solver, rng);
          response.gamma1 = gamma_of(level1.params, 1);
          response.beta1 = beta_of(level1.params, 1);
          response.angles = entry.bank->predict(
              response.gamma1, response.beta1, request.target_depth);
          deferred.push_back(
              Deferred{i, MaxCutQaoa(request.problem, request.target_depth),
                       level1.function_calls});
          break;
        }
        case Mode::kSolve: {
          TwoLevelConfig solver = config_.solver;
          solver.level1_restarts = request.level1_restarts;
          solver.eval = request.eval;
          Rng rng(request.seed);
          const AcceleratedRun run = solve_two_level(
              request.problem, request.target_depth, *entry.bank, solver, rng);
          response.gamma1 = gamma_of(run.level1.params, 1);
          response.beta1 = beta_of(run.level1.params, 1);
          response.angles = run.predicted_init;
          response.expectation = run.final.expectation;
          response.approximation_ratio = run.final.approximation_ratio;
          response.function_calls = run.total_function_calls;
          break;
        }
      }
      response.ok = true;
    } catch (const std::exception& e) {
      response.ok = false;
      response.error = e.what();
    }
  }

  // Pass 2 — one batched evaluation for every warm-start request in the
  // micro-batch.  Entry i depends only on job i (BatchEvaluator's
  // determinism contract), so batching never changes the bits.
  if (!deferred.empty()) {
    eval_jobs.reserve(deferred.size());
    for (const Deferred& d : deferred) {
      // The job carries the request's eval spec: a sampled warm-start
      // reports the finite-shot estimate at the prediction, seeded by
      // the spec itself (still a pure function of the request, so
      // micro-batching never changes the bits).
      eval_jobs.push_back(BatchJob{&d.instance, responses[d.job].angles,
                                   jobs[d.job].request.eval});
    }
    try {
      const std::vector<double> values = BatchEvaluator::evaluations(
          std::span<const BatchJob>(eval_jobs.data(), eval_jobs.size()));
      for (std::size_t k = 0; k < deferred.size(); ++k) {
        Response& response = responses[deferred[k].job];
        response.expectation = values[k];
        response.approximation_ratio =
            values[k] / deferred[k].instance.max_value();
        // Level-1 calls plus the single prediction-point evaluation.
        response.function_calls = deferred[k].level1_calls + 1;
      }
    } catch (const std::exception& e) {
      for (const Deferred& d : deferred) {
        responses[d.job].ok = false;
        responses[d.job].error = e.what();
      }
    }
  }

  std::uint64_t ok_count = 0;
  for (const Response& response : responses) {
    if (response.ok) ++ok_count;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.served += ok_count;
    stats_.errors += jobs.size() - ok_count;
    stats_.batches += 1;
    stats_.max_batch = std::max(stats_.max_batch,
                                static_cast<std::uint64_t>(jobs.size()));
  }

  // Completions last: the connection layer may be waiting on these to
  // retire its pending count, and they must fire exactly once per job.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].done(responses[i]);
  }
}

// ---------------------------------------------------------------------------
// Server

struct Server::Connection {
  net::Fd fd;
  std::mutex write_mutex;       // interleaves responses on one socket
  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::size_t pending = 0;      // requests in the scheduler for this conn
  std::atomic<bool> finished{false};
  std::thread thread;

  /// Sends one frame under the write lock.  A vanished peer
  /// (send_frame == false) or any send error is absorbed: the daemon
  /// drops the response and keeps serving other connections.
  void send(std::uint32_t type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mutex);
    try {
      wire::send_frame(fd.get(), type, payload);
    } catch (const std::exception&) {
      // Peer gone mid-write; nothing to do for a one-way response.
    }
  }
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      banks_(config_.banks),
      scheduler_(banks_, SchedulerConfig{config_.workers,
                                         config_.queue_capacity,
                                         config_.batch_max, config_.solver}),
      listener_(net::unix_listen(config_.socket_path, config_.backlog)) {
  ignore_sigpipe();  // belt to send_all's MSG_NOSIGNAL braces
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::reload() {
  banks_.reload();
  reloads_.fetch_add(1);
  if (config_.log != nullptr) {
    std::fprintf(config_.log, "[qaoad] banks reloaded (generation %llu)\n",
                 static_cast<unsigned long long>(banks_.generation()));
    std::fflush(config_.log);
  }
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  // 1. Stop accepting: shutdown wakes the blocked accept, which then
  //    returns an invalid Fd and the accept loop exits.
  ::shutdown(listener_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Wake every connection reader with a read-side EOF.  In-flight
  //    requests stay queued; readers wait for their completions below.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conns.swap(open_connections_);
  }
  for (const auto& conn : conns) {
    // A finishing reader closes its fd under pending_mutex, and a closed
    // fd's number may already belong to an unrelated socket.
    std::lock_guard<std::mutex> lock(conn->pending_mutex);
    if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RD);
  }
  // 3. Join readers: each drains its pending completions (the scheduler
  //    workers are still running) and flushes its last responses.
  for (const auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  // 4. Now the queue is quiet; drain and join the workers.
  scheduler_.stop();
  listener_.reset();
  ::unlink(config_.socket_path.c_str());
}

ServerStats Server::stats() const {
  const Scheduler::Stats s = scheduler_.stats();
  ServerStats out;
  out.served = s.served;
  out.errors = s.errors;
  out.batches = s.batches;
  out.max_batch = s.max_batch;
  out.reloads = reloads_.load();
  out.connections = connections_.load();
  out.bank_generation = banks_.generation();
  return out;
}

const std::string& Server::socket_path() const { return config_.socket_path; }

void Server::accept_loop() {
  for (;;) {
    net::Fd client = net::accept_client(listener_.get());
    if (!client.valid()) return;  // listener shut down
    connections_.fetch_add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(client);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      // Reap connections whose reader already finished, so a long-lived
      // daemon does not accumulate one entry per served client.
      for (auto it = open_connections_.begin();
           it != open_connections_.end();) {
        if ((*it)->finished.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = open_connections_.erase(it);
        } else {
          ++it;
        }
      }
      open_connections_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] {
      wire::Frame frame;
      for (;;) {
        try {
          if (wire::recv_frame(conn->fd.get(), frame) ==
              wire::RecvResult::kEof) {
            break;  // clean hang-up between requests
          }
        } catch (const std::exception& e) {
          // Corrupt frame or EOF mid-frame: answer with a framing error
          // (best effort — the peer may already be gone) and hang up.
          Response response;
          response.error = e.what();
          conn->send(kResultResponse, encode_response(response));
          break;
        }
        if (frame.type == kPingRequest) {
          conn->send(kPongResponse, frame.payload);
          continue;
        }
        if (frame.type == kStatsRequest) {
          conn->send(kStatsResponse, encode_stats(stats()));
          continue;
        }
        Request request;
        try {
          request = decode_request(frame.type, frame.payload);
        } catch (const std::exception& e) {
          Response response;
          response.error = e.what();
          conn->send(kResultResponse, encode_response(response));
          continue;
        }
        const std::uint64_t request_id = request.id;
        {
          std::lock_guard<std::mutex> lock(conn->pending_mutex);
          ++conn->pending;
        }
        try {
          scheduler_.submit(std::move(request),
                            [conn](const Response& response) {
                              conn->send(kResultResponse,
                                         encode_response(response));
                              {
                                std::lock_guard<std::mutex> lock(
                                    conn->pending_mutex);
                                --conn->pending;
                              }
                              conn->pending_cv.notify_all();
                            });
        } catch (const std::exception& e) {
          {
            std::lock_guard<std::mutex> lock(conn->pending_mutex);
            --conn->pending;
          }
          Response response;
          response.id = request_id;
          response.error = e.what();
          conn->send(kResultResponse, encode_response(response));
        }
      }
      // Hold the socket open until every in-flight request for this
      // connection has answered — the zero-drop half of hot reload and
      // graceful shutdown.
      std::unique_lock<std::mutex> lock(conn->pending_mutex);
      conn->pending_cv.wait(lock, [&] { return conn->pending == 0; });
      conn->fd.reset();
      conn->finished.store(true);
    });
  }
}

}  // namespace qaoaml::core::serving
