#include "core/shard_orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/subprocess.hpp"
#include "common/timer.hpp"
#include "common/work_queue.hpp"

namespace qaoaml::core {
namespace {

using Clock = std::chrono::steady_clock;

/// One unit of monitor work: run shard `shard` for the `attempt`-th
/// time (0-based).
struct Attempt {
  int shard = 0;
  int attempt = 0;
};

/// A failed attempt parked until its backoff expires.
struct DelayedRetry {
  Clock::time_point ready;
  Attempt item;
};

/// Everything the scheduler and the monitors share.  One mutex guards
/// it all — every touch is bookkeeping, never a blocking operation.
struct Shared {
  explicit Shared(int shard_count)
      : outcomes(static_cast<std::size_t>(shard_count)),
        outstanding(static_cast<std::size_t>(shard_count)) {}

  std::mutex mutex;
  std::condition_variable scheduler_cv;  ///< wakes the scheduler

  std::vector<ShardOutcome> outcomes;
  std::size_t outstanding;  ///< shards not yet terminal
  std::vector<DelayedRetry> delayed;  ///< failed shards waiting out backoff

  Timer timer;
  double last_progress_print_s = -1.0;
};

double backoff_seconds(const OrchestratorConfig& config, int failures) {
  double delay = config.backoff_initial_s;
  for (int i = 1; i < failures; ++i) delay *= config.backoff_factor;
  return std::min(delay, config.backoff_max_s);
}

/// Aggregated one-line progress, rate-limited to one print per second.
/// Caller holds the shared mutex.
void print_progress(const OrchestratorConfig& config, Shared& shared,
                    bool force) {
  if (config.progress_out == nullptr) return;
  const double now = shared.timer.seconds();
  if (!force && shared.last_progress_print_s >= 0.0 &&
      now - shared.last_progress_print_s < 1.0) {
    return;
  }
  shared.last_progress_print_s = now;

  ProgressSnapshot snapshot;
  snapshot.seconds = now;
  for (const ShardOutcome& s : shared.outcomes) {
    snapshot.done += s.units_done;
    snapshot.total += s.units_total;
    if (s.succeeded) ++snapshot.finished;
    if (s.attempts > 0 && !s.succeeded) ++snapshot.active;  // or retrying
  }
  std::fprintf(config.progress_out, "[launch] %s\n",
               format_progress_line(snapshot).c_str());
  std::fflush(config.progress_out);
}

/// Runs one worker attempt to completion and returns success.  Fills
/// `error` on failure.  Updates shared progress as frames arrive.
bool run_attempt(const OrchestratorConfig& config, Shared& shared,
                 const Attempt& item, std::string& error) {
  Subprocess child;
  try {
    child = Subprocess::spawn(config.worker_argv(item.shard));
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }

  // Slice the blocking read so stall checks run a few times per second
  // even when the worker is silent.
  constexpr int kPollMs = 200;
  // After a kill, drain the pipe briefly so the child's buffered last
  // words land in the log — but bounded: a worker that forked helpers
  // leaves the pipe's write end open in processes the kill never
  // touched, and waiting for EOF then waits forever.
  constexpr double kPostKillDrainS = 1.0;
  Clock::time_point last_activity = Clock::now();
  Clock::time_point kill_time;
  bool killed_for_stall = false;
  bool killed_by_injector = false;

  for (;;) {
    if ((killed_for_stall || killed_by_injector) &&
        std::chrono::duration<double>(Clock::now() - kill_time).count() >
            kPostKillDrainS) {
      break;
    }
    std::string line;
    const Subprocess::ReadResult result = child.read_line(line, kPollMs);
    if (result == Subprocess::ReadResult::kEof) break;

    if (result == Subprocess::ReadResult::kTimeout) {
      if (killed_for_stall || killed_by_injector) continue;
      // An exited child with an idle pipe is done even if EOF never
      // arrives (a forked helper may still hold the write end open).
      Subprocess::ExitStatus probe;
      if (child.try_wait(probe)) break;
      if (config.stall_timeout_s <= 0.0) continue;
      const double silent =
          std::chrono::duration<double>(Clock::now() - last_activity).count();
      if (silent < config.stall_timeout_s) continue;
      // Silent too long.  Probe the flock sidecar to say WHY in the
      // error: the kernel drops flock when the holder dies, so a free
      // lock means the worker is gone, a held one means it is wedged.
      std::string diagnosis = "no lock sidecar to probe";
      if (config.lock_path) {
        diagnosis = is_locked(config.lock_path(item.shard))
                        ? "lock still held: worker alive but wedged"
                        : "lock free: worker process is dead";
      }
      error = "stalled: no output for " + std::to_string(silent) + " s (" +
              diagnosis + ")";
      killed_for_stall = true;
      kill_time = Clock::now();
      child.kill();
      continue;  // bounded drain above, then reap below
    }

    last_activity = Clock::now();
    const proto::Event event = proto::parse_line(line);
    switch (event.kind) {
      case proto::Event::Kind::kNone:
        // Ordinary worker chatter (reports, error text): pass it
        // through, attributed, so a failing shard explains itself in
        // the orchestrator's own log.
        if (config.progress_out != nullptr && !line.empty()) {
          std::fprintf(config.progress_out, "[shard %d] %s\n", item.shard,
                       line.c_str());
          std::fflush(config.progress_out);
        }
        break;
      case proto::Event::Kind::kMalformed:
        if (config.progress_out != nullptr) {
          std::fprintf(config.progress_out,
                       "[shard %d] malformed protocol line: %s\n", item.shard,
                       line.c_str());
          std::fflush(config.progress_out);
        }
        break;
      case proto::Event::Kind::kStart:
      case proto::Event::Kind::kHeartbeat:
        break;  // pure liveness; last_activity already updated
      case proto::Event::Kind::kProgress: {
        std::lock_guard<std::mutex> lock(shared.mutex);
        ShardOutcome& outcome =
            shared.outcomes[static_cast<std::size_t>(item.shard)];
        outcome.units_done = event.done;
        outcome.units_total = event.total;
        print_progress(config, shared, /*force=*/false);
        break;
      }
      case proto::Event::Kind::kDone: {
        std::lock_guard<std::mutex> lock(shared.mutex);
        ShardOutcome& outcome =
            shared.outcomes[static_cast<std::size_t>(item.shard)];
        outcome.units_generated = event.generated;
        outcome.units_resumed = event.resumed;
        break;
      }
    }

    if (!killed_by_injector && !killed_for_stall && config.kill_injector &&
        event.kind != proto::Event::Kind::kNone &&
        config.kill_injector(item.shard, item.attempt, event)) {
      killed_by_injector = true;
      error = "killed by injected fault";
      kill_time = Clock::now();
      child.kill();
    }
  }

  const Subprocess::ExitStatus status = child.wait();
  if (killed_for_stall || killed_by_injector) return false;
  if (!status.success()) {
    error = "worker failed (" + status.describe() + ")";
    return false;
  }
  return true;
}

}  // namespace

std::string format_progress_line(const ProgressSnapshot& snapshot) {
  // Guard every division: before the first start frame total is 0, at
  // t=0 the elapsed time is 0, and a worker re-basing its counters on
  // resume can transiently report done > total.  None of those may
  // print as inf, NaN, or a wrapped unsigned difference.
  const std::size_t total = snapshot.total;
  const std::size_t done = total > 0 ? std::min(snapshot.done, total)
                                     : snapshot.done;
  const double pct =
      total > 0 ? 100.0 * static_cast<double>(done) / static_cast<double>(total)
                : 0.0;
  double rate = snapshot.seconds > 0.0
                    ? static_cast<double>(done) / snapshot.seconds
                    : 0.0;
  if (!std::isfinite(rate) || rate < 0.0) rate = 0.0;

  char eta[32] = "--";
  if (total > 0 && rate > 0.0) {
    const double eta_s = static_cast<double>(total - done) / rate;
    if (std::isfinite(eta_s)) std::snprintf(eta, sizeof(eta), "%.0f", eta_s);
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu/%zu units %.1f%% | %.2f units/s | ETA %s s | "
                "shards %d done, %d active",
                done, total, pct, rate, eta, snapshot.finished,
                snapshot.active);
  return line;
}

OrchestratorReport run_shards(const OrchestratorConfig& config) {
  require(config.shard_count >= 1, "run_shards: shard_count must be >= 1");
  require(config.workers >= 1, "run_shards: workers must be >= 1");
  require(config.retry_budget >= 0, "run_shards: retry_budget must be >= 0");
  require(static_cast<bool>(config.worker_argv),
          "run_shards: worker_argv is required");

  Shared shared(config.shard_count);
  for (int s = 0; s < config.shard_count; ++s) {
    shared.outcomes[static_cast<std::size_t>(s)].shard = s;
  }

  const std::size_t capacity =
      config.queue_capacity > 0
          ? config.queue_capacity
          : std::max<std::size_t>(2 * static_cast<std::size_t>(config.workers),
                                  2);
  BoundedWorkQueue<Attempt> queue(capacity);

  // Scheduler: sole producer.  Feeds the first round, then releases
  // retries as their backoff expires; closes the queue when every
  // shard is terminal.  Its pushes may block on a full queue — that is
  // the intended backpressure, and safe here because only monitors pop
  // and they never push.
  std::jthread scheduler([&] {
    for (int s = 0; s < config.shard_count; ++s) {
      queue.push(Attempt{s, 0});
    }
    std::unique_lock<std::mutex> lock(shared.mutex);
    for (;;) {
      if (shared.outstanding == 0) break;
      if (shared.delayed.empty()) {
        shared.scheduler_cv.wait(lock);
        continue;
      }
      const auto next =
          std::min_element(shared.delayed.begin(), shared.delayed.end(),
                           [](const DelayedRetry& a, const DelayedRetry& b) {
                             return a.ready < b.ready;
                           });
      if (Clock::now() < next->ready) {
        // By value: wait_until re-reads its deadline after waking, and a
        // monitor's push_back may have reallocated `delayed` meanwhile.
        const Clock::time_point ready = next->ready;
        shared.scheduler_cv.wait_until(lock, ready);
        continue;
      }
      const Attempt item = next->item;
      shared.delayed.erase(next);
      lock.unlock();
      queue.push(item);
      lock.lock();
    }
    queue.close();
  });

  // Monitors: pop a shard, babysit its worker, report the result.
  std::vector<std::jthread> monitors;
  const int monitor_count = std::min(config.workers, config.shard_count);
  monitors.reserve(static_cast<std::size_t>(monitor_count));
  for (int m = 0; m < monitor_count; ++m) {
    monitors.emplace_back([&] {
      Attempt item;
      while (queue.pop(item)) {
        {
          std::lock_guard<std::mutex> lock(shared.mutex);
          shared.outcomes[static_cast<std::size_t>(item.shard)].attempts =
              item.attempt + 1;
        }
        std::string error;
        const bool ok = run_attempt(config, shared, item, error);

        std::lock_guard<std::mutex> lock(shared.mutex);
        ShardOutcome& outcome =
            shared.outcomes[static_cast<std::size_t>(item.shard)];
        if (ok) {
          outcome.succeeded = true;
          --shared.outstanding;
          print_progress(config, shared, /*force=*/true);
        } else {
          outcome.error = error;
          if (config.progress_out != nullptr) {
            std::fprintf(config.progress_out,
                         "[launch] shard %d attempt %d failed: %s\n",
                         item.shard, item.attempt + 1, error.c_str());
          }
          if (item.attempt < config.retry_budget) {
            const double delay = backoff_seconds(config, item.attempt + 1);
            if (config.progress_out != nullptr) {
              std::fprintf(config.progress_out,
                           "[launch] shard %d retry in %.2f s (attempt %d of "
                           "%d)\n",
                           item.shard, delay, item.attempt + 2,
                           config.retry_budget + 1);
            }
            shared.delayed.push_back(DelayedRetry{
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(delay)),
                Attempt{item.shard, item.attempt + 1}});
          } else {
            if (config.progress_out != nullptr) {
              std::fprintf(config.progress_out,
                           "[launch] shard %d failed permanently (retry "
                           "budget %d exhausted)\n",
                           item.shard, config.retry_budget);
            }
            --shared.outstanding;
          }
          if (config.progress_out != nullptr) {
            std::fflush(config.progress_out);
          }
        }
        shared.scheduler_cv.notify_all();
      }
    });
  }

  monitors.clear();   // join monitors (queue close ends their loops)
  scheduler.join();

  OrchestratorReport report;
  report.seconds = shared.timer.seconds();
  report.shards = std::move(shared.outcomes);
  report.succeeded =
      std::all_of(report.shards.begin(), report.shards.end(),
                  [](const ShardOutcome& s) { return s.succeeded; });
  return report;
}

}  // namespace qaoaml::core
