#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"

namespace qaoaml {
namespace {

std::atomic<int> thread_override{0};

thread_local bool tls_in_parallel_region = false;

/// Persistent worker pool.  Workers sleep on a condition variable
/// between jobs; one job (a dynamically dispatched index range) runs at
/// a time, with the submitting thread participating in the work.  The
/// pool grows on demand up to the largest thread count ever requested,
/// so QAOAML_THREADS / ScopedThreadCount values above the hardware
/// concurrency still exercise real threads.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(std::size_t count, int threads,
           const std::function<void(std::size_t)>& body) {
    const std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers_locked(threads - 1);
      body_ = &body;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      open_slots_ = threads - 1;
      running_ = 0;
      error_ = nullptr;
      ++job_id_;
    }
    work_available_.notify_all();

    // The submitting thread is one of the workers.
    tls_in_parallel_region = true;
    drain();
    tls_in_parallel_region = false;

    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [this] { return running_ == 0; });
    body_ = nullptr;
    const std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_available_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ensure_workers_locked(int wanted) {
    // Bounded so a wild QAOAML_THREADS cannot fork-bomb the process.
    constexpr int kMaxWorkers = 256;
    wanted = std::min(wanted, kMaxWorkers);
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Pulls indices until the job is exhausted.
  void drain() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      try {
        (*body_)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  void worker_loop() {
    tls_in_parallel_region = true;
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t seen = 0;
    for (;;) {
      work_available_.wait(
          lock, [&] { return shutdown_ || job_id_ != seen; });
      if (shutdown_) return;
      seen = job_id_;
      // Participate only while the job wants more workers and still has
      // unclaimed indices (late wake-ups skip straight back to sleep).
      if (open_slots_ <= 0 ||
          next_.load(std::memory_order_relaxed) >= count_) {
        continue;
      }
      --open_slots_;
      ++running_;
      lock.unlock();
      drain();
      lock.lock();
      if (--running_ == 0) job_done_.notify_all();
    }
  }

  std::mutex run_mutex_;  ///< serializes whole jobs

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;

  // Current job (guarded by mutex_ except for the atomic cursor).
  std::uint64_t job_id_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  int open_slots_ = 0;  ///< worker-participation slots left for this job
  int running_ = 0;     ///< workers currently inside drain()
  std::exception_ptr error_;
};

}  // namespace

int default_thread_count() {
  const int override_value = thread_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  // hardware_concurrency() can cost microseconds (glibc reads /sys), and
  // batch paths ask on every call; the CPU count does not change, so it
  // is read once.  QAOAML_THREADS is still read on every call.
  static const int hw =
      std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
  const int from_env = env_int("QAOAML_THREADS", hw);
  return from_env > 0 ? from_env : 1;
}

bool in_parallel_region() { return tls_in_parallel_region; }

ScopedThreadCount::ScopedThreadCount(int threads) : previous_(0) {
  require(threads >= 1, "ScopedThreadCount: need at least one thread");
  previous_ = thread_override.exchange(threads, std::memory_order_relaxed);
}

ScopedThreadCount::~ScopedThreadCount() {
  thread_override.store(previous_, std::memory_order_relaxed);
}

namespace detail {

void run_on_pool(std::size_t count,
                 const std::function<void(std::size_t)>& body, int threads) {
  ThreadPool::instance().run(count, threads, body);
}

}  // namespace detail

}  // namespace qaoaml
