// Data-parallel helpers backed by a persistent thread pool.
//
// Two layers of parallelism coexist in the library:
//  - instance-level: experiment sweeps, dataset generation and batch
//    evaluation fan out across problem instances (parallel_for);
//  - amplitude-level: the statevector kernels split their 2^n-element
//    loops into fixed-size blocks (parallel_for_range, parallel_reduce).
// Nested calls never oversubscribe: a body running on a pool worker
// executes nested parallel_* calls inline and serially.
//
// Determinism: callers seed per-index RNGs from (seed, index), so
// element-wise results do not depend on thread scheduling.  Reductions
// accumulate fixed-size block partials in block order, so their result
// is bit-identical for every thread count (1 vs N) as well.
#ifndef QAOAML_COMMON_PARALLEL_HPP
#define QAOAML_COMMON_PARALLEL_HPP

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace qaoaml {

/// Number of worker threads to use: the ScopedThreadCount override when
/// active, else QAOAML_THREADS when set, else the hardware concurrency
/// (always at least 1).
int default_thread_count();

/// True while the calling thread is executing a parallel_* body on a
/// pool worker; nested parallel_* calls then run inline and serially.
bool in_parallel_region();

/// RAII override of default_thread_count() for the enclosing scope.
/// Takes precedence over QAOAML_THREADS; intended for tests and
/// benchmarks that compare thread counts within one process.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(int threads);
  ~ScopedThreadCount();
  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  int previous_;
};

/// Amplitude-loop block size: ranges are split into fixed blocks of this
/// many elements regardless of thread count, which is what makes the
/// blocked reductions bit-deterministic.  Exposed as a log2 so kernels
/// that tile power-of-two state vectors (e.g. the fused QAOA layer) can
/// statically guarantee their tiles divide a grain block evenly.
inline constexpr int kParallelGrainLog2 = 14;
inline constexpr std::size_t kParallelGrain = std::size_t{1} << kParallelGrainLog2;

namespace detail {
/// Runs body(i) for every i in [0, count) on the persistent pool with
/// `threads` workers, the calling thread among them (2 <= threads <=
/// count, not inside a parallel region).
void run_on_pool(std::size_t count,
                 const std::function<void(std::size_t)>& body, int threads);
}  // namespace detail

/// Runs body(i) for every i in [0, count) across `threads` workers.
/// Indices are dispatched dynamically; bodies writing disjoint state
/// need no synchronization.  Exceptions thrown by the body are rethrown
/// (the first one observed) after all workers finish.  A single index,
/// a single thread or a nested call runs inline, before the body is
/// type-erased; the pool path erases a reference to it, so no call
/// allocates.
template <typename Body>
void parallel_for(std::size_t count, Body&& body,
                  int threads = default_thread_count()) {
  if (count == 0) return;
  if (threads <= 1 || count == 1 || in_parallel_region()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  detail::run_on_pool(count, std::ref(body),
                      static_cast<int>(std::min<std::size_t>(
                          static_cast<std::size_t>(threads), count)));
}

/// Splits [0, count) into `chunks` contiguous ranges (clamped to
/// [1, count]; the first count % chunks ranges carry one extra entry)
/// and runs body(begin, end) for each in parallel.  A caller that keeps
/// per-chunk state — one workspace per chunk — makes O(chunks) of it
/// instead of O(count).  One chunk runs inline on the calling thread.
template <typename Body>
void parallel_for_chunks(std::size_t count, std::size_t chunks, Body&& body) {
  if (count == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, count);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, extra);
    body(begin, begin + base + (c < extra ? 1 : 0));
  });
}

/// Runs body(begin, end) over a blocked partition of [0, count): blocks
/// are kParallelGrain elements (the last one ragged).  Small ranges that
/// fit in one block run inline on the calling thread.
template <typename Body>
void parallel_for_range(std::size_t count, Body&& body,
                        int threads = default_thread_count()) {
  if (count == 0) return;
  const std::size_t blocks = (count + kParallelGrain - 1) / kParallelGrain;
  if (threads <= 1 || blocks <= 1 || in_parallel_region()) {
    body(std::size_t{0}, count);
    return;
  }
  parallel_for(
      blocks,
      [&](std::size_t b) {
        const std::size_t begin = b * kParallelGrain;
        body(begin, std::min(count, begin + kParallelGrain));
      },
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(threads), blocks)));
}

/// Blocked reduction: sums block_sum(begin, end) over the same fixed
/// partition parallel_for_range uses, accumulating partials in block
/// order.  The result is bit-identical for every thread count.
template <typename T, typename BlockFn>
T parallel_reduce(std::size_t count, T init, BlockFn&& block_sum,
                  int threads = default_thread_count()) {
  if (count == 0) return init;
  const std::size_t blocks = (count + kParallelGrain - 1) / kParallelGrain;
  if (blocks <= 1) return static_cast<T>(init + block_sum(std::size_t{0}, count));
  std::vector<T> partial(blocks);
  parallel_for(
      blocks,
      [&](std::size_t b) {
        const std::size_t begin = b * kParallelGrain;
        partial[b] = block_sum(begin, std::min(count, begin + kParallelGrain));
      },
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(std::max(threads, 1)), blocks)));
  T acc = init;
  for (const T& p : partial) acc += p;
  return acc;
}

}  // namespace qaoaml

#endif  // QAOAML_COMMON_PARALLEL_HPP
