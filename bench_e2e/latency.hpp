// Latency summary shared by every bench_e2e workload.
//
// A timing is reported as its median plus the highest percentile that
// has at least ten samples beyond it, with the sample count: a p99 from
// 200 samples rests on two observations and is not reported.
#ifndef QAOAML_BENCH_E2E_LATENCY_HPP
#define QAOAML_BENCH_E2E_LATENCY_HPP

#include <cstddef>
#include <span>
#include <string>

namespace e2e {

/// Linear-interpolated percentile `q` (0..100) of ascending `sorted`.
double percentile(std::span<const double> sorted, double q);

struct LatencySummary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;   ///< highest supported of 99/95/90/75; 0 = none
  double tail = 0.0;     ///< value at tail_q; the median when none is
};

/// Sorts `samples` in place and summarizes them.
LatencySummary summarize_latency(std::span<double> samples);

/// "n=4012 p50=0.211 ms p99=1.904 ms" (the tail omitted when unsupported).
std::string describe(const LatencySummary& summary, const char* unit);

}  // namespace e2e

#endif  // QAOAML_BENCH_E2E_LATENCY_HPP
