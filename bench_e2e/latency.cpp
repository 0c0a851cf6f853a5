#include "latency.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {
namespace {

/// True when at least ten of `n` samples lie above percentile `q`.
bool percentile_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (100.0 - q) >= 1000.0 - 1e-6;
}

}  // namespace

double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}


LatencySummary summarize_latency(std::span<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary out;
  out.n = samples.size();
  out.median = percentile(samples, 50.0);
  out.tail = out.median;
  for (const double q : {99.0, 95.0, 90.0, 75.0}) {
    if (percentile_supported(out.n, q)) {
      out.tail_q = q;
      out.tail = percentile(samples, q);
      break;
    }
  }
  return out;
}

std::string describe(const LatencySummary& summary, const char* unit) {
  char text[160];
  if (summary.tail_q > 0.0) {
    std::snprintf(text, sizeof(text), "n=%zu p50=%.4g %s p%g=%.4g %s",
                  summary.n, summary.median, unit, summary.tail_q,
                  summary.tail, unit);
  } else {
    std::snprintf(text, sizeof(text),
                  "n=%zu p50=%.4g %s (no percentile above p50 has 10 samples "
                  "beyond it)",
                  summary.n, summary.median, unit);
  }
  return text;
}

}  // namespace e2e
