// Host fingerprint and peak memory.
//
// Timings only compare within one fingerprint: every result file
// carries it so that a run on another CPU, cache size, SIMD tier,
// compiler or thread count is recognisable as such.
#ifndef QAOAML_BENCH_E2E_HOST_HPP
#define QAOAML_BENCH_E2E_HOST_HPP

#include <cstddef>
#include <string>

namespace e2e {

struct HostFingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::size_t l2_bytes = 0;   ///< per-core L2 of cpu0
  std::size_t llc_bytes = 0;  ///< summed last-level caches of the machine
  std::string simd_tier;      ///< quantum::active_simd_tier()
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  int threads = 0;            ///< qaoaml::default_thread_count()
};

HostFingerprint host_fingerprint();

/// The fingerprint as a JSON object.
std::string to_json(const HostFingerprint& host);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

}  // namespace e2e

#endif  // QAOAML_BENCH_E2E_HOST_HPP
