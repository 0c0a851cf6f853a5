// Host-speed reference kernels, which the gated timings are scaled by.
//
// On a shared machine the other tenants move this host's speed by 10-40%
// over tens of seconds: the core clock steps, memory bandwidth is shared
// and thread wake-ups slow down.  No statistic taken inside one run can
// remove drift between runs that start minutes apart.  So each workload
// runs a fixed reference kernel of its own kind right after every timed
// operation (or serving slice), and multiplies that operation's wall time
// by the kernel's reference time over its measured time.  Gated times
// therefore read as seconds on a host running at the reference speed.
//
// The kernels call nothing in the library.  A library change moves a
// scaled time exactly as much as it moves wall time, while a change in
// host speed moves the operation and the kernel alike and cancels.  A
// kernel runs between operations, never beside one, so a workload cannot
// slow its own reference.
#ifndef QAOAML_BENCH_E2E_SPEED_HPP
#define QAOAML_BENCH_E2E_SPEED_HPP

#include <cstddef>
#include <vector>

namespace e2e {

enum class SpeedKernel {
  kCompute,  ///< rotations of cache-resident complex arrays, one per thread
  kMemory,   ///< STREAM triad over arrays the size of the workload's state
  kServe,    ///< socket round trips between two threads
};

class HostSpeed {
 public:
  /// `footprint_bytes` (kMemory only) is the size of the three triad
  /// arrays together; the workload passes the memory its operation sweeps.
  explicit HostSpeed(SpeedKernel kernel, std::size_t footprint_bytes = 0);

  /// Runs the kernel once and returns its reference seconds over its
  /// measured seconds: the factor that turns the wall time of the
  /// operation just before into reference-speed time.
  double scale();

  /// Median measured seconds of the kernel runs so far (0 before any).
  double median_seconds() const;
  /// Reference seconds over median_seconds(): above 1 on a faster host.
  double median_speed() const;
  /// kMemory: bytes one run moves (24 per triad element).
  double bytes_per_run() const;

 private:
  double measure();

  SpeedKernel kernel_;
  int threads_ = 1;
  std::vector<double> a_, b_, c_;  ///< kMemory triad arrays
  double reference_s_ = 0.0;
  std::vector<double> seconds_;
};

}  // namespace e2e

#endif  // QAOAML_BENCH_E2E_SPEED_HPP
