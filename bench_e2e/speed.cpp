#include "speed.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "bench_e2e.hpp"
#include "common/parallel.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Reference speeds: the medians each kernel measured on the reference
// host (4-vCPU Xeon under KVM, AVX-512 tier, gcc 12 -O3, 4 threads) in a
// calm period.  They only fix the unit; any constant would compare runs
// on one host equally well.
constexpr double kReferenceComputeS = 9.5e-3;    ///< one kCompute run
constexpr double kReferenceTriadGBs = 40.0;      ///< kMemory bandwidth
constexpr double kReferenceRoundTripS = 10e-6;   ///< kServe median round trip

// kCompute: 256 complex amplitudes per thread (4 KiB, cache-resident,
// the size of an 8-qubit state), rotated in place sweep after sweep.
constexpr int kAmplitudes = 256;
constexpr int kComputeSweeps = 40000;
// kMemory: triad sweeps per run.
constexpr int kTriadSweeps = 2;
// kServe: round trips per run.
constexpr int kRoundTrips = 1000;
constexpr std::size_t kMessageBytes = 64;

void rotate(int sweeps) {
  alignas(64) double re[kAmplitudes];
  alignas(64) double im[kAmplitudes];
  for (int i = 0; i < kAmplitudes; ++i) {
    re[i] = 1.0 + 1e-3 * i;
    im[i] = 0.5;
  }
  const double c = 0.99995000041666526;  // cos(0.01)
  const double s = 0.0099998333341666645;  // sin(0.01)
  for (int r = 0; r < sweeps; ++r) {
    for (int i = 0; i < kAmplitudes; ++i) {
      const double x = re[i];
      const double y = im[i];
      re[i] = x * c - y * s;
      im[i] = x * s + y * c;
    }
    asm volatile("" : : "r"(re), "r"(im) : "memory");  // every sweep is observable
  }
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool write_full(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// False on end of stream or error.
bool read_full(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0) {
      throw std::system_error(errno, std::generic_category(), "socketpair");
    }
  }
  ~SocketPair() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
};

/// Median round trip of 64-byte messages between this thread and an echo
/// thread over a Unix socket pair: the wire, socket and thread wake-ups
/// that a served request pays twice over.
double round_trip_median() {
  const SocketPair sockets;
  const int* fd = sockets.fd;
  std::vector<double> round_trips;
  round_trips.reserve(kRoundTrips);
  bool sent_all = true;
  {
    const std::jthread echo([fd] {
      char message[kMessageBytes];
      while (read_full(fd[1], message, kMessageBytes) &&
             write_full(fd[1], message, kMessageBytes)) {
      }
    });
    char message[kMessageBytes] = {};
    for (int i = 0; i < kRoundTrips && sent_all; ++i) {
      const auto start = Clock::now();
      sent_all = write_full(fd[0], message, kMessageBytes) &&
                 read_full(fd[0], message, kMessageBytes);
      round_trips.push_back(seconds_since(start));
    }
    ::shutdown(fd[0], SHUT_WR);  // the echo thread sees the end and returns
  }
  if (!sent_all) throw std::runtime_error("host-speed serve kernel: socket I/O failed");
  return median(round_trips);
}

}  // namespace

HostSpeed::HostSpeed(SpeedKernel kernel, std::size_t footprint_bytes)
    : kernel_(kernel), threads_(std::max(qaoaml::default_thread_count(), 1)) {
  switch (kernel_) {
    case SpeedKernel::kCompute:
      reference_s_ = kReferenceComputeS;
      break;
    case SpeedKernel::kMemory: {
      const std::size_t n = std::max<std::size_t>(footprint_bytes / 3 / sizeof(double), 1);
      a_.assign(n, 0.0);
      b_.assign(n, 1.0);
      c_.assign(n, 2.0);
      reference_s_ = bytes_per_run() / (kReferenceTriadGBs * 1e9);
      break;
    }
    case SpeedKernel::kServe:
      reference_s_ = kReferenceRoundTripS;
      break;
  }
}

double HostSpeed::bytes_per_run() const {
  return kTriadSweeps * 3.0 * sizeof(double) * static_cast<double>(a_.size());
}

double HostSpeed::measure() {
  if (kernel_ == SpeedKernel::kServe) return round_trip_median();
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    const std::size_t n = a_.size();
    const auto count = static_cast<std::size_t>(threads_);
    for (std::size_t t = 0; t < count; ++t) {
      if (kernel_ == SpeedKernel::kCompute) {
        threads.emplace_back(rotate, kComputeSweeps);
        continue;
      }
      threads.emplace_back([this, begin = n * t / count, end = n * (t + 1) / count] {
        double* __restrict out = a_.data();
        const double* __restrict x = b_.data();
        const double* __restrict y = c_.data();
        for (int sweep = 0; sweep < kTriadSweeps; ++sweep) {
          for (std::size_t i = begin; i < end; ++i) out[i] = x[i] + 3.0 * y[i];
          asm volatile("" : : "r"(out) : "memory");
        }
      });
    }
  }
  return seconds_since(start);
}

double HostSpeed::scale() {
  const double seconds = measure();
  seconds_.push_back(seconds);
  return reference_s_ / seconds;
}

double HostSpeed::median_seconds() const { return median(seconds_); }

double HostSpeed::median_speed() const {
  const double seconds = median_seconds();
  return seconds > 0.0 ? reference_s_ / seconds : 0.0;
}

}  // namespace e2e
