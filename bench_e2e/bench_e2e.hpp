// Shared pieces of the bench_e2e workloads: run options, the report
// every workload fills, the predictor bank recipe and small helpers.
#ifndef QAOAML_BENCH_E2E_BENCH_E2E_HPP
#define QAOAML_BENCH_E2E_BENCH_E2E_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/parameter_dataset.hpp"
#include "core/parameter_predictor.hpp"
#include "speed.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured window
  bool trace = false;
  bool smoke = false;     ///< tiny sizes, for the smoke test
  std::string spans_path;
  std::string out_path;
  std::string tmp_root;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked.  `attempted` / `failed` count the
/// workload's operations; an operation fails when it throws, returns
/// ok == false or fails its correctness check.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check when `ok` is false.
  void check(bool ok, const std::string& what);
};

void run_paper_pipeline(const Options& options, Report& report);
void run_large_state(const Options& options, Report& report);
void run_serve(const Options& options, bool mixed, Report& report);

/// The traced probe: one graph per (optimizer, depth) cell solved by the
/// naive and ML arms rebuilt from public calls, each checked bit for bit
/// against solve_random_init / solve_two_level.  Adds the sim.*, optim.*,
/// ml.predict_us and probe.cover_pct metrics.
void run_probe(const Options& options,
               const qaoaml::core::ParameterPredictor& predictor,
               Report& report);

/// Independent sub-seed for `salt` (SplitMix64 finalizer).
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

double median(std::vector<double> values);

/// Seconds spent in `fn`.
double time_call(const std::function<void()>& fn);

/// Runs `setup` several times (once in a traced run), each followed by a
/// run of `speed`'s kernel, and returns the median reference-speed
/// seconds; the state the last call leaves behind is the one the workload
/// measures.
double median_setup(const Options& options, HostSpeed& speed,
                    const std::function<void()>& setup);

/// Whether operation `index` of the measured window records spans.  A
/// traced run interleaves untraced and traced operations in ABBA order
/// (their rate ratio is trace_overhead_pct) so that drift in host speed,
/// which on shared hosts lasts tens of seconds, falls on both sides alike.
bool traced_op(const Options& options, std::size_t index);

/// Enables span recording for its lifetime.
class TraceScope {
 public:
  explicit TraceScope(bool on);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

/// Per-run scratch directory under --tmp, removed on destruction.
class TempDir {
 public:
  TempDir(const Options& options, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const;

 private:
  std::string path_;
};

/// Corpus settings of the paper's per-graph recipe: ER G(8, 0.5), depths
/// 1..6, best of 20 L-BFGS-B restarts (smaller under --smoke).
qaoaml::core::DatasetConfig corpus_config(const Options& options, int graphs,
                                          std::uint64_t seed);

/// A GPR predictor bank trained on a freshly generated corpus (one fixed
/// recipe and seed), built through the sharded corpus pipeline in
/// `directory` as in production.
struct Bank {
  qaoaml::core::ParameterPredictor predictor;
  double train_s = 0.0;
};
Bank build_bank(const Options& options, const std::string& directory);

/// Bitwise equality, so that -0.0 != 0.0 and NaN payloads count.
bool same_bits(double a, double b);
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 1469598103934665603ULL);

std::string read_file(const std::string& path);

}  // namespace e2e

#endif  // QAOAML_BENCH_E2E_BENCH_E2E_HPP
