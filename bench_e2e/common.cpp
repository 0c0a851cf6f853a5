#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "bench_e2e.hpp"
#include "core/corpus_pipeline.hpp"
#include "trace.hpp"

namespace e2e {

using namespace qaoaml;

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failed_checks.push_back(what);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double time_call(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double median_setup(const Options& options, HostSpeed& speed,
                    const std::function<void()>& setup) {
  // The median of three set-ups keeps one slow file-system or allocator
  // hiccup from moving setup_s; a traced run needs the state, not the time.
  const int repeats = options.trace ? 1 : 3;
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const double wall = time_call(setup);
    seconds.push_back(wall * speed.scale());
  }
  return median(seconds);
}

bool traced_op(const Options& options, std::size_t index) {
  // ABBA order (untraced, traced, traced, untraced, ...): besides linear
  // drift it cancels any effect of coming first or second in a pair.
  return options.trace && (index % 2 == 1) != ((index / 2) % 2 == 1);
}

TraceScope::TraceScope(bool on) { trace::set_enabled(on); }

TraceScope::~TraceScope() { trace::set_enabled(false); }

TempDir::TempDir(const Options& options, const std::string& tag)
    : path_((std::filesystem::path(options.tmp_root) /
             ("bench_e2e-" + tag + "-" + std::to_string(::getpid())))
                .string()) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string TempDir::file(const std::string& name) const {
  return (std::filesystem::path(path_) / name).string();
}

core::DatasetConfig corpus_config(const Options& options, int graphs,
                                  std::uint64_t seed) {
  core::DatasetConfig config;
  config.num_graphs = graphs;
  config.num_nodes = 8;
  config.max_depth = options.smoke ? 5 : 6;
  config.restarts = options.smoke ? 2 : 20;
  config.optimizer = optim::OptimizerKind::kLbfgsb;
  config.seed = seed;
  return config;
}

Bank build_bank(const Options& options, const std::string& directory) {
  // The bank is the model under test, not a workload input: it is the
  // same for every --seed, so that the seed moves only the graphs,
  // requests and angles.  (Solve and Table-I costs depend on how good the
  // bank's predictions are; a per-seed bank would add that to every
  // spread.)
  constexpr std::uint64_t kBankSeed = 0xBA4C;
  core::CorpusShardConfig shard;
  shard.dataset = corpus_config(options, options.smoke ? 4 : 16, kBankSeed);
  shard.directory = directory;
  core::CorpusPipeline::run_shard(shard);
  const std::string corpus_path = directory + "/bank_corpus.txt";
  core::CorpusPipeline::merge_shards(shard.dataset, 1, directory, corpus_path);

  const core::ParameterDataset corpus = core::ParameterDataset::load(corpus_path);
  std::vector<std::size_t> all(corpus.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Bank bank;
  bank.train_s = time_call([&] { bank.predictor.train(corpus, all); });
  return bank;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace e2e
