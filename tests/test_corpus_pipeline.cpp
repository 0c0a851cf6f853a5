// The sharded corpus pipeline's headline guarantees:
//  - the merged corpus is byte-identical across shard counts {1, 2, 8}
//    and thread counts {1, 8}, and identical to a direct
//    ParameterDataset::generate(...).save(...);
//  - a shard killed mid-write (simulated by truncating its data file at
//    arbitrary byte offsets) resumes where it left off and completes to
//    the same bytes;
//  - stale files (different config / shard layout, or the block format
//    of an older build) are regenerated, and merging an incomplete
//    shard set fails loudly.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/corpus_pipeline.hpp"

namespace qaoaml::core {
namespace {

// Small enough that one full generation is milliseconds, big enough
// that 8 shards all own units.
DatasetConfig tiny_config() {
  DatasetConfig config;
  config.num_graphs = 8;
  config.num_nodes = 6;
  config.max_depth = 2;
  config.restarts = 2;
  config.seed = 123;
  return config;
}

std::string unique_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "corpus_pipeline" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void run_all_shards(const DatasetConfig& config, int shards,
                    const std::string& dir) {
  for (int s = 0; s < shards; ++s) {
    CorpusShardConfig shard_config;
    shard_config.dataset = config;
    shard_config.shard = ShardSpec{s, shards};
    shard_config.directory = dir;
    CorpusPipeline::run_shard(shard_config);
  }
}

std::string reference_bytes(const DatasetConfig& config,
                            const std::string& dir) {
  const std::string path = dir + "/reference.txt";
  ParameterDataset::generate(config).save(path);
  return file_bytes(path);
}

TEST(ShardSpecTest, RoundRobinOwnership) {
  const ShardSpec shard{1, 3};
  EXPECT_FALSE(shard.owns(0));
  EXPECT_TRUE(shard.owns(1));
  EXPECT_FALSE(shard.owns(2));
  EXPECT_TRUE(shard.owns(4));

  EXPECT_EQ(shard_units(10, ShardSpec{0, 1}).size(), 10u);
  const auto units = shard_units(10, shard);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], 1u);
  EXPECT_EQ(units[1], 4u);
  EXPECT_EQ(units[2], 7u);
  // More shards than units: high shards own nothing.
  EXPECT_TRUE(shard_units(2, ShardSpec{5, 8}).empty());
}

TEST(RunUnitsInOrderTest, CommitsAscendingAndComplete) {
  std::vector<std::size_t> units{3, 5, 8, 11};
  std::vector<int> ran(12, 0);
  std::vector<std::size_t> committed;
  run_units_in_order(
      units, [&](std::size_t unit, std::size_t) { ran[unit] = 1; },
      [&](std::size_t unit, std::size_t slot) {
        EXPECT_EQ(units[slot], unit);
        committed.push_back(unit);
      });
  EXPECT_EQ(committed, units);  // every unit committed, in list order
  for (const std::size_t unit : units) EXPECT_EQ(ran[unit], 1);
}

TEST(CorpusPipelineTest, MergedBytesIdenticalAcrossShardAndThreadCounts) {
  const DatasetConfig config = tiny_config();
  const std::string base = unique_dir("determinism");
  const std::string reference = reference_bytes(config, base);
  ASSERT_FALSE(reference.empty());

  for (const int shards : {1, 2, 8}) {
    for (const int threads : {1, 8}) {
      ScopedThreadCount scoped(threads);
      const std::string dir = base + "/s" + std::to_string(shards) + "t" +
                              std::to_string(threads);
      run_all_shards(config, shards, dir);
      const std::string out = dir + "/merged.txt";
      const ParameterDataset merged =
          CorpusPipeline::merge_shards(config, shards, dir, out);
      EXPECT_EQ(merged.size(), static_cast<std::size_t>(config.num_graphs));
      EXPECT_EQ(file_bytes(out), reference)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(CorpusPipelineTest, ResumeAfterTruncationCompletesToSameBytes) {
  const DatasetConfig config = tiny_config();
  const std::string base = unique_dir("resume");
  const std::string reference = reference_bytes(config, base);

  // Cut the shard-0 data file at several points — mid-record, mid-line,
  // even inside the header — and check the rerun completes to the same
  // merged bytes every time.
  for (const double cut : {0.15, 0.4, 0.6, 0.9}) {
    const std::string dir =
        base + "/cut" + std::to_string(static_cast<int>(cut * 100));
    run_all_shards(config, 2, dir);

    const std::string shard0 =
        CorpusPipeline::shard_data_path(dir, ShardSpec{0, 2});
    const std::string full = file_bytes(shard0);
    ASSERT_GT(full.size(), 10u);
    std::filesystem::resize_file(
        shard0, static_cast<std::uintmax_t>(cut *
                                            static_cast<double>(full.size())));

    CorpusShardConfig shard_config;
    shard_config.dataset = config;
    shard_config.shard = ShardSpec{0, 2};
    shard_config.directory = dir;
    const ShardReport report = CorpusPipeline::run_shard(shard_config);
    EXPECT_EQ(report.units_resumed + report.units_generated,
              report.units_owned);
    EXPECT_GT(report.units_generated, 0u) << "cut=" << cut;

    const std::string out = dir + "/merged.txt";
    CorpusPipeline::merge_shards(config, 2, dir, out);
    EXPECT_EQ(file_bytes(out), reference) << "cut=" << cut;
  }
}

TEST(CorpusPipelineTest, CompletedShardResumesWithoutRecomputing) {
  const DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("noop_resume");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 2};
  shard_config.directory = dir;

  const ShardReport first = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(first.units_resumed, 0u);
  EXPECT_EQ(first.units_generated, first.units_owned);
  const std::string bytes = file_bytes(first.data_path);

  const ShardReport second = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(second.units_resumed, second.units_owned);
  EXPECT_EQ(second.units_generated, 0u);
  EXPECT_EQ(file_bytes(second.data_path), bytes);
}

TEST(CorpusPipelineTest, LineThatIsNotItsUnitsRecordEndsTheValidPrefix) {
  // Each case rewrites unit 2's line of a complete shard into one the
  // dataset parser reads but that is not unit 2's full record, or that
  // names an implausible node count.  Resume keeps units 0 and 1 and
  // regenerates the rest to the same bytes.
  const DatasetConfig config = tiny_config();
  const ShardSpec shard{0, 1};
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = shard;
  shard_config.directory = unique_dir("reference_shard");
  const std::string full =
      file_bytes(CorpusPipeline::run_shard(shard_config).data_path);
  std::vector<std::string> lines;  // header, config, units 0, 1, 2, ...
  std::istringstream is(full);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u + static_cast<std::size_t>(config.num_graphs));
  const std::string& unit2 = lines[4];
  const std::string& unit3 = lines[5];

  const struct {
    const char* name;
    std::string line;
  } cases[] = {
      {"other_units_record", "unit 2" + unit3.substr(unit3.find(" graph"))},
      {"missing_depth", unit2.substr(0, unit2.rfind(';'))},
      {"huge_node_count",
       "unit 2 graph 2 2000000000 1 0 1 1" + unit2.substr(unit2.find(';'))},
  };
  for (const auto& c : cases) {
    shard_config.directory = unique_dir(c.name);
    std::string bytes;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      bytes += (i == 4 ? c.line : lines[i]) + '\n';
    }
    {
      std::ofstream os(
          CorpusPipeline::shard_data_path(shard_config.directory, shard));
      os << bytes;
    }
    const ShardReport report = CorpusPipeline::run_shard(shard_config);
    EXPECT_EQ(report.units_resumed, 2u) << c.name;
    EXPECT_EQ(report.units_generated, report.units_owned - 2) << c.name;
    EXPECT_EQ(file_bytes(report.data_path), full) << c.name;
  }
}

TEST(CorpusPipelineTest, OldBlockFormatShardIsRegeneratedFromScratch) {
  // A directory left by an older build: a complete shard in the
  // multi-line unit/graph/params/done block format plus its .manifest
  // ledger.  The header no longer matches, so nothing is resumed from
  // it, and the regenerated shard merges to the reference bytes.
  const DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("v1_upgrade");
  const std::string reference = reference_bytes(config, dir);
  const ShardSpec shard{0, 1};
  const std::string config_line =
      "config " + to_string(config) + " shard=0/1";
  std::ostringstream data;
  std::ostringstream manifest;
  data << "qaoaml-corpus-shard-v1\n" << config_line << '\n';
  manifest << "qaoaml-corpus-manifest-v1\n" << config_line << '\n';
  for (const InstanceRecord& record :
       CorpusPipeline::generate_records(config)) {
    data << "unit " << record.id << '\n';
    detail::write_record(data, record);
    data << "done " << record.id << '\n';
    manifest << record.id << '\n';
  }
  const std::string data_path = CorpusPipeline::shard_data_path(dir, shard);
  {
    std::ofstream os(data_path);
    os << data.str();
  }
  {
    std::ofstream os(dir + "/corpus.shard0of1.manifest");
    os << manifest.str();
  }

  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = shard;
  shard_config.directory = dir;
  const ShardReport report = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_generated, report.units_owned);

  const std::string out = dir + "/merged.txt";
  CorpusPipeline::merge_shards(config, 1, dir, out);
  EXPECT_EQ(file_bytes(out), reference);
}

TEST(CorpusPipelineTest, InvalidConfigErrorsBeforeTouchingShardFiles) {
  // A typo'd config (nodes=40 > the exact-MaxCut limit) must error
  // before the prefix rewrite, leaving a completed shard's bytes
  // untouched.
  const DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("no_clobber");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 1};
  shard_config.directory = dir;
  const ShardReport report = CorpusPipeline::run_shard(shard_config);
  const std::string bytes = file_bytes(report.data_path);

  shard_config.dataset.num_nodes = 40;
  EXPECT_THROW(CorpusPipeline::run_shard(shard_config), Error);
  EXPECT_EQ(file_bytes(report.data_path), bytes);
}

TEST(CorpusPipelineTest, StaleConfigIsRegenerated) {
  DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("stale");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 1};
  shard_config.directory = dir;
  CorpusPipeline::run_shard(shard_config);

  shard_config.dataset.seed += 1;  // different corpus, same paths
  const ShardReport report = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_generated, report.units_owned);
}

TEST(CorpusPipelineTest, ConcurrentSameShardInvocationFailsFast) {
  const DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("locked");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 1};
  shard_config.directory = dir;

  // Hold the shard's flock the way a concurrently running invocation
  // would; run_shard must refuse instead of interleaving writes.
  const std::string lock_path =
      CorpusPipeline::shard_data_path(dir, shard_config.shard) + ".lock";
  std::filesystem::create_directories(dir);
  const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);

  EXPECT_THROW(CorpusPipeline::run_shard(shard_config), Error);

  ::flock(fd, LOCK_UN);
  ::close(fd);
  // Released (as the kernel does on process death): the run proceeds.
  const ShardReport report = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(report.units_generated, report.units_owned);
}

TEST(CorpusPipelineTest, MergeRejectsIncompleteShardSet) {
  const DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("incomplete");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 2};
  shard_config.directory = dir;
  CorpusPipeline::run_shard(shard_config);  // shard 1 of 2 never runs

  EXPECT_THROW(CorpusPipeline::merge_shards(config, 2, dir, ""), Error);
}

TEST(CorpusPipelineTest, TornCacheConfigLineRegeneratesInsteadOfCrashing) {
  // A cache killed mid-write of its config line ("xtol=" with no value)
  // must look corrupt to load_or_generate — std::stod's exception must
  // not escape as a crash.
  const std::string dir = unique_dir("torn_cache");
  const std::string path = dir + "/cache.txt";
  {
    std::ofstream os(path);
    os << "qaoaml-dataset-v1\nconfig gen=4 graphs=2 xtol=\n";
  }
  const DatasetConfig config = tiny_config();
  const ParameterDataset dataset =
      ParameterDataset::load_or_generate(config, path);
  EXPECT_EQ(dataset.size(), static_cast<std::size_t>(config.num_graphs));
}

TEST(CorpusPipelineTest, CorruptEdgeCountFailsFastNotForever) {
  // A bit-flipped edge count must hit the malformed-line error after
  // the tokens run out, not loop to the bogus count.
  std::vector<InstanceRecord> records;
  EXPECT_THROW(
      detail::consume_record_line("graph 0 6 999999999999 0 1 1.0", records),
      Error);
  // A corrupt node count must error before allocating a huge Graph.
  EXPECT_THROW(
      detail::consume_record_line("graph 0 2000000000 1 0 1 1.0", records),
      Error);
}

TEST(RunUnitsInOrderTest, ExceptionAbortsNotYetStartedUnits) {
  // With one thread the dispatch is sequential, so after commit(0)
  // throws, no later unit's run() may execute.
  ScopedThreadCount scoped(1);
  std::vector<std::size_t> units{0, 1, 2, 3};
  int runs = 0;
  EXPECT_THROW(
      run_units_in_order(
          units, [&](std::size_t, std::size_t) { ++runs; },
          [&](std::size_t, std::size_t) { throw InvalidArgument("boom"); }),
      Error);
  EXPECT_EQ(runs, 1);
}

TEST(CorpusPipelineTest, ChangedOptimizerOptionsInvalidateShards) {
  DatasetConfig config = tiny_config();
  const std::string dir = unique_dir("options_key");
  CorpusShardConfig shard_config;
  shard_config.dataset = config;
  shard_config.shard = ShardSpec{0, 1};
  shard_config.directory = dir;
  CorpusPipeline::run_shard(shard_config);

  shard_config.dataset.options.gtol = 1e-2;  // different optimizer recipe
  const ShardReport report = CorpusPipeline::run_shard(shard_config);
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_generated, report.units_owned);
}

TEST(CorpusPipelineTest, GenerateRecordsMatchesDatasetGenerate) {
  const DatasetConfig config = tiny_config();
  const ParameterDataset direct = ParameterDataset::generate(config);
  const std::vector<InstanceRecord> records =
      CorpusPipeline::generate_records(config);
  ASSERT_EQ(records.size(), direct.size());
  for (std::size_t g = 0; g < records.size(); ++g) {
    EXPECT_EQ(records[g].id, direct.records()[g].id);
    ASSERT_EQ(records[g].optimal_params.size(),
              direct.records()[g].optimal_params.size());
    EXPECT_EQ(records[g].optimal_params, direct.records()[g].optimal_params);
    EXPECT_EQ(records[g].expectation, direct.records()[g].expectation);
  }
}

}  // namespace
}  // namespace qaoaml::core
