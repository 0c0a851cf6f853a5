// The sharded-unit engine's resume and merge contract, driven through
// a toy codec so it is tested once for every sweep that uses it: the
// lock, the longest-valid-prefix resume (torn lines, out-of-order,
// foreign, out-of-range and trailing-token units, a codec read that
// throws, header and config mismatches), the in-order append, and the
// merge diagnoses.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/sharded_run.hpp"

namespace qaoaml::core {
namespace {

struct ToyRecord {
  double value = 0.0;
  long square = 0;
};

struct ToyCodec {
  using Record = ToyRecord;
  static constexpr const char* kHeader = "qaoaml-toy-shard-v1";
  static constexpr const char* kStem = "toy";

  int version = 1;

  std::string config_line(const ShardSpec& shard) const {
    return "config toy version=" + std::to_string(version) +
           " shard=" + std::to_string(shard.index) + "/" +
           std::to_string(shard.count);
  }
  static void write(std::ostream& os, const ToyRecord& r) {
    os << ' ' << r.value << ' ' << r.square;
  }
  static void read(std::istream& is, std::size_t, ToyRecord& r) {
    is >> r.value >> r.square;
  }
};

/// Reads like ToyCodec but throws on unit `bad`, the way a real parser
/// does on a corrupt line: an Error, or an allocation that a corrupt
/// count made impossible.
struct ThrowingCodec : ToyCodec {
  std::size_t bad = 0;
  int kind = 0;

  void read(std::istream& is, std::size_t unit, ToyRecord& r) const {
    if (unit == bad) {
      if (kind == 0) throw InvalidArgument("corrupt line");
      if (kind == 1) throw std::bad_alloc();
      throw std::length_error("corrupt count");
    }
    ToyCodec::read(is, unit, r);
  }
};

constexpr std::size_t kTotal = 10;

/// A value that needs all 17 digits to round-trip.
ToyRecord compute(std::size_t unit) {
  return ToyRecord{static_cast<double>(unit) + 1.0 / 3.0,
                   static_cast<long>(unit * unit)};
}

std::string unique_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sharded_run" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

ShardRunReport run_shard(const std::string& dir, const ShardSpec& shard,
                         const ToyCodec& codec = {}) {
  ShardedRun<ToyCodec> run(codec, shard, dir, kTotal);
  return run.generate(compute);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

/// Header + config line of shard `shard`, followed by `lines`.
std::string shard_file(const ShardSpec& shard,
                       const std::vector<std::string>& lines) {
  std::string out = std::string(ToyCodec::kHeader) + "\n" +
                    ToyCodec{}.config_line(shard) + "\n";
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// The line the engine writes for `unit`.
std::string unit_line(std::size_t unit) {
  std::ostringstream os;
  os.precision(17);
  os << "unit " << unit;
  ToyCodec::write(os, compute(unit));
  return os.str();
}

void expect_merged(const std::string& dir, int shard_count) {
  const std::vector<ToyRecord> merged =
      merge_sharded_runs(ToyCodec{}, shard_count, dir, kTotal);
  ASSERT_EQ(merged.size(), kTotal);
  for (std::size_t unit = 0; unit < kTotal; ++unit) {
    EXPECT_EQ(merged[unit].value, compute(unit).value) << "unit " << unit;
    EXPECT_EQ(merged[unit].square, compute(unit).square) << "unit " << unit;
  }
}

std::string merge_error(const std::string& dir, int shard_count,
                        const ToyCodec& codec = {}) {
  try {
    merge_sharded_runs(codec, shard_count, dir, kTotal);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(ShardedRun, WritesTheDocumentedFormatAndMergesBitExactly) {
  const std::string dir = unique_dir("format");
  const ShardSpec shard{1, 3};
  const ShardRunReport report = run_shard(dir, shard);
  EXPECT_EQ(report.units_owned, 3u);  // units 1, 4, 7
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_generated, 3u);
  EXPECT_EQ(report.data_path,
            (std::filesystem::path(dir) / "toy.shard1of3.txt").string());
  EXPECT_EQ(read_file(report.data_path),
            shard_file(shard, {unit_line(1), unit_line(4), unit_line(7)}));

  for (const int shards : {1, 2, 3}) {
    const std::string sharded = unique_dir("merge" + std::to_string(shards));
    for (int s = 0; s < shards; ++s) run_shard(sharded, ShardSpec{s, shards});
    expect_merged(sharded, shards);
  }
}

TEST(ShardedRun, ProgressReportsTheResumedPrefixThenEveryCommit) {
  const std::string dir = unique_dir("progress");
  const ShardSpec shard{0, 2};  // units 0, 2, 4, 6, 8
  write_file(sharded_run_path("toy", dir, shard),
             shard_file(shard, {unit_line(0), unit_line(2)}));
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  ShardedRun<ToyCodec> run(ToyCodec{}, shard, dir, kTotal,
                           [&](std::size_t done, std::size_t total) {
                             calls.emplace_back(done, total);
                           });
  EXPECT_EQ(run.pending(), (std::vector<std::size_t>{4, 6, 8}));
  const ShardRunReport report = run.generate(compute);
  EXPECT_EQ(report.units_resumed, 2u);
  EXPECT_EQ(report.units_generated, 3u);
  const std::vector<std::pair<std::size_t, std::size_t>> expected{
      {2, 5}, {3, 5}, {4, 5}, {5, 5}};
  EXPECT_EQ(calls, expected);
}

TEST(ShardedRun, CompleteShardResumesEverythingAndGeneratesNothing) {
  const std::string dir = unique_dir("noop");
  run_shard(dir, ShardSpec{0, 1});
  const std::string before = read_file(sharded_run_path("toy", dir, {0, 1}));
  ShardedRun<ToyCodec> run(ToyCodec{}, ShardSpec{0, 1}, dir, kTotal);
  EXPECT_TRUE(run.pending().empty());
  const ShardRunReport report = run.generate([](std::size_t) -> ToyRecord {
    ADD_FAILURE() << "a complete shard must not compute";
    return {};
  });
  EXPECT_EQ(report.units_resumed, kTotal);
  EXPECT_EQ(report.units_generated, 0u);
  EXPECT_EQ(read_file(report.data_path), before);
}

TEST(ShardedRun, SecondConcurrentInvocationFailsFastOnTheLock) {
  const std::string dir = unique_dir("locked");
  const ShardSpec shard{0, 2};
  write_file(sharded_run_path("toy", dir, shard),
             shard_file(shard, {unit_line(0)}));
  const ShardedRun<ToyCodec> holder(ToyCodec{}, shard, dir, kTotal);
  const std::string before = read_file(sharded_run_path("toy", dir, shard));
  EXPECT_THROW(ShardedRun<ToyCodec>(ToyCodec{}, shard, dir, kTotal),
               InvalidArgument);
  // The refused invocation touched nothing.
  EXPECT_EQ(read_file(sharded_run_path("toy", dir, shard)), before);
  // Another shard of the same run has its own lock.
  EXPECT_NO_THROW(run_shard(dir, ShardSpec{1, 2}));
}

TEST(ShardedRun, TornConfigLineIsRegenerated) {
  const std::string dir = unique_dir("torn_config");
  const ShardSpec shard{0, 1};
  const std::string path = sharded_run_path("toy", dir, shard);
  const std::string config = ToyCodec{}.config_line(shard);
  write_file(path, std::string(ToyCodec::kHeader) + "\n" + config);
  const ShardRunReport report = run_shard(dir, shard);
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_generated, kTotal);
  expect_merged(dir, 1);
}

TEST(ShardedRun, TornFinalUnitIsRegenerated) {
  const std::string dir = unique_dir("torn_unit");
  const ShardSpec shard{0, 1};
  const std::string path = sharded_run_path("toy", dir, shard);
  run_shard(dir, shard);
  const std::string full = read_file(path);
  // Drop the newline, then cut into the last token: both still parse
  // as numbers, so only the missing terminator shows the tear.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{2}}) {
    write_file(path, full.substr(0, full.size() - cut));
    const ShardRunReport report = run_shard(dir, shard);
    EXPECT_EQ(report.units_resumed, kTotal - 1) << "cut=" << cut;
    EXPECT_EQ(report.units_generated, 1u) << "cut=" << cut;
    EXPECT_EQ(read_file(path), full) << "cut=" << cut;
  }
}

TEST(ShardedRun, InvalidUnitLinesEndTheValidPrefix) {
  const ShardSpec shard{0, 2};  // units 0, 2, 4, 6, 8
  const struct {
    const char* name;
    std::string bad;
  } cases[] = {
      {"out_of_order", unit_line(0)},  // repeats an earlier unit
      {"foreign_shard", unit_line(3)},
      {"out_of_range", unit_line(12)},
      {"trailing_token", unit_line(4) + " 7"},
      {"missing_field", "unit 4 4.3333333333333330"},
      {"wrong_tag", "item 4 1 16"},
  };
  for (const auto& c : cases) {
    const std::string dir = unique_dir(c.name);
    write_file(sharded_run_path("toy", dir, shard),
               shard_file(shard, {unit_line(0), unit_line(2), c.bad,
                                  unit_line(6)}));
    // The merge reads the same prefix: no line past the bad one counts.
    const std::string error = merge_error(dir, 2);
    EXPECT_NE(error.find("shard 0/2 incomplete (2 of 5"), std::string::npos)
        << c.name << ": " << error;
    const ShardRunReport report = run_shard(dir, shard);
    EXPECT_EQ(report.units_resumed, 2u) << c.name;
    EXPECT_EQ(report.units_generated, 3u) << c.name;
    run_shard(dir, ShardSpec{1, 2});
    expect_merged(dir, 2);
  }
}

TEST(ShardedRun, ExceptionFromReadEndsTheValidPrefix) {
  const ShardSpec shard{0, 1};
  for (const int kind : {0, 1, 2}) {
    const std::string dir = unique_dir("read_throws" + std::to_string(kind));
    const std::string full = read_file(run_shard(dir, shard).data_path);
    const ThrowingCodec codec{{}, 4, kind};
    ShardedRun<ThrowingCodec> run(codec, shard, dir, kTotal);
    const ShardRunReport report = run.generate(compute);
    EXPECT_EQ(report.units_resumed, 4u) << "kind=" << kind;
    EXPECT_EQ(report.units_generated, kTotal - 4) << "kind=" << kind;
    EXPECT_EQ(read_file(report.data_path), full) << "kind=" << kind;
  }
}

TEST(ShardedRun, HeaderOrConfigMismatchDiscardsTheFile) {
  const ShardSpec shard{0, 1};
  const std::vector<std::string> lines{unit_line(0), unit_line(1)};
  const std::string header_dir = unique_dir("header");
  std::string wrong_header = shard_file(shard, lines);
  wrong_header.replace(0, std::string(ToyCodec::kHeader).size(),
                       "qaoaml-toy-shard-v0");
  write_file(sharded_run_path("toy", header_dir, shard), wrong_header);
  EXPECT_EQ(run_shard(header_dir, shard).units_resumed, 0u);

  const std::string config_dir = unique_dir("config");
  write_file(sharded_run_path("toy", config_dir, shard),
             shard_file(shard, lines));
  EXPECT_EQ(run_shard(config_dir, shard, ToyCodec{2}).units_resumed, 0u);
}

TEST(ShardedRun, MergeNamesIncompleteAndDifferentConfigShards) {
  const std::string dir = unique_dir("merge_errors");
  run_shard(dir, ShardSpec{0, 2});
  const std::string missing = merge_error(dir, 2);
  EXPECT_NE(missing.find("merge_toy_shards: shard 1/2 incomplete (0 of 5"),
            std::string::npos)
      << missing;

  run_shard(dir, ShardSpec{1, 2});
  EXPECT_EQ(merge_error(dir, 2), "");
  const std::string changed = merge_error(dir, 2, ToyCodec{2});
  EXPECT_NE(changed.find("merge_toy_shards: shard 0/2 was generated with a "
                         "different config"),
            std::string::npos)
      << changed;
  // Both config lines are quoted, so the operator sees which flag moved.
  EXPECT_NE(changed.find("\"" + ToyCodec{}.config_line({0, 2}) + "\""),
            std::string::npos)
      << changed;
  EXPECT_NE(changed.find("\"" + ToyCodec{2}.config_line({0, 2}) + "\""),
            std::string::npos)
      << changed;

  // A torn tail is incomplete, not a config change.
  const std::string path = sharded_run_path("toy", dir, {1, 2});
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - 1));
  const std::string torn = merge_error(dir, 2);
  EXPECT_NE(torn.find("shard 1/2 incomplete (4 of 5"), std::string::npos)
      << torn;

  EXPECT_THROW(merge_sharded_runs(ToyCodec{}, 0, dir, kTotal),
               InvalidArgument);
}

TEST(ShardedRun, RejectsMalformedShardSpecs) {
  const std::string dir = unique_dir("bad_spec");
  EXPECT_THROW(run_shard(dir, ShardSpec{2, 2}), InvalidArgument);
  EXPECT_THROW(run_shard(dir, ShardSpec{0, 0}), InvalidArgument);
  EXPECT_THROW(shard_units(kTotal, ShardSpec{-1, 2}), InvalidArgument);
}

}  // namespace
}  // namespace qaoaml::core
