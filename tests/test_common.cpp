// Tests for the common substrate: RNG, env knobs, strict CLI parsing,
// crash-safe file primitives, table printer, parallel_for.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace qaoaml {
namespace {

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproachesHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(0), InvalidArgument);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScalesWithMeanAndStddev) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), InvalidArgument);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliValidatesProbability) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(-0.1), InvalidArgument);
  EXPECT_THROW(rng.bernoulli(1.1), InvalidArgument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 4);
}

TEST(Env, IntFallsBackWhenUnset) {
  ::unsetenv("QAOAML_TEST_UNSET");
  EXPECT_EQ(env_int("QAOAML_TEST_UNSET", 42), 42);
}

TEST(Env, IntParsesValue) {
  ::setenv("QAOAML_TEST_INT", "17", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 0), 17);
  ::unsetenv("QAOAML_TEST_INT");
}

TEST(Env, IntFallsBackOnGarbage) {
  ::setenv("QAOAML_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 5), 5);
  ::unsetenv("QAOAML_TEST_INT");
}

TEST(Env, DoubleParsesValue) {
  ::setenv("QAOAML_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("QAOAML_TEST_DBL", 0.0), 2.5);
  ::unsetenv("QAOAML_TEST_DBL");
}

TEST(Env, StringFallsBackAndParses) {
  ::unsetenv("QAOAML_TEST_STR");
  EXPECT_EQ(env_string("QAOAML_TEST_STR", "dflt"), "dflt");
  ::setenv("QAOAML_TEST_STR", "value", 1);
  EXPECT_EQ(env_string("QAOAML_TEST_STR", "dflt"), "value");
  ::unsetenv("QAOAML_TEST_STR");
}

TEST(Cli, ToIntParsesPlainDecimals) {
  int value = 0;
  EXPECT_TRUE(cli::to_int("17", value));
  EXPECT_EQ(value, 17);
  EXPECT_TRUE(cli::to_int("-5", value));
  EXPECT_EQ(value, -5);
  EXPECT_TRUE(cli::to_int("0", value));
  EXPECT_EQ(value, 0);
}

TEST(Cli, ToIntRejectsLooseSpellingsStrtolWouldAccept) {
  // strtol quietly skips leading whitespace and accepts '+'; the CLI
  // grammar must not.
  int value = 0;
  EXPECT_FALSE(cli::to_int(" 5", value));
  EXPECT_FALSE(cli::to_int("\t5", value));
  EXPECT_FALSE(cli::to_int("+5", value));
  EXPECT_FALSE(cli::to_int(" -5", value));
}

TEST(Cli, ToIntRejectsGarbageOverflowAndTrailingBytes) {
  int value = 0;
  EXPECT_FALSE(cli::to_int("", value));
  EXPECT_FALSE(cli::to_int("two", value));
  EXPECT_FALSE(cli::to_int("12x", value));
  EXPECT_FALSE(cli::to_int("0x2a", value));
  EXPECT_FALSE(cli::to_int("12 ", value));
  EXPECT_FALSE(cli::to_int("99999999999", value));  // > INT_MAX
}

TEST(Cli, ToU64RejectsEverySignedSpelling) {
  // " -5" through strtoull wraps to 18446744073709551611 — the exact
  // bug class these parsers exist to stop.
  std::uint64_t value = 0;
  EXPECT_FALSE(cli::to_u64("-5", value));
  EXPECT_FALSE(cli::to_u64(" -5", value));
  EXPECT_FALSE(cli::to_u64("+5", value));
  EXPECT_FALSE(cli::to_u64(" 5", value));
}

TEST(Cli, ToU64CoversTheFullRange) {
  std::uint64_t value = 0;
  EXPECT_TRUE(cli::to_u64("18446744073709551615", value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_FALSE(cli::to_u64("18446744073709551616", value));  // overflow
}

TEST(Cli, ToDoubleIsStrictAtBothEnds) {
  double value = 0.0;
  EXPECT_TRUE(cli::to_double("2.5", value));
  EXPECT_DOUBLE_EQ(value, 2.5);
  EXPECT_TRUE(cli::to_double("-0.25", value));
  EXPECT_TRUE(cli::to_double(".5", value));
  EXPECT_TRUE(cli::to_double("1e-3", value));
  EXPECT_FALSE(cli::to_double(" 2.5", value));
  EXPECT_FALSE(cli::to_double("+2.5", value));
  EXPECT_FALSE(cli::to_double("2.5x", value));
  EXPECT_FALSE(cli::to_double("", value));
}

TEST(Cli, ToDoubleRejectsNonNumericSpellings) {
  // strtod accepts "inf"/"nan"; no knob in this repo wants either.
  double value = 0.0;
  EXPECT_FALSE(cli::to_double("inf", value));
  EXPECT_FALSE(cli::to_double("nan", value));
  EXPECT_FALSE(cli::to_double("1e999", value));  // overflow
}

TEST(Checkpoint, ReplaceFileAtomicRoundTripsBinaryContent) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "checkpoint_binary";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "data.txt").string();
  // CRLF and NUL bytes must survive exactly: a text-mode write would
  // mangle them and break the merge's bit-identical guarantee.
  const std::string content("line1\r\nline2\0line3\n", 19);
  replace_file_atomic(path, content);
  std::ifstream in(path, std::ios::binary);
  std::string read_back((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(read_back, content);
  // A second identical call is a no-op and must not corrupt anything.
  replace_file_atomic(path, content);
  std::ifstream again(path, std::ios::binary);
  read_back.assign((std::istreambuf_iterator<char>(again)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(read_back, content);
}

TEST(Checkpoint, ReplaceFileAtomicCleansUpWhenRenameFails) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "checkpoint_rename";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // rename(2) onto a non-empty directory fails — the temp file must not
  // be left behind (the original bug leaked one per failed rewrite).
  const std::filesystem::path target = dir / "occupied";
  std::filesystem::create_directories(target / "child");
  // The original failure (here EISDIR) propagates as-is.
  EXPECT_THROW(replace_file_atomic(target.string(), "payload"),
               std::exception);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path(), target) << "leaked temp file: " << entry.path();
  }
  EXPECT_EQ(entries, 1u);
}

TEST(Checkpoint, FileLockExcludesARealSecondProcess) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "checkpoint_lock";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "shard.lock").string();
  EXPECT_FALSE(is_locked(path));
  {
    FileLock lock(path);
    EXPECT_TRUE(is_locked(path));
    // A genuinely separate process must fail to take the lock while we
    // hold it — flock(1) -n exits nonzero on contention.
    Subprocess probe = Subprocess::spawn(
        {"/usr/bin/flock", "-n", path, "/bin/true"});
    EXPECT_FALSE(probe.wait().success());
  }
  EXPECT_FALSE(is_locked(path));
  Subprocess probe = Subprocess::spawn(
      {"/usr/bin/flock", "-n", path, "/bin/true"});
  EXPECT_TRUE(probe.wait().success());
}

TEST(Checkpoint, FileLockFailsFastWhenAnotherProcessHoldsIt) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "checkpoint_lock2";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "shard.lock").string();
  // The child takes the flock on its own fd 9, announces it, then
  // holds it until killed — exactly a concurrent duplicate shard
  // invocation.  The shell execs the sleep, so the killed process is
  // the lock's ONLY holder (a forked command would inherit fd 9 until
  // its own redirection applied, and could keep the lock alive past
  // the kill).
  Subprocess holder = Subprocess::spawn(
      {"/bin/sh", "-c",
       "exec 9>\"$0\" && /usr/bin/flock -n 9 && echo held && exec sleep 30",
       path});
  std::string line;
  ASSERT_EQ(holder.read_line(line, 10000), Subprocess::ReadResult::kLine);
  ASSERT_EQ(line, "held");
  EXPECT_TRUE(is_locked(path));
  EXPECT_THROW(FileLock second(path), InvalidArgument);
  // SIGKILL on the holder releases the flock in the kernel — the
  // crash-resume property the pipelines rely on.
  holder.kill();
  holder.wait();
  EXPECT_FALSE(is_locked(path));
  EXPECT_NO_THROW(FileLock reclaimed(path));
}

TEST(Env, IntFallsBackOnOutOfRangeAndLooseSpellings) {
  ::setenv("QAOAML_TEST_INT", "99999999999", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 5), 5);
  ::setenv("QAOAML_TEST_INT", " 7", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 5), 5);
  ::setenv("QAOAML_TEST_INT", "+7", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 5), 5);
  ::setenv("QAOAML_TEST_INT", "7 ", 1);
  EXPECT_EQ(env_int("QAOAML_TEST_INT", 5), 5);
  ::unsetenv("QAOAML_TEST_INT");
}

TEST(Env, DoubleFallsBackOnGarbage) {
  ::setenv("QAOAML_TEST_DBL", "fast", 1);
  EXPECT_DOUBLE_EQ(env_double("QAOAML_TEST_DBL", 1.5), 1.5);
  ::setenv("QAOAML_TEST_DBL", "inf", 1);
  EXPECT_DOUBLE_EQ(env_double("QAOAML_TEST_DBL", 1.5), 1.5);
  ::unsetenv("QAOAML_TEST_DBL");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"b", Table::num(12LL)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsAtypicalRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(Table({}), InvalidArgument);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1234LL), "1234");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  // compound assignment on volatile is deprecated in C++20
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds());  // ms value >= s value
}

TEST(Parallel, ComputesEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; }, 4);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, WorksSingleThreaded) {
  std::vector<int> hits(10, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; }, 1);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(8, [](std::size_t i) {
        if (i == 3) throw InvalidArgument("boom");
      }, 4),
      InvalidArgument);
}

TEST(Parallel, HandlesEmptyRange) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; }, 4);
}

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "fine"));
  try {
    require(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsBase) {
  try {
    throw NumericalError("nan");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "nan");
  }
}

}  // namespace
}  // namespace qaoaml
