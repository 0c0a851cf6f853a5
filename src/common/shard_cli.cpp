#include "common/shard_cli.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"

namespace qaoaml::cli {

void ShardCli::print_usage(const char* out_help) {
  std::printf(
      "sharding / output:\n"
      "  --dir PATH       shard-file directory (default .)\n"
      "  --shards N       total shard count (default 1)\n"
      "  --shard K        run only shard K (default: all, sequentially)\n"
      "  --merge-only     merge existing complete shards and exit\n"
      "  --no-merge       run shards without merging (multi-process runs)\n"
      "%s"
      "  --progress-stream  emit the @qshard line protocol on stdout for\n"
      "                   tools/launch (progress, heartbeats)\n"
      "\n"
      "QAOAML_THREADS controls worker threads; a killed run resumes from\n"
      "the last committed unit when re-invoked with the same arguments.\n",
      out_help);
}

bool ShardCli::parse(int argc, char** argv, std::vector<ValueFlag> tool_flags,
                     void (*usage)()) {
  tool_flags.emplace_back("--dir", [this](const char* v) {
    directory = v;
    return true;
  });
  tool_flags.emplace_back("--shards",
                          [this](const char* v) { return to_int(v, shards); });
  tool_flags.emplace_back("--shard",
                          [this](const char* v) { return to_int(v, shard); });
  tool_flags.emplace_back("--out", [this](const char* v) {
    out = v;
    return true;
  });

  const char* tool = tool_.c_str();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--merge-only") {
      merge_only = true;
    } else if (arg == "--no-merge") {
      no_merge = true;
    } else if (arg == "--progress-stream") {
      progress_stream = true;
    } else {
      const auto entry = std::find_if(
          tool_flags.begin(), tool_flags.end(),
          [&](const ValueFlag& flag) { return arg == flag.first; });
      if (entry == tool_flags.end()) {
        std::fprintf(stderr, "%s: unknown option %s\n", tool, arg.c_str());
        return false;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", tool, arg.c_str());
        return false;
      }
      if (!entry->second(argv[++i])) {
        std::fprintf(stderr, "%s: invalid value '%s' for %s\n", tool, argv[i],
                     arg.c_str());
        return false;
      }
    }
  }

  const char* conflict = nullptr;
  if (merge_only && no_merge) {
    conflict = "--merge-only and --no-merge conflict";
  } else if (merge_only && shard != -1) {
    conflict = "--merge-only merges every shard; --shard conflicts with it";
  } else if (shards < 1) {
    conflict = "--shards must be >= 1";
  } else if (shard != -1 && (shard < 0 || shard >= shards)) {
    conflict = "--shard must be in [0, --shards)";
  }
  if (conflict != nullptr) {
    std::fprintf(stderr, "%s: %s\n", tool, conflict);
    return false;
  }
  heartbeat_ = std::make_unique<proto::HeartbeatEmitter>(
      stream(), env_double("QAOAML_HEARTBEAT_S", 1.0));
  return true;
}

std::function<void(std::size_t, std::size_t)> ShardCli::begin_shard(
    int index) const {
  std::FILE* out_stream = stream();
  proto::emit_start(out_stream, index, 0);
  // The rate counts only units this run committed, not the resumed
  // prefix reported by the first call.
  return [out_stream, timer = Timer(), base = SIZE_MAX](
             std::size_t done, std::size_t total) mutable {
    if (base == SIZE_MAX) base = done;
    const double elapsed = timer.seconds();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done - base) / elapsed : 0.0;
    proto::emit_progress(out_stream, done, total, rate);
  };
}

bool ShardCli::merge_follows() const {
  if (shard >= 0 && shards > 1) {
    // One shard of several leaves the merge to whoever sees every shard
    // complete.  Say so — an operator who passed --out would otherwise
    // wait for a file that was never going to be written; scripted runs
    // pass --no-merge and want quiet output.
    if (!no_merge) {
      std::printf(
          "merge skipped (ran only shard %d of %d); run --merge-only "
          "once every shard is complete\n",
          shard, shards);
    }
    return false;
  }
  return !no_merge;
}

std::string ShardCli::out_path() const {
  return (std::filesystem::path(directory) / out).string();
}

void ShardCli::write_out(
    const std::function<void(std::ostream&)>& write) const {
  if (out.empty()) return;
  const std::string path = out_path();
  std::ofstream os(path);
  require(os.good(), tool_ + ": cannot open " + path);
  write(os);
  os.flush();  // surface buffered write failures here, not in ~ofstream
  require(os.good(), tool_ + ": write failed: " + path);
  std::printf("report -> %s\n", path.c_str());
}

}  // namespace qaoaml::cli
