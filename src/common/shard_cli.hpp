// The command-line surface shared by the sharded-sweep tools
// (generate_corpus, run_table1, run_transfer): the shard flags
//
//   --dir PATH  --shards N  --shard K  --merge-only  --no-merge
//   --progress-stream  --out PATH
//
// with their conflict checks and usage block, the loop that runs every
// shard (or just --shard K) under the @qshard progress protocol
// (common/shard_protocol.hpp), and the --out write.  A tool adds its
// own value flags and does its own computing and merging in between.
#ifndef QAOAML_COMMON_SHARD_CLI_HPP
#define QAOAML_COMMON_SHARD_CLI_HPP

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/shard_protocol.hpp"

namespace qaoaml::cli {

/// A value-taking flag and its setter.  The setter returns false on a
/// malformed value (and may throw on a typo'd name).
using ValueFlag = std::pair<const char*, std::function<bool(const char*)>>;

class ShardCli {
 public:
  std::string directory = ".";
  int shards = 1;
  int shard = -1;  ///< -1: run every shard in this process
  bool merge_only = false;
  bool no_merge = false;
  bool progress_stream = false;
  std::string out;  ///< relative to `directory` unless absolute

  /// `tool` prefixes every diagnostic.
  explicit ShardCli(std::string tool) : tool_(std::move(tool)) {}

  /// Prints the "sharding / output" usage block; `out_help` is the
  /// tool's own --out line(s).
  static void print_usage(const char* out_help);

  /// Parses argv: the shard flags here, every other value flag through
  /// `tool_flags`; --help/-h calls `usage` and exits 0.  Returns false,
  /// after saying why on stderr, on an unknown flag, a missing or
  /// malformed value, or conflicting shard flags.  Once parsed,
  /// --progress-stream starts the heartbeat frames, which run for this
  /// object's lifetime — so a tool's set-up (corpus generation, bank
  /// training) never looks like a stall to tools/launch.
  bool parse(int argc, char** argv, std::vector<ValueFlag> tool_flags,
             void (*usage)());

  /// Calls `run_shard(index, progress)` for --shard, or for every shard
  /// in order (nothing under --merge-only).  Each call is framed by the
  /// start and done frames, and `progress` — a ShardProgressFn —
  /// emits the progress frames with the unit rate since the resume.
  /// `run_shard` returns a report with units_generated, units_resumed
  /// and seconds.  Returns true when the caller should merge next;
  /// when this invocation ran one shard of several, says so instead.
  template <typename RunShard>
  bool run_shards(const RunShard& run_shard) const {
    if (!merge_only) {
      const int first = shard >= 0 ? shard : 0;
      const int last = shard >= 0 ? shard + 1 : shards;
      for (int s = first; s < last; ++s) {
        const auto report = run_shard(s, begin_shard(s));
        proto::emit_done(stream(), report.units_generated,
                         report.units_resumed, report.seconds);
      }
    }
    return merge_follows();
  }

  /// --out under --dir (an absolute --out stays as it is).
  std::string out_path() const;

  /// Writes out_path() through `write`, flush-checked, and prints
  /// where; a no-op without --out.
  void write_out(const std::function<void(std::ostream&)>& write) const;

 private:
  std::FILE* stream() const { return progress_stream ? stdout : nullptr; }
  std::function<void(std::size_t, std::size_t)> begin_shard(int index) const;
  bool merge_follows() const;

  std::string tool_;
  std::unique_ptr<proto::HeartbeatEmitter> heartbeat_;
};

}  // namespace qaoaml::cli

#endif  // QAOAML_COMMON_SHARD_CLI_HPP
