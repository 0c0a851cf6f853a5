// The sharded-unit engine behind every crash-resumable sweep: the
// training corpus (core/corpus_pipeline.hpp), the Table-I experiment
// (core/experiment.hpp) and the transfer matrix
// (core/transfer_experiment.hpp).
//
// A sweep is a flat space of `total` work units whose results are pure
// functions of (config, unit).  A ShardSpec splits that space
// round-robin across processes; each shard streams one text line per
// unit to `<dir>/<stem>.shard<i>of<n>.txt`:
//
//   <header>                 e.g. qaoaml-table1-shard-v1
//   config ... shard=i/n     full-line match required on resume/merge
//   unit <u> <fields...>     one line per unit, ascending
//
// The engine owns the whole file contract: a flock sidecar makes a
// concurrent duplicate invocation fail fast; a resume keeps the
// longest valid prefix (complete lines only — see getline_complete —
// of owned, in-range, strictly ascending units with no trailing
// tokens), rewrites the file down to it atomically and appends the
// rest in unit order, flushing and failing fast per unit; a merge
// stitches complete shards together and tells "incomplete" apart from
// "generated with a different config".  Doubles print with 17
// significant digits, so results round-trip bit for bit.
//
// A sweep plugs in through a small codec:
//
//   struct MyCodec {
//     using Record = ...;                        // one unit's result
//     static constexpr const char* kHeader = "...";
//     static constexpr const char* kStem = "...";  // file stem; also
//                                                  // names the errors
//     std::string config_line(const ShardSpec&) const;
//     static void write(std::ostream&, const Record&);  // " f1 f2 ..."
//     void read(std::istream&, std::size_t unit, Record&) const;
//   };
//
// read() parses what write() wrote for `unit`; a failed stream or any
// exception it throws ends the valid prefix at that line.  There is no
// second ledger file: a unit counts as committed once its line is
// complete on disk.
#ifndef QAOAML_CORE_SHARDED_RUN_HPP
#define QAOAML_CORE_SHARDED_RUN_HPP

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"

namespace qaoaml::core {

/// One slice of a work-unit space split round-robin across `count`
/// shards: shard `index` owns every unit with unit % count == index.
struct ShardSpec {
  int index = 0;
  int count = 1;

  /// True when this shard owns `unit`.  A malformed spec (count < 1 or
  /// index outside [0, count)) owns nothing — no division by zero.
  bool owns(std::size_t unit) const {
    return count >= 1 && index >= 0 && index < count &&
           static_cast<int>(unit % static_cast<std::size_t>(count)) == index;
  }
};

/// Ascending list of the units in [0, total) that `shard` owns.
std::vector<std::size_t> shard_units(std::size_t total, const ShardSpec& shard);

/// Progress hook shared by every shard pipeline: invoked with (units
/// committed so far, units owned) — once right after the resume prefix
/// is validated, then after every commit.  Calls are serialized (they
/// ride the in-order commit path) but arrive on worker threads, so the
/// callback must be cheap and must not re-enter the pipeline.  tools
/// wire this to the line-framed stdout protocol
/// (common/shard_protocol.hpp) that tools/launch parses for
/// %-complete / rate / ETA and stall detection.
using ShardProgressFn =
    std::function<void(std::size_t done, std::size_t total)>;

/// One unit's work as the pool schedules it: `count` tasks, run(task)
/// for every task in [0, count) — concurrently and in any order — then
/// finish() once, which reduces the task results (in task order, so the
/// result cannot depend on scheduling) into the unit's result.  The
/// unit's state lives in the closures, typically one shared_ptr that
/// both capture; it is freed when finish returns.
template <typename Result>
struct UnitTasks {
  std::size_t count = 1;
  std::function<void(std::size_t task)> run;
  std::function<Result()> finish;  ///< may be empty when Result is void
};

/// `tasks` with finish storing its result in `out`.
template <typename Result>
UnitTasks<void> store_result(UnitTasks<Result> tasks, Result& out) {
  return UnitTasks<void>{
      tasks.count, std::move(tasks.run),
      [finish = std::move(tasks.finish), &out] { out = finish(); }};
}

/// Asynchronous in-order unit scheduler, the pipelines' core primitive.
///
/// Units are what is committed; tasks are what is scheduled.
/// `plan(unit, slot)` splits each entry of `units` (slot = position in
/// the list) into tasks, and the persistent thread pool runs the
/// (unit, task) pairs in unit-major order: every task of an entry is
/// claimed before any task of the next.  A unit is planned when the
/// first of its tasks is claimed, under the dispatch lock, so plan
/// should only draw the unit's inputs and leave the work to the tasks.
/// A unit's finish runs once, on the worker that completed its last
/// task, outside every lock.  As the finished prefix of the list grows,
/// `commit(unit, slot)` is invoked for each newly covered entry —
/// always in list order, never concurrently, on whichever worker
/// completed the prefix.  Commits therefore overlap the remaining
/// compute, which is what lets a shard stream results to disk while it
/// is still optimizing.
///
/// `units` must be what the commits assume it is: callers pass it
/// sorted.  An exception from plan, a task, finish or commit aborts the
/// dispatch: tasks not yet started are skipped, the first exception is
/// rethrown once in-flight tasks finish, and already-issued commits
/// stay issued.  An empty `commit` skips the commit phase entirely.
/// Must not be called from inside a parallel_* body.
void run_units_in_order(
    const std::vector<std::size_t>& units,
    const std::function<UnitTasks<void>(std::size_t unit, std::size_t slot)>&
        plan,
    const std::function<void(std::size_t unit, std::size_t slot)>& commit = {});

/// One task per unit: `run(unit, slot)` is the whole unit.
template <typename Run>
  requires std::is_void_v<
      std::invoke_result_t<const Run&, std::size_t, std::size_t>>
void run_units_in_order(
    const std::vector<std::size_t>& units, const Run& run,
    const std::function<void(std::size_t unit, std::size_t slot)>& commit = {}) {
  run_units_in_order(
      units,
      [&run](std::size_t unit, std::size_t slot) {
        return UnitTasks<void>{
            1, [&run, unit, slot](std::size_t) { run(unit, slot); }, {}};
      },
      commit);
}

/// What one sharded run did.
struct ShardRunReport {
  std::size_t units_owned = 0;      ///< units this shard owns
  std::size_t units_resumed = 0;    ///< found complete on disk and skipped
  std::size_t units_generated = 0;  ///< computed by this run
  double seconds = 0.0;             ///< wall time of this run
  std::string data_path;
};

/// `<directory>/<stem>.shard<index>of<count>.txt`; throws on a
/// malformed spec.
std::string sharded_run_path(const std::string& stem,
                             const std::string& directory,
                             const ShardSpec& shard);

namespace detail {

template <typename Codec>
void write_unit_line(std::ostream& os, std::size_t unit,
                     const typename Codec::Record& record) {
  os << "unit " << unit;
  Codec::write(os, record);
  os << '\n';
}

/// The longest valid prefix of unit lines in one shard file.  Anything
/// after the first malformed, unterminated, out-of-order, foreign or
/// out-of-range line is dropped — regeneration is always safe because
/// unit content is deterministic.
template <typename Codec>
struct ParsedShard {
  std::vector<std::size_t> units;                ///< ascending, owned
  std::vector<typename Codec::Record> records;   ///< records[i] is units[i]
};

template <typename Codec>
ParsedShard<Codec> parse_shard(const Codec& codec, const std::string& path,
                               const std::string& config_line,
                               std::size_t total, const ShardSpec& shard) {
  ParsedShard<Codec> out;
  std::ifstream is(path);
  std::string line;
  if (!is.good() || !getline_complete(is, line) || line != Codec::kHeader ||
      !getline_complete(is, line) || line != config_line) {
    return out;
  }
  while (getline_complete(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    std::size_t unit = 0;
    ls >> tag >> unit;
    if (tag != "unit" || ls.fail() || !shard.owns(unit) || unit >= total ||
        (!out.units.empty() && unit <= out.units.back())) {
      break;
    }
    typename Codec::Record record{};
    try {
      codec.read(ls, unit, record);
    } catch (const std::exception&) {
      // Not just Error: a corrupt count can provoke bad_alloc or
      // length_error inside read, and that line is as torn as any.
      break;
    }
    std::string trailing;
    if (ls.fail() || (ls >> trailing, !trailing.empty())) break;
    out.units.push_back(unit);
    out.records.push_back(std::move(record));
  }
  return out;
}

}  // namespace detail

/// One shard of a sweep, resumed and ready to generate.  Construction
/// takes the shard's lock (held for the object's lifetime), validates
/// the on-disk prefix, reports it to `progress`, and rewrites the file
/// down to it; pending() then lists what is left, so a caller can
/// prepare exactly what those units need before generate().
template <typename Codec>
class ShardedRun {
 public:
  using Record = typename Codec::Record;

  ShardedRun(const Codec& codec, const ShardSpec& shard,
             const std::string& directory, std::size_t total,
             ShardProgressFn progress = {})
      : report_(open_report(directory, shard)),
        lock_(report_.data_path + ".lock"),
        progress_(std::move(progress)) {
    const std::string config_line = codec.config_line(shard);
    const std::vector<std::size_t> owned = shard_units(total, shard);
    report_.units_owned = owned.size();
    detail::ParsedShard<Codec> resumed = detail::parse_shard(
        codec, report_.data_path, config_line, total, shard);
    std::size_t count = 0;
    while (count < resumed.units.size() &&
           resumed.units[count] == owned[count]) {
      ++count;
    }
    report_.units_resumed = count;
    if (progress_) progress_(count, owned.size());

    std::ostringstream prefix;
    prefix.precision(17);
    prefix << Codec::kHeader << '\n' << config_line << '\n';
    for (std::size_t i = 0; i < count; ++i) {
      detail::write_unit_line<Codec>(prefix, resumed.units[i],
                                     resumed.records[i]);
    }
    replace_file_atomic(report_.data_path, prefix.str());
    pending_.assign(owned.begin() + static_cast<std::ptrdiff_t>(count),
                    owned.end());
  }

  /// Owned units not on disk, ascending: what generate() computes.
  const std::vector<std::size_t>& pending() const { return pending_; }

  /// Computes every pending unit on the thread pool and appends the
  /// lines in unit order, flushing each one and failing fast on a write
  /// error.  `plan(unit)` returns either the unit's Record (a one-task
  /// unit, computed inside its task) or its UnitTasks<Record>, whose
  /// tasks the pool spreads like any other.
  template <typename Plan>
  ShardRunReport generate(const Plan& plan) {
    const std::string who = std::string("run_") + Codec::kStem + "_shard";
    if (!pending_.empty()) {
      std::ofstream data(report_.data_path, std::ios::app);
      require(data.good(), who + ": cannot open " + report_.data_path);
      data.precision(17);
      std::vector<Record> slots(pending_.size());
      // Commits are serialized, so the progress counter needs no lock.
      std::size_t committed = report_.units_resumed;
      run_units_in_order(
          pending_,
          [&](std::size_t unit, std::size_t slot) {
            if constexpr (std::is_same_v<
                              std::invoke_result_t<const Plan&, std::size_t>,
                              UnitTasks<Record>>) {
              return store_result(plan(unit), slots[slot]);
            } else {
              return UnitTasks<void>{1,
                                     [&plan, &slots, unit, slot](std::size_t) {
                                       slots[slot] = plan(unit);
                                     },
                                     {}};
            }
          },
          [&](std::size_t unit, std::size_t slot) {
            detail::write_unit_line<Codec>(data, unit, slots[slot]);
            data.flush();
            slots[slot] = Record{};  // free as we go: O(1) resident
            // Without this, every remaining unit would keep burning CPU
            // while its commits silently no-op.
            require(data.good(),
                    who + ": write failed at unit " + std::to_string(unit));
            if (progress_) progress_(++committed, report_.units_owned);
          });
    }
    report_.units_generated = pending_.size();
    report_.seconds = timer_.seconds();
    return report_;
  }

 private:
  static ShardRunReport open_report(const std::string& directory,
                                    const ShardSpec& shard) {
    ShardRunReport report;
    report.data_path = sharded_run_path(Codec::kStem, directory, shard);
    std::filesystem::create_directories(directory);
    return report;
  }

  Timer timer_;
  ShardRunReport report_;
  const FileLock lock_;
  ShardProgressFn progress_;
  std::vector<std::size_t> pending_;
};

/// Records of every unit in [0, total), read from the complete shard
/// files of a `shard_count`-way run.  Throws InvalidArgument naming
/// the first shard that is incomplete or carries a different config
/// line — an operator who changed a flag between generation and merge
/// should be told to fix the flag, not re-run the sweep.
template <typename Codec>
std::vector<typename Codec::Record> merge_sharded_runs(
    const Codec& codec, int shard_count, const std::string& directory,
    std::size_t total) {
  const std::string who = std::string("merge_") + Codec::kStem + "_shards";
  require(shard_count >= 1, who + ": need >= 1 shard");
  std::vector<typename Codec::Record> records(total);
  for (int s = 0; s < shard_count; ++s) {
    const ShardSpec shard{s, shard_count};
    const std::string path = sharded_run_path(Codec::kStem, directory, shard);
    const std::string config_line = codec.config_line(shard);
    detail::ParsedShard<Codec> parsed =
        detail::parse_shard(codec, path, config_line, total, shard);
    const std::size_t owned = shard_units(total, shard).size();
    const std::string name = who + ": shard " + std::to_string(s) + "/" +
                             std::to_string(shard_count);
    if (parsed.units.size() != owned) {
      std::ifstream probe(path);
      std::string header;
      std::string file_config;
      if (probe.good() && std::getline(probe, header) &&
          std::getline(probe, file_config) && file_config != config_line) {
        throw InvalidArgument(
            name + " was generated with a different config (" + path +
            " has \"" + file_config + "\", merge asked for \"" + config_line +
            "\")");
      }
      throw InvalidArgument(name + " incomplete (" +
                            std::to_string(parsed.units.size()) + " of " +
                            std::to_string(owned) + " units in " + path + ")");
    }
    for (std::size_t i = 0; i < parsed.units.size(); ++i) {
      records[parsed.units[i]] = std::move(parsed.records[i]);
    }
  }
  return records;
}

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_SHARDED_RUN_HPP
