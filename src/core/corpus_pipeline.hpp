// Sharded, asynchronous corpus generation — the offline data-generation
// stage of the paper's pipeline, scaled past one process.
//
// The training corpus (core/parameter_dataset.hpp) is the most
// expensive offline artifact in the system: every unit is a full
// multistart QAOA optimization sweep over depths 1..max_depth.  This
// subsystem turns that generation into restartable, distributable work:
//
//  - **Work units.**  Unit g is the g-th corpus instance; its content is
//    a pure function of (DatasetConfig, g) via generate_instance_record,
//    so units can be computed anywhere, in any order, on any thread
//    count, and always produce the same bits.
//  - **Sharding.**  A ShardSpec assigns units round-robin
//    (g % count == index), so any shard count partitions the same unit
//    space and shards are load-balanced without coordination.  Shards
//    are independent processes/machines; nothing is shared but the
//    config.
//  - **Async dispatch.**  Within a shard, units fan out across the
//    persistent thread pool (run_units_in_order).  Completed units are
//    committed *in ascending unit order* as soon as their prefix is
//    done, on whichever worker finished last — serialization I/O
//    overlaps ongoing optimization compute, and shard file content is
//    deterministic.  (Files are not append-only across invocations: a
//    resume rewrites the file down to its validated prefix before
//    appending, so don't tail or rsync --append a live shard.)
//  - **Checkpoint / resume.**  Each shard streams to a data file and a
//    manifest ledger that records committed units.  A killed run
//    restarts where it left off: on start the shard file is parsed and
//    the longest valid prefix of complete unit blocks confirmed by the
//    ledger is kept (a truncated trailing block, or one the ledger has
//    not recorded, is discarded and regenerated); only missing units
//    run.  Prefix rewrites go through temp-file + rename, so a kill at
//    any point never loses committed units.
//  - **Merge.**  merge_shards stitches complete shard files into one
//    ParameterDataset file.  The merged bytes are identical for every
//    (shard count, thread count) combination, and identical to a
//    direct ParameterDataset::generate(...).save(...) — tested in
//    tests/test_corpus_pipeline.cpp and enforced in CI.
//
// ParameterDataset::generate routes through generate_records (the
// in-memory single-shard path), and core::run_table1 dispatches its
// sweep through run_units_in_order, so every producer shares one
// scheduler.
#ifndef QAOAML_CORE_CORPUS_PIPELINE_HPP
#define QAOAML_CORE_CORPUS_PIPELINE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/parameter_dataset.hpp"
#include "core/sharded_run.hpp"

namespace qaoaml::core {

/// Settings of one shard run.
struct CorpusShardConfig {
  DatasetConfig dataset;      ///< the full corpus being generated
  ShardSpec shard;            ///< which slice this process owns
  std::string directory = "."; ///< where shard data + manifest files live
  ShardProgressFn progress;   ///< optional per-commit progress hook
};

/// What one run_shard call did.
struct ShardReport {
  std::size_t units_owned = 0;      ///< units this shard is responsible for
  std::size_t units_resumed = 0;    ///< found complete on disk and skipped
  std::size_t units_generated = 0;  ///< computed by this run
  double seconds = 0.0;             ///< wall time of this run
  double instances_per_second = 0.0; ///< units_generated / seconds
  std::string data_path;
  std::string manifest_path;
};

/// The sharded corpus-generation pipeline (all static: the state lives
/// in the shard files, which is what makes runs resumable).
class CorpusPipeline {
 public:
  /// Shard file locations inside `directory`.
  static std::string shard_data_path(const std::string& directory,
                                     const ShardSpec& shard);
  static std::string shard_manifest_path(const std::string& directory,
                                         const ShardSpec& shard);

  /// Generates (or resumes) one shard: computes every owned unit that
  /// is not already complete in the shard data file and streams results
  /// to disk in unit order, updating the manifest after every commit.
  /// Stale files (different config or shard layout) are discarded; a
  /// truncated trailing block is dropped and regenerated.  A flock on a
  /// sidecar .lock file makes a concurrent duplicate invocation of the
  /// same shard fail fast (the lock dies with the process, so a killed
  /// run never blocks its own resume).
  static ShardReport run_shard(const CorpusShardConfig& config);

  /// Merges the complete shard files of a `shard_count`-way run under
  /// `directory` into one dataset, saved to `final_path` (skipped when
  /// empty).  Throws if any shard is missing units.  The output bytes
  /// depend only on `dataset` — not on shard count or thread count.
  /// The returned in-memory records leave max_cut at 0 (it is not part
  /// of the file format); use ParameterDataset::load(final_path) when
  /// the merged corpus is consumed in-process, which recomputes it.
  static ParameterDataset merge_shards(const DatasetConfig& dataset,
                                       int shard_count,
                                       const std::string& directory,
                                       const std::string& final_path);

  /// In-memory generation of the owned records (ascending unit order),
  /// without touching disk.  ShardSpec{} computes the whole corpus —
  /// this is the path ParameterDataset::generate routes through.
  static std::vector<InstanceRecord> generate_records(
      const DatasetConfig& dataset, const ShardSpec& shard = {});
};

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_CORPUS_PIPELINE_HPP
