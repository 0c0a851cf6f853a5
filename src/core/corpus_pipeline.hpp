// Sharded, asynchronous corpus generation — the offline data-generation
// stage of the paper's pipeline, scaled past one process.
//
// The training corpus (core/parameter_dataset.hpp) is the most
// expensive offline artifact in the system: every unit is a full
// multistart QAOA optimization sweep over depths 1..max_depth.  Unit g
// is the g-th corpus instance, a pure function of (DatasetConfig, g)
// via instance_record_tasks, so units can be computed anywhere, in
// any order, on any thread count, and always produce the same bits.
//
// Each shard runs on the generic engine (core/sharded_run.hpp): units
// assigned round-robin, each one's restarts spread over the thread
// pool as tasks (instance_record_tasks), committed in
// ascending order as one line each to `corpus.shard<i>of<n>.txt`
// (the record's dataset-format "graph" and "params" lines joined by
// ';'), and resumed from the longest valid prefix after a kill.  That
// file is the whole checkpoint: there is no ledger beside it.
//
// merge_shards stitches complete shard files into one ParameterDataset
// file.  The merged bytes are identical for every (shard count, thread
// count) combination, and identical to a direct
// ParameterDataset::generate(...).save(...) — tested in
// tests/test_corpus_pipeline.cpp and enforced in CI.
// ParameterDataset::generate routes through generate_records (the
// in-memory single-shard path).
#ifndef QAOAML_CORE_CORPUS_PIPELINE_HPP
#define QAOAML_CORE_CORPUS_PIPELINE_HPP

#include <string>
#include <vector>

#include "core/parameter_dataset.hpp"
#include "core/sharded_run.hpp"

namespace qaoaml::core {

/// Settings of one shard run.
struct CorpusShardConfig {
  DatasetConfig dataset;      ///< the full corpus being generated
  ShardSpec shard;            ///< which slice this process owns
  std::string directory = "."; ///< where the shard files live
  ShardProgressFn progress;   ///< optional per-commit progress hook
};

/// What one run_shard call did.
struct ShardReport : ShardRunReport {
  /// Always empty: shards keep no ledger file.  Kept only because
  /// bench_e2e/paper_pipeline.cpp still adds the size of this path
  /// (0 bytes for a missing file) to its checkpoint bytes.
  std::string manifest_path;
};

/// The sharded corpus-generation pipeline (all static: the state lives
/// in the shard files, which is what makes runs resumable).
class CorpusPipeline {
 public:
  /// `<directory>/corpus.shard<index>of<count>.txt`.
  static std::string shard_data_path(const std::string& directory,
                                     const ShardSpec& shard);

  /// Generates (or resumes) one shard: computes every owned unit that
  /// is not already complete in the shard file and streams the results
  /// to disk in unit order.  The dataset config is validated before
  /// any file is touched.  Stale files (different config or shard
  /// layout) are discarded; a torn trailing line is regenerated.  A
  /// concurrent duplicate invocation of the same shard fails fast.
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
