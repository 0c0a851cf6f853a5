#include "core/corpus_pipeline.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace qaoaml::core {
namespace {

/// Shard-file codec of the corpus (core/sharded_run.hpp): one unit's
/// dataset record per line, its "graph" and "params" lines joined by
/// ';', so a merge re-saves exactly the bytes ParameterDataset::save
/// writes.
struct CorpusCodec {
  using Record = InstanceRecord;
  static constexpr const char* kHeader = "qaoaml-corpus-shard-v2";
  static constexpr const char* kStem = "corpus";

  const DatasetConfig& dataset;

  /// A full-line match is required on resume/merge, so any change of
  /// dataset recipe or shard layout invalidates stale files instead of
  /// silently mixing corpora.
  std::string config_line(const ShardSpec& shard) const {
    std::ostringstream os;
    os << "config " << to_string(dataset) << " shard=" << shard.index << '/'
       << shard.count;
    return os.str();
  }
  static void write(std::ostream& os, const InstanceRecord& record) {
    std::ostringstream block;
    detail::write_record(block, record);
    std::string text = block.str();
    text.pop_back();  // the last line's '\n' ends the unit line instead
    std::replace(text.begin(), text.end(), '\n', ';');
    os << ' ' << text;
  }
  /// Runs every segment through the dataset parser's own checks (counts
  /// bounded before allocation, ids and depths in order) and throws
  /// unless the result is unit `unit`'s record at every depth.
  void read(std::istream& is, std::size_t unit, InstanceRecord& record) const {
    std::vector<InstanceRecord> parsed;
    std::string segment;
    while (std::getline(is, segment, ';')) {
      // compute_max_cut=false: max_cut is not part of the file format,
      // and resume and merge only re-serialize the record.
      require(detail::consume_record_line(segment, parsed,
                                          /*compute_max_cut=*/false),
              "corpus shard: unknown tag");
    }
    require(parsed.size() == 1 &&
                parsed.front().id == static_cast<int>(unit) &&
                parsed.front().optimal_params.size() ==
                    static_cast<std::size_t>(dataset.max_depth),
            "corpus shard: not a complete record of its unit");
    record = std::move(parsed.front());
    is.clear(std::ios::eofbit);  // getline's final miss is not an error
  }
};

}  // namespace

std::string CorpusPipeline::shard_data_path(const std::string& directory,
                                            const ShardSpec& shard) {
  return sharded_run_path(CorpusCodec::kStem, directory, shard);
}

ShardReport CorpusPipeline::run_shard(const CorpusShardConfig& config) {
  // Before ShardedRun rewrites the file down to its valid prefix: a
  // typo'd flag must error here, not after clobbering a shard that was
  // completed under the correct config.
  validate(config.dataset);
  ShardedRun<CorpusCodec> run(
      CorpusCodec{config.dataset}, config.shard, config.directory,
      static_cast<std::size_t>(config.dataset.num_graphs), config.progress);
  return ShardReport{run.generate([&](std::size_t unit) {
                       return instance_record_tasks(config.dataset, unit);
                     }),
                     /*manifest_path=*/{}};
}

ParameterDataset CorpusPipeline::merge_shards(const DatasetConfig& dataset,
                                              int shard_count,
                                              const std::string& directory,
                                              const std::string& final_path) {
  validate(dataset);
  ParameterDataset merged(
      dataset, merge_sharded_runs(
                   CorpusCodec{dataset}, shard_count, directory,
                   static_cast<std::size_t>(dataset.num_graphs)));
  if (!final_path.empty()) merged.save(final_path);
  return merged;
}

std::vector<InstanceRecord> CorpusPipeline::generate_records(
    const DatasetConfig& dataset, const ShardSpec& shard) {
  validate(dataset);
  const std::vector<std::size_t> units =
      shard_units(static_cast<std::size_t>(dataset.num_graphs), shard);
  std::vector<InstanceRecord> records(units.size());
  run_units_in_order(units, [&](std::size_t unit, std::size_t slot) {
    return store_result(instance_record_tasks(dataset, unit), records[slot]);
  });
  return records;
}

}  // namespace qaoaml::core
