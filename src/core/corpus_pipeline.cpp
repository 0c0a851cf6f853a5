#include "core/corpus_pipeline.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"

namespace qaoaml::core {
namespace {

constexpr const char* kShardHeader = "qaoaml-corpus-shard-v1";
constexpr const char* kManifestHeader = "qaoaml-corpus-manifest-v1";

/// The config line written to both shard files; a full-line match is
/// required on resume, so any change of dataset recipe or shard layout
/// invalidates stale files instead of silently mixing corpora.
std::string shard_config_line(const DatasetConfig& dataset,
                              const ShardSpec& shard) {
  std::ostringstream os;
  os << "config " << to_string(dataset) << " shard=" << shard.index << '/'
     << shard.count;
  return os.str();
}

void require_valid_shard(const ShardSpec& shard) {
  require(shard.count >= 1, "CorpusPipeline: shard count must be >= 1");
  require(shard.index >= 0 && shard.index < shard.count,
          "CorpusPipeline: shard index out of range");
}

/// The longest valid prefix of complete unit blocks found in a shard
/// data file.  Anything after the first malformed, out-of-order,
/// foreign-unit or truncated block is discarded — regeneration is
/// always safe because unit content is deterministic.
struct ParsedShard {
  std::vector<std::size_t> units;        ///< ascending, owned
  std::vector<InstanceRecord> records;   ///< records[i] is units[i]
};

ParsedShard parse_shard_file(const std::string& path,
                             const std::string& config_line,
                             const DatasetConfig& dataset,
                             const ShardSpec& shard) {
  ParsedShard out;
  std::ifstream is(path);
  if (!is.good()) return out;
  std::string line;
  if (!getline_complete(is, line) || line != kShardHeader) return out;
  if (!getline_complete(is, line) || line != config_line) return out;

  bool in_block = false;
  std::size_t current = 0;
  std::vector<InstanceRecord> pending;
  try {
    while (getline_complete(is, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "unit") {
        std::size_t unit = 0;
        ls >> unit;
        if (in_block || ls.fail() || !shard.owns(unit) ||
            unit >= static_cast<std::size_t>(dataset.num_graphs) ||
            (!out.units.empty() && unit <= out.units.back())) {
          break;
        }
        current = unit;
        in_block = true;
        pending.clear();
      } else if (tag == "done") {
        std::size_t unit = 0;
        ls >> unit;
        if (!in_block || ls.fail() || unit != current ||
            pending.size() != 1 ||
            pending.front().id != static_cast<int>(current) ||
            pending.front().optimal_params.size() !=
                static_cast<std::size_t>(dataset.max_depth)) {
          break;
        }
        out.units.push_back(current);
        out.records.push_back(std::move(pending.front()));
        in_block = false;
        pending.clear();
      } else {
        // compute_max_cut=false: parsed records are only re-serialized
        // (run_shard resume) or re-saved (merge) — max_cut is not part
        // of the file format, so the O(2^nodes) brute force per graph
        // would be pure overhead on both paths.
        if (!in_block ||
            !detail::consume_record_line(line, pending,
                                         /*compute_max_cut=*/false)) {
          break;
        }
      }
    }
  } catch (const std::exception&) {
    // A malformed line (the typical kill-mid-write truncation) ends the
    // valid prefix; everything before it is still usable.  Catching
    // std::exception, not just Error, keeps corrupt counts that provoke
    // bad_alloc/length_error inside the recovery path too.
  }
  return out;
}

void write_unit_block(std::ostream& os, std::size_t unit,
                      const InstanceRecord& record) {
  os << "unit " << unit << '\n';
  detail::write_record(os, record);
  os << "done " << unit << '\n';
}

/// Reads the committed-unit ledger.  Returns false (and leaves `units`
/// empty) when the manifest is missing, stale, or malformed — resume
/// then trusts the data file alone.
bool read_manifest(const std::string& path, const std::string& config_line,
                   std::vector<std::size_t>& units) {
  std::ifstream is(path);
  if (!is.good()) return false;
  std::string line;
  if (!getline_complete(is, line) || line != kManifestHeader) return false;
  if (!getline_complete(is, line) || line != config_line) return false;
  while (getline_complete(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::size_t unit = 0;
    ls >> unit;
    if (ls.fail() || (!units.empty() && unit <= units.back())) {
      // A torn trailing line ends the trusted prefix.
      break;
    }
    units.push_back(unit);
  }
  return true;
}

}  // namespace

std::string CorpusPipeline::shard_data_path(const std::string& directory,
                                            const ShardSpec& shard) {
  require_valid_shard(shard);
  return (std::filesystem::path(directory) /
          ("corpus.shard" + std::to_string(shard.index) + "of" +
           std::to_string(shard.count) + ".txt"))
      .string();
}

std::string CorpusPipeline::shard_manifest_path(const std::string& directory,
                                                const ShardSpec& shard) {
  require_valid_shard(shard);
  return (std::filesystem::path(directory) /
          ("corpus.shard" + std::to_string(shard.index) + "of" +
           std::to_string(shard.count) + ".manifest"))
      .string();
}

ShardReport CorpusPipeline::run_shard(const CorpusShardConfig& config) {
  require_valid_shard(config.shard);
  // Full config validation BEFORE any file is touched: a typo'd flag
  // must error here, not after the prefix rewrite has already clobbered
  // a completed shard generated under the correct config.
  validate(config.dataset);

  Timer timer;
  std::filesystem::create_directories(config.directory);

  ShardReport report;
  report.data_path = shard_data_path(config.directory, config.shard);
  report.manifest_path = shard_manifest_path(config.directory, config.shard);

  // Exclusive for the whole run: a concurrent duplicate invocation of
  // this shard errors out here instead of interleaving file writes.
  const FileLock lock(report.data_path + ".lock");

  const std::string config_line =
      shard_config_line(config.dataset, config.shard);
  const std::vector<std::size_t> owned = shard_units(
      static_cast<std::size_t>(config.dataset.num_graphs), config.shard);
  report.units_owned = owned.size();

  // Resume: keep the prefix of owned units that is both complete in
  // the data file AND recorded in the manifest ledger (when a matching
  // manifest exists; a missing/stale manifest falls back to the data
  // file alone, and a unit the ledger has not caught up to is simply
  // regenerated — always safe, since unit content is deterministic).
  ParsedShard resumed = parse_shard_file(report.data_path, config_line,
                                         config.dataset, config.shard);
  std::vector<std::size_t> ledger;
  const bool have_ledger =
      read_manifest(report.manifest_path, config_line, ledger);
  std::size_t resume_count = 0;
  while (resume_count < resumed.units.size() &&
         resumed.units[resume_count] == owned[resume_count] &&
         (!have_ledger || (resume_count < ledger.size() &&
                           ledger[resume_count] == owned[resume_count]))) {
    ++resume_count;
  }
  report.units_resumed = resume_count;
  if (config.progress) config.progress(resume_count, owned.size());

  // Rewrite both files down to the validated prefix — atomically, via
  // temp + rename, so a kill mid-rewrite cannot lose units that were
  // already committed — then stream the remaining units in order.
  // Per-commit, data is flushed before the manifest line so a kill
  // between the two leaves the ledger behind the data, never ahead.
  {
    std::ostringstream data_prefix;
    std::ostringstream manifest_prefix;
    data_prefix << kShardHeader << '\n' << config_line << '\n';
    manifest_prefix << kManifestHeader << '\n' << config_line << '\n';
    for (std::size_t i = 0; i < resume_count; ++i) {
      write_unit_block(data_prefix, resumed.units[i], resumed.records[i]);
      manifest_prefix << resumed.units[i] << '\n';
    }
    replace_file_atomic(report.data_path, data_prefix.str());
    replace_file_atomic(report.manifest_path, manifest_prefix.str());
  }
  // The resumed records are only needed for the prefix rewrite above;
  // don't hold them in memory through the (potentially long) generation
  // of the remaining units.
  resumed = ParsedShard{};
  std::ofstream data(report.data_path, std::ios::app);
  require(data.good(),
          "CorpusPipeline::run_shard: cannot open " + report.data_path);
  std::ofstream manifest(report.manifest_path, std::ios::app);
  require(manifest.good(),
          "CorpusPipeline::run_shard: cannot open " + report.manifest_path);

  const std::vector<std::size_t> pending(owned.begin() + resume_count,
                                         owned.end());
  std::vector<InstanceRecord> slots(pending.size());
  // Commits are serialized by run_units_in_order, so the plain counter
  // feeding the progress hook needs no synchronization of its own.
  std::size_t committed = resume_count;
  run_units_in_order(
      pending,
      [&](std::size_t unit, std::size_t slot) {
        slots[slot] = generate_instance_record(config.dataset, unit);
      },
      [&](std::size_t unit, std::size_t slot) {
        write_unit_block(data, unit, slots[slot]);
        data.flush();
        manifest << unit << '\n';
        manifest.flush();
        slots[slot] = InstanceRecord{};  // free as we go: O(1) resident
        // Fail fast on I/O errors (disk full, file yanked): without
        // this, every remaining unit would keep burning CPU while its
        // commits silently no-op, and the failure would only surface
        // after the whole shard "finished".  Resume handles the rest.
        require(data.good() && manifest.good(),
                "CorpusPipeline::run_shard: write failed at unit " +
                    std::to_string(unit));
        if (config.progress) config.progress(++committed, owned.size());
      });
  require(data.good() && manifest.good(),
          "CorpusPipeline::run_shard: write failed");

  report.units_generated = pending.size();
  report.seconds = timer.seconds();
  report.instances_per_second =
      report.seconds > 0.0
          ? static_cast<double>(report.units_generated) / report.seconds
          : 0.0;
  return report;
}

ParameterDataset CorpusPipeline::merge_shards(const DatasetConfig& dataset,
                                              int shard_count,
                                              const std::string& directory,
                                              const std::string& final_path) {
  require(shard_count >= 1, "CorpusPipeline::merge_shards: need >= 1 shard");
  validate(dataset);

  std::vector<InstanceRecord> records(
      static_cast<std::size_t>(dataset.num_graphs));
  for (int s = 0; s < shard_count; ++s) {
    const ShardSpec shard{s, shard_count};
    const std::string path = shard_data_path(directory, shard);
    // In-memory consumers that need max_cut (parse_shard_file leaves it
    // at 0) load(final_path) instead, which recomputes it.
    ParsedShard parsed = parse_shard_file(
        path, shard_config_line(dataset, shard), dataset, shard);
    const std::vector<std::size_t> owned =
        shard_units(static_cast<std::size_t>(dataset.num_graphs), shard);
    if (parsed.units.size() != owned.size()) {
      // Distinguish "not done yet" from "done, but for a different
      // config" — an operator who omitted a corpus-shape flag on the
      // merge invocation should be told to fix the flag, not re-run
      // generation.
      std::ifstream probe(path);
      std::string header;
      std::string file_config;
      if (probe.good() && std::getline(probe, header) &&
          std::getline(probe, file_config) &&
          file_config != shard_config_line(dataset, shard)) {
        throw InvalidArgument(
            "CorpusPipeline::merge_shards: shard " + std::to_string(s) + "/" +
            std::to_string(shard_count) +
            " was generated with a different config (" + path + " has \"" +
            file_config + "\", merge asked for \"" +
            shard_config_line(dataset, shard) + "\")");
      }
      throw InvalidArgument(
          "CorpusPipeline::merge_shards: shard " + std::to_string(s) + "/" +
          std::to_string(shard_count) + " incomplete (" +
          std::to_string(parsed.units.size()) + " of " +
          std::to_string(owned.size()) + " units in " + path + ")");
    }
    for (std::size_t i = 0; i < parsed.units.size(); ++i) {
      records[parsed.units[i]] = std::move(parsed.records[i]);
    }
  }

  ParameterDataset merged(dataset, std::move(records));
  if (!final_path.empty()) merged.save(final_path);
  return merged;
}

std::vector<InstanceRecord> CorpusPipeline::generate_records(
    const DatasetConfig& dataset, const ShardSpec& shard) {
  require_valid_shard(shard);
  validate(dataset);
  const std::vector<std::size_t> units =
      shard_units(static_cast<std::size_t>(dataset.num_graphs), shard);
  std::vector<InstanceRecord> records(units.size());
  run_units_in_order(units, [&](std::size_t unit, std::size_t slot) {
    records[slot] = generate_instance_record(dataset, unit);
  });
  return records;
}

}  // namespace qaoaml::core
