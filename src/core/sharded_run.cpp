#include "core/sharded_run.hpp"

#include <atomic>
#include <mutex>

#include "common/parallel.hpp"

namespace qaoaml::core {
namespace {

void require_valid_shard(const ShardSpec& shard) {
  require(shard.count >= 1, "ShardSpec: shard count must be >= 1");
  require(shard.index >= 0 && shard.index < shard.count,
          "ShardSpec: shard index out of range");
}

}  // namespace

std::vector<std::size_t> shard_units(std::size_t total,
                                     const ShardSpec& shard) {
  require_valid_shard(shard);
  std::vector<std::size_t> units;
  for (std::size_t unit = static_cast<std::size_t>(shard.index); unit < total;
       unit += static_cast<std::size_t>(shard.count)) {
    units.push_back(unit);
  }
  return units;
}

std::string sharded_run_path(const std::string& stem,
                             const std::string& directory,
                             const ShardSpec& shard) {
  require(shard.count >= 1 && shard.index >= 0 && shard.index < shard.count,
          stem + "_shard_path: invalid shard spec");
  return (std::filesystem::path(directory) /
          (stem + ".shard" + std::to_string(shard.index) + "of" +
           std::to_string(shard.count) + ".txt"))
      .string();
}

void run_units_in_order(
    const std::vector<std::size_t>& units,
    const std::function<void(std::size_t, std::size_t)>& run,
    const std::function<void(std::size_t, std::size_t)>& commit) {
  if (units.empty()) return;
  // parallel_for has no cancellation: it keeps claiming indices after a
  // body throws and only rethrows at the end.  The abort flag makes
  // not-yet-started units exit immediately after the first exception,
  // so a failed commit (e.g. disk full) doesn't burn hours of compute
  // on units whose results could never be committed.
  std::atomic<bool> aborted{false};
  auto guarded_run = [&](std::size_t slot) {
    if (aborted.load(std::memory_order_relaxed)) return false;
    try {
      run(units[slot], slot);
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      throw;
    }
    return true;
  };
  if (!commit) {
    parallel_for(units.size(),
                 [&](std::size_t slot) { guarded_run(slot); });
    return;
  }
  std::mutex mutex;
  std::vector<char> done(units.size(), 0);
  std::size_t next = 0;
  parallel_for(units.size(), [&](std::size_t slot) {
    if (!guarded_run(slot)) return;
    // Drain the completed prefix.  The lock both orders the commits and
    // serializes them; holding it through commit() is deliberate — a
    // worker finishing meanwhile only blocks on the flag update, and
    // commits stay strictly ascending.
    std::lock_guard<std::mutex> lock(mutex);
    done[slot] = 1;
    while (!aborted.load(std::memory_order_relaxed) && next < units.size() &&
           done[next]) {
      const std::size_t ready = next++;
      try {
        commit(units[ready], ready);
      } catch (...) {
        aborted.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

}  // namespace qaoaml::core
