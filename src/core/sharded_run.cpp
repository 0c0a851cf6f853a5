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
    const std::function<UnitTasks<void>(std::size_t, std::size_t)>& plan,
    const std::function<void(std::size_t, std::size_t)>& commit) {
  if (units.empty()) return;
  // The dispatch cursor: the next (slot, task) pair to claim, the plans
  // of the units in flight and how many of their tasks are unfinished.
  std::mutex dispatch;
  std::size_t next_slot = 0;
  std::size_t next_task = 0;
  std::vector<UnitTasks<void>> plans(units.size());
  std::vector<std::size_t> unfinished(units.size(), 0);
  // parallel_for has no cancellation: its bodies run to the end and it
  // only rethrows then.  The abort flag makes every worker stop claiming
  // after the first exception, so a failed commit (e.g. disk full)
  // doesn't burn hours of compute on units whose results could never be
  // committed.
  std::atomic<bool> aborted{false};
  // Commit state, under its own lock so a slow write never blocks a
  // claim.
  std::mutex committing;
  std::vector<char> done(units.size(), 0);
  std::size_t next_commit = 0;

  const auto claim = [&](std::size_t& slot, std::size_t& task) {
    const std::lock_guard<std::mutex> lock(dispatch);
    if (aborted.load(std::memory_order_relaxed) || next_slot == units.size()) {
      return false;
    }
    if (next_task == 0) {
      plans[next_slot] = plan(units[next_slot], next_slot);
      require(plans[next_slot].count >= 1,
              "run_units_in_order: a unit needs at least one task");
      unfinished[next_slot] = plans[next_slot].count;
    }
    slot = next_slot;
    task = next_task++;
    if (next_task == plans[slot].count) {
      ++next_slot;
      next_task = 0;
    }
    return true;
  };

  const auto worker = [&](std::size_t) {
    try {
      std::size_t slot = 0;
      std::size_t task = 0;
      while (claim(slot, task)) {
        plans[slot].run(task);
        {
          const std::lock_guard<std::mutex> lock(dispatch);
          if (--unfinished[slot] != 0) continue;
        }
        // Every other task of this unit has returned, so the plan is
        // this worker's alone now.
        if (plans[slot].finish) plans[slot].finish();
        plans[slot] = {};
        if (!commit) continue;
        // Drain the finished prefix.  The lock both orders the commits
        // and serializes them; holding it through commit() is
        // deliberate — a worker finishing meanwhile only blocks on the
        // flag update, and commits stay strictly ascending.
        const std::lock_guard<std::mutex> lock(committing);
        done[slot] = 1;
        while (!aborted.load(std::memory_order_relaxed) &&
               next_commit < units.size() && done[next_commit]) {
          const std::size_t ready = next_commit++;
          commit(units[ready], ready);
        }
      }
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      throw;
    }
  };
  parallel_for(static_cast<std::size_t>(default_thread_count()), worker);
}

}  // namespace qaoaml::core
