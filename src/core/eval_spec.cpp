#include "core/eval_spec.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace qaoaml::core {

std::string to_string(ObjectiveMode mode) {
  switch (mode) {
    case ObjectiveMode::kExact: return "exact";
    case ObjectiveMode::kSampled: return "sampled";
  }
  throw InvalidArgument("to_string: unknown ObjectiveMode");
}

ObjectiveMode objective_mode_from_string(const std::string& text) {
  if (text == "exact") return ObjectiveMode::kExact;
  if (text == "sampled") return ObjectiveMode::kSampled;
  throw InvalidArgument("objective_mode_from_string: unknown mode '" + text +
                        "' (expected 'exact' or 'sampled')");
}

std::string to_string(SeedPolicy policy) {
  switch (policy) {
    case SeedPolicy::kStream: return "stream";
    case SeedPolicy::kPerCall: return "per-call";
  }
  throw InvalidArgument("to_string: unknown SeedPolicy");
}

SeedPolicy seed_policy_from_string(const std::string& text) {
  if (text == "stream") return SeedPolicy::kStream;
  if (text == "per-call") return SeedPolicy::kPerCall;
  throw InvalidArgument("seed_policy_from_string: unknown policy '" + text +
                        "' (expected 'stream' or 'per-call')");
}

void validate(const EvalSpec& spec) {
  if (!spec.sampled()) return;
  // Sampled objectives validate on every call, so the messages are
  // built only when a check fails.
  if (spec.shots < 1) {
    throw InvalidArgument("EvalSpec: sampled mode needs shots >= 1, got " +
                          std::to_string(spec.shots));
  }
  if (spec.averaging < 1) {
    throw InvalidArgument("EvalSpec: sampled mode needs averaging >= 1, got " +
                          std::to_string(spec.averaging));
  }
}

std::string to_string(const EvalSpec& spec) {
  if (!spec.sampled()) return "objective=exact";
  std::ostringstream os;
  os << "objective=sampled shots=" << spec.shots << " avg=" << spec.averaging
     << " seed_policy=" << to_string(spec.seed_policy)
     << " mseed=" << spec.seed;
  return os.str();
}

std::uint64_t substream_seed(const EvalSpec& spec, std::uint64_t tag) {
  // SplitMix64 finalizer over (seed, tag): disjoint tags give streams
  // that are independent for any base seed, and the derivation has no
  // shared state, so it is position- and thread-agnostic.
  std::uint64_t h = spec.seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

optim::Options noisy_options(optim::Options base) {
  base.ftol = std::max(base.ftol, kNoisyFtolFloor);
  base.xtol = std::max(base.xtol, kNoisyXtolFloor);
  return base;
}

optim::Options effective_options(const optim::Options& options,
                                 const EvalSpec& spec) {
  return spec.sampled() ? noisy_options(options) : options;
}

}  // namespace qaoaml::core
