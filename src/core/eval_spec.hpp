// First-class objective-evaluation specs (ROADMAP item 4).
//
// The paper's simulator is exact, but real devices return finite-shot
// estimates.  EvalSpec is the one value type that says *how* an
// objective value is produced — exact expectation or a seeded
// finite-shot estimate — and it threads through every layer that used
// to hardwire exactness: DiagonalQaoa, BatchEvaluator, the solvers, the
// two-level flow, the Table-I / transfer / corpus pipelines, and the
// qaoad wire protocol.
//
// Determinism contract: a sampled estimate is a pure function of
// (state, spec, measurement stream).  The statevector is bit-identical
// for every QAOAML_THREADS (blocked kernels), the CDF used for
// inversion sampling is built by a serial prefix sum, and shots are
// drawn sequentially from one Rng — so a fixed spec + stream produces
// the same bits at any thread count, shard count, or batch position.
//
// Seed ownership follows the purity rules of the pipelines: solver
// entry points that take an Rng& draw their measurement-stream seeds
// from that Rng (after any pre-existing draws, so exact-mode results
// are unchanged), which keeps each shard unit a pure function of
// (config, unit index).  Seedless entry points (solve_from, the wire
// protocol, BatchJob) carry the stream seed inside the spec itself.
#ifndef QAOAML_CORE_EVAL_SPEC_HPP
#define QAOAML_CORE_EVAL_SPEC_HPP

#include <cstdint>
#include <string>

#include "optim/types.hpp"

namespace qaoaml::core {

/// How an objective value is produced.
enum class ObjectiveMode {
  kExact,    ///< dense <psi|C|psi> (the paper's setting)
  kSampled,  ///< finite-shot Born-rule estimate
};

std::string to_string(ObjectiveMode mode);
/// Parses "exact" / "sampled"; throws InvalidArgument on anything else.
ObjectiveMode objective_mode_from_string(const std::string& text);

/// How the measurement stream behaves across repeated objective calls
/// within one optimization.
enum class SeedPolicy {
  kStream,   ///< one stream advances call to call: fresh noise per call
  kPerCall,  ///< every call re-seeds the stream: common random numbers,
             ///  turning the noisy objective into a deterministic
             ///  surrogate (the same angles always score the same)
};

std::string to_string(SeedPolicy policy);
/// Parses "stream" / "per-call"; throws InvalidArgument on anything else.
SeedPolicy seed_policy_from_string(const std::string& text);

/// One objective-evaluation recipe.  Value type: copy it freely.
struct EvalSpec {
  ObjectiveMode mode = ObjectiveMode::kExact;
  int shots = 1024;      ///< Born-rule shots per estimate (sampled mode)
  int averaging = 1;     ///< SPSA-style repeated estimates averaged per
                         ///  objective call (sampled mode)
  SeedPolicy seed_policy = SeedPolicy::kStream;
  std::uint64_t seed = 0;  ///< measurement-stream seed for entry points
                           ///  that do not draw one from a caller Rng

  bool sampled() const { return mode == ObjectiveMode::kSampled; }

  /// The default exact spec (shots/averaging/seed are ignored).
  static EvalSpec exact() { return EvalSpec{}; }

  /// A sampled spec with the given budget and stream seed.
  static EvalSpec sampled_with(int shots, std::uint64_t seed,
                               int averaging = 1) {
    EvalSpec spec;
    spec.mode = ObjectiveMode::kSampled;
    spec.shots = shots;
    spec.seed = seed;
    spec.averaging = averaging;
    return spec;
  }
};

/// Throws InvalidArgument on a hostile spec: sampled mode with
/// shots < 1 or averaging < 1.  Exact mode is always valid (the
/// sampling knobs are inert).
void validate(const EvalSpec& spec);

/// Config-key token string, e.g. "objective=sampled shots=256 avg=1
/// seed_policy=stream mseed=7" — appended to the Table-I / transfer /
/// corpus config lines so a spec change invalidates stale shard files
/// instead of silently mixing exact and sampled results.
std::string to_string(const EvalSpec& spec);

/// Deterministic substream seed for item `tag` under `spec`
/// (SplitMix64-style mixing).  Lets callers without an Rng give each
/// batch item / golden fixture its own independent measurement stream
/// as a pure function of (spec.seed, tag).
std::uint64_t substream_seed(const EvalSpec& spec, std::uint64_t tag);

/// Floors applied to the optimizer tolerances when the objective is
/// sampled: converging 1e-6-deep into noise of order 1/sqrt(shots)
/// burns function calls polishing randomness.
inline constexpr double kNoisyFtolFloor = 1e-3;
inline constexpr double kNoisyXtolFloor = 1e-2;

/// The noisy-objective optimizer preset: `base` with ftol/xtol raised
/// to the floors above.  Applied automatically by the EvalSpec solver
/// overloads in sampled mode; exact mode uses `base` untouched.
optim::Options noisy_options(optim::Options base);

/// `options` adjusted for `spec`: noisy_options in sampled mode, the
/// input unchanged in exact mode.
optim::Options effective_options(const optim::Options& options,
                                 const EvalSpec& spec);

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_EVAL_SPEC_HPP
