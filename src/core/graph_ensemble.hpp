// Pluggable problem-instance ensembles for corpus generation and the
// Table-I sweep.
//
// The paper trains its predictor on a single family (Erdos-Renyi MaxCut
// instances), but the warm-start claim only matters if it generalizes
// across instance distributions — related work (Khairy et al., Wecker
// et al.) trains and evaluates across structured graph ensembles.  This
// subsystem makes the instance distribution a first-class, pluggable
// knob: one EnsembleConfig selects the family and its parameters, and
// every producer (ParameterDataset::generate, the corpus pipeline's
// shards, tools/generate_corpus, and — through the dataset — the
// Table-I experiment) samples through it.
//
// Families:
//  - **erdos-renyi** — G(n, p); the paper's ensemble and the default.
//  - **regular** — uniform-ish random d-regular graphs (configuration
//    model with rejection).
//  - **weighted-erdos-renyi** — G(n, p) with i.i.d. edge weights, drawn
//    uniformly from [low, high) or from N(mean, sd).  Weighted cut
//    spectra are non-integral, so the simulator's power-table fast path
//    and the angle canonicalization are both (correctly) bypassed.
//  - **small-world** — Watts-Strogatz ring lattice with rewiring.
//  - **mixed** — each instance draws one of the four concrete families
//    (uniformly, from the instance's own RNG stream), producing a
//    cross-distribution corpus in a single run.
//
// Contracts:
//  - **Determinism.**  sample_graph is a pure function of (config, rng
//    state): the same seeded Rng always yields the same graph, for
//    every thread count and shard layout — the corpus pipeline's
//    bit-identical-merge guarantee extends to every family.
//  - **Config key.**  to_string(EnsembleConfig) emits only the tokens
//    the selected family consumes, and the tokens participate in the
//    dataset cache / shard-resume key (core/parameter_dataset.hpp), so
//    changing any family knob invalidates stale corpora.
//  - **Validation.**  validate rejects out-of-range and non-finite
//    knobs (a NaN edge weight would silently poison every expectation
//    value downstream) before any generation starts.
#ifndef QAOAML_CORE_GRAPH_ENSEMBLE_HPP
#define QAOAML_CORE_GRAPH_ENSEMBLE_HPP

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace qaoaml::core {

/// The supported instance distributions.
enum class GraphFamily {
  kErdosRenyi,          ///< G(n, p) — the paper's ensemble (default)
  kRegular,             ///< random d-regular
  kWeightedErdosRenyi,  ///< G(n, p) with random edge weights
  kSmallWorld,          ///< Watts-Strogatz ring lattice with rewiring
  kMixed,               ///< per-instance uniform draw of the above four
};

/// Edge-weight distributions of the weighted family.
enum class WeightKind {
  kUniform,   ///< weight ~ U[low, high)
  kGaussian,  ///< weight ~ N(mean, sd)
};

/// One ensemble: a family plus its knobs.  Fields a family does not
/// consume are ignored by sampling and omitted from its config key.
struct EnsembleConfig {
  GraphFamily family = GraphFamily::kErdosRenyi;

  // erdos-renyi / weighted-erdos-renyi
  double edge_probability = 0.5;

  // regular
  int degree = 3;  ///< paper's trend figures use 3-regular graphs

  // weighted-erdos-renyi
  WeightKind weight = WeightKind::kUniform;
  double weight_low = 0.1;   ///< uniform draw lower bound
  double weight_high = 1.0;  ///< uniform draw upper bound (exclusive)
  double weight_mean = 1.0;  ///< gaussian mean
  double weight_sd = 0.25;   ///< gaussian standard deviation

  // small-world
  int neighbors = 2;               ///< ring-lattice degree (even)
  double rewire_probability = 0.25;
};

/// Canonical family name ("erdos-renyi", "regular",
/// "weighted-erdos-renyi", "small-world", "mixed") — used in config
/// keys and accepted by the CLI.
std::string to_string(GraphFamily family);

/// Parses a canonical family name ("er" is accepted as shorthand for
/// "erdos-renyi"); throws InvalidArgument on unknown names.
GraphFamily family_from_string(const std::string& name);

/// Space-separated key=value tokens of the knobs this config's family
/// consumes, starting with "family=...".  Part of the dataset config
/// key, so token vocabulary changes invalidate on-disk corpora.
std::string to_string(const EnsembleConfig& config);

/// Validates every knob the selected family consumes against
/// `num_nodes` (degree/neighbors ranges, probability ranges, finite
/// weight parameters, uniform low < high); throws InvalidArgument
/// otherwise.  kMixed validates all four constituent families.
void validate(const EnsembleConfig& config, int num_nodes);

/// Largest edge count the family can produce on `num_nodes` nodes (the
/// reachability bound for DatasetConfig::min_edges): C(n, 2) for the ER
/// families (0 when edge_probability is 0), the fixed lattice/regular
/// edge count otherwise.  kMixed returns the smallest bound of its
/// constituents, so a min_edges that passes is reachable whichever
/// family an instance draws.
std::int64_t max_edges(const EnsembleConfig& config, int num_nodes);

/// Draws one problem instance.  Pure function of (config, rng state):
/// thread count, shard layout and call site cannot change the result.
/// The rng should be the per-instance stream seeded from
/// (dataset seed, instance index) — see instance_record_tasks.
graph::Graph sample_graph(const EnsembleConfig& config, int num_nodes,
                          Rng& rng);

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_GRAPH_ENSEMBLE_HPP
