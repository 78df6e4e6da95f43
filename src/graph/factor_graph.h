// The factor graph Fixy compiles scenes into (Section 4.3 of the paper).
//
// Compilation creates one variable node per observation and one factor node
// per (feature distribution, element) pair whose feature applies; an edge
// connects a factor to every observation in its element. The graph is
// bipartite by construction and scoring walks it:
//
//   - an observation's score is the sum of ln(aof(feature score)) over its
//     adjacent factors (Equation 2);
//   - a component's score is the sum over its *distinct* adjacent factors,
//     normalized by the number of those factors (the paper's worked
//     example: (ln 0.37 + ln 0.39 + ln 0.21) / 3 = -1.17).
//
// Storage is CSR-style (DESIGN.md §11): adjacency lists are spans into two
// graph-owned pools instead of per-node vectors, because variables are
// created bundle-major and every element kind covers a contiguous variable
// range — so compilation allocates a handful of pools per scene instead of
// one vector per node. The graph is consequently move-only: copying would
// leave the spans pointing into the source's pools.
#ifndef FIXY_GRAPH_FACTOR_GRAPH_H_
#define FIXY_GRAPH_FACTOR_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/track.h"
#include "dsl/feature_distribution.h"
#include "dsl/feature_score_cache.h"

namespace fixy {

/// Identifies the scene element a factor was instantiated over.
struct ElementRef {
  FeatureKind kind = FeatureKind::kObservation;
  size_t track_index = 0;
  /// For kBundle and kObservation: the bundle. For kTransition: the *from*
  /// bundle (the transition spans bundle_index -> bundle_index + 1).
  size_t bundle_index = 0;
  /// For kObservation only.
  size_t obs_index = 0;
};

/// A variable node: one observation.
struct VariableNode {
  ObservationId obs_id = kInvalidObservationId;
  size_t track_index = 0;
  size_t bundle_index = 0;
  size_t obs_index = 0;
  /// Indices into FactorGraph::factors(), ascending. Points into the
  /// graph's adjacency pool; valid exactly as long as the graph.
  std::span<const size_t> factors;
};

/// A factor node: one feature distribution evaluated on one element.
struct FactorNode {
  /// Index into the LoaSpec's feature_distributions.
  size_t fd_index = 0;
  ElementRef element;
  /// Post-AOF likelihood in (0, 1].
  double score = 1.0;
  /// ln(score), precomputed once — scoring sums these on every walk.
  double log_score = 0.0;
  /// Indices into FactorGraph::variables() — a contiguous ascending range
  /// (every element kind covers one). Points into the graph's pool; valid
  /// exactly as long as the graph.
  std::span<const size_t> variables;
};

/// A compiled, scored factor graph over one scene's tracks. Move-only (the
/// node adjacency spans alias graph-owned pools).
class FactorGraph {
 public:
  /// Compiles `tracks` against `spec`. Every applicable feature is
  /// evaluated eagerly and stored on its factor. When `shared_scores` is
  /// non-null, raw (pre-AOF) likelihoods are read through it — so several
  /// applications compiling over the same track set (ScenePass) evaluate
  /// each learned feature once; the caller must keep the cache paired with
  /// this exact track set. Scores are identical with or without a cache.
  ///
  /// Errors: InvalidArgument if a track contains an empty bundle.
  static Result<FactorGraph> Compile(
      const TrackSet& tracks, const LoaSpec& spec, double frame_rate_hz,
      FeatureScoreCache* shared_scores = nullptr);

  FactorGraph(const FactorGraph&) = delete;
  FactorGraph& operator=(const FactorGraph&) = delete;
  FactorGraph(FactorGraph&&) = default;
  FactorGraph& operator=(FactorGraph&&) = default;

  const TrackSet& tracks() const { return tracks_; }
  const std::vector<VariableNode>& variables() const { return variables_; }
  const std::vector<FactorNode>& factors() const { return factors_; }

  /// Variable index for the observation at (track, bundle, obs); nullopt
  /// on out-of-range indices (queries never abort — the graph may have
  /// been compiled from untrusted input).
  std::optional<size_t> VariableIndex(size_t track_index, size_t bundle_index,
                                      size_t obs_index) const;

  /// Sum of ln(score) over the factors adjacent to the given variables,
  /// counting each factor once, divided by the number of such factors
  /// (Section 6). With normalize=false the raw sum is returned instead —
  /// only the normalization ablation uses this; it makes components of
  /// different sizes incomparable, which is exactly what Section 6's
  /// normalization exists to fix. nullopt when no factor touches the set.
  std::optional<double> ScoreVariableSet(
      const std::vector<size_t>& variable_indices,
      bool normalize = true) const;

  /// Component scores at the three granularities the applications rank.
  /// Out-of-range indices yield nullopt, never an abort.
  std::optional<double> ScoreTrack(size_t track_index,
                                   bool normalize = true) const;
  std::optional<double> ScoreBundle(size_t track_index,
                                    size_t bundle_index) const;
  std::optional<double> ScoreObservation(size_t variable_index) const;

  /// Structural self-check: edges are consistent and the graph is
  /// bipartite (factor adjacency lists reference valid variables and vice
  /// versa). Returns the first violation.
  Status Validate() const;

  /// Human-readable structure dump (used by the Figure 2 bench).
  std::string ToString() const;

 private:
  FactorGraph() = default;

  /// Shared scoring core; the public entry points adapt to it.
  std::optional<double> ScoreVariableSpan(std::span<const size_t> variables,
                                          bool normalize) const;

  TrackSet tracks_;
  std::vector<VariableNode> variables_;
  std::vector<FactorNode> factors_;
  /// variable_offsets_[t][b] = variable index of observation 0 in bundle b
  /// of track t.
  std::vector<std::vector<size_t>> variable_offsets_;
  /// The identity permutation [0, variables_.size()): FactorNode::variables
  /// spans slice it, since every factor covers a contiguous variable range.
  std::vector<size_t> variable_iota_;
  /// CSR pool behind VariableNode::factors, variable-major.
  std::vector<size_t> var_factor_pool_;
};

}  // namespace fixy

#endif  // FIXY_GRAPH_FACTOR_GRAPH_H_
