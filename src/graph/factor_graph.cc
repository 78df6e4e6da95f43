#include "graph/factor_graph.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace fixy {

Result<FactorGraph> FactorGraph::Compile(const TrackSet& tracks,
                                         const LoaSpec& spec,
                                         double frame_rate_hz,
                                         FeatureScoreCache* shared_scores) {
  FactorGraph graph;
  graph.tracks_ = tracks;

  // Create variable nodes and the (track, bundle) -> variable offset table.
  graph.variable_offsets_.resize(tracks.tracks.size());
  for (size_t t = 0; t < tracks.tracks.size(); ++t) {
    const Track& track = tracks.tracks[t];
    graph.variable_offsets_[t].resize(track.bundles().size());
    for (size_t b = 0; b < track.bundles().size(); ++b) {
      const ObservationBundle& bundle = track.bundles()[b];
      if (bundle.observations.empty()) {
        return Status::InvalidArgument(
            StrFormat("track %zu bundle %zu is empty", t, b));
      }
      graph.variable_offsets_[t][b] = graph.variables_.size();
      for (size_t o = 0; o < bundle.observations.size(); ++o) {
        VariableNode node;
        node.obs_id = bundle.observations[o].id;
        node.track_index = t;
        node.bundle_index = b;
        node.obs_index = o;
        graph.variables_.push_back(node);
      }
    }
  }

  // The identity permutation every factor's variable span slices. Sized
  // once here; factor spans alias it, so it must never grow afterwards.
  graph.variable_iota_.resize(graph.variables_.size());
  for (size_t v = 0; v < graph.variable_iota_.size(); ++v) {
    graph.variable_iota_[v] = v;
  }

  // Instantiate factors. Variables are created bundle-major, so every
  // element kind covers the contiguous range [first_var, first_var+count):
  // an observation is one variable, a bundle is its observation run, a
  // transition is two *adjacent* bundle runs, and a track is all of its
  // bundle runs back to back.
  auto add_factor = [&graph](size_t fd_index, ElementRef element, double score,
                             size_t first_var, size_t var_count) {
    FactorNode factor;
    factor.fd_index = fd_index;
    factor.element = element;
    factor.score = score;
    factor.log_score = std::log(score);
    factor.variables = std::span<const size_t>(
        graph.variable_iota_.data() + first_var, var_count);
    graph.factors_.push_back(factor);
  };

  for (size_t fd_index = 0; fd_index < spec.feature_distributions.size();
       ++fd_index) {
    const FeatureDistribution& fd = spec.feature_distributions[fd_index];
    for (size_t t = 0; t < tracks.tracks.size(); ++t) {
      const Track& track = tracks.tracks[t];
      // Raw (pre-AOF) likelihoods for this (feature distribution, track)
      // pair, either shared across applications through the scene's cache
      // or computed locally (into a reused thread-local, so the uncached
      // path does not allocate per pair either). Their entries follow
      // ForEachFeatureValue's element order, which the instantiation
      // below walks again for the elements' variable ranges; the AOF and
      // score floor are applied here, per factor.
      thread_local RawTrackScores local;
      if (shared_scores == nullptr) {
        ComputeRawTrackScores(fd, track, frame_rate_hz, &local);
      }
      const RawTrackScores& raw =
          shared_scores != nullptr ? shared_scores->Get(fd, track, t) : local;
      auto score_at = [&fd, &raw](size_t i) -> std::optional<double> {
        if (raw.engaged[i] == 0) return std::nullopt;
        return fd.ApplyAofAndFloor(raw.values[i]);
      };
      switch (fd.feature().kind()) {
        case FeatureKind::kObservation: {
          size_t i = 0;
          for (size_t b = 0; b < track.bundles().size(); ++b) {
            const ObservationBundle& bundle = track.bundles()[b];
            for (size_t o = 0; o < bundle.observations.size(); ++o, ++i) {
              const std::optional<double> score = score_at(i);
              if (!score.has_value()) continue;
              add_factor(fd_index, {FeatureKind::kObservation, t, b, o},
                         *score, graph.variable_offsets_[t][b] + o, 1);
            }
          }
          break;
        }
        case FeatureKind::kBundle: {
          for (size_t b = 0; b < track.bundles().size(); ++b) {
            const ObservationBundle& bundle = track.bundles()[b];
            const std::optional<double> score = score_at(b);
            if (!score.has_value()) continue;
            add_factor(fd_index, {FeatureKind::kBundle, t, b, 0}, *score,
                       graph.variable_offsets_[t][b],
                       bundle.observations.size());
          }
          break;
        }
        case FeatureKind::kTransition: {
          for (size_t b = 0; b + 1 < track.bundles().size(); ++b) {
            const ObservationBundle& from = track.bundles()[b];
            const ObservationBundle& to = track.bundles()[b + 1];
            const std::optional<double> score = score_at(b);
            if (!score.has_value()) continue;
            add_factor(fd_index, {FeatureKind::kTransition, t, b, 0}, *score,
                       graph.variable_offsets_[t][b],
                       from.observations.size() + to.observations.size());
          }
          break;
        }
        case FeatureKind::kTrack: {
          if (raw.empty()) break;
          const std::optional<double> score = score_at(0);
          if (!score.has_value()) break;
          size_t var_count = 0;
          for (size_t b = 0; b < track.bundles().size(); ++b) {
            var_count += track.bundles()[b].observations.size();
          }
          add_factor(fd_index, {FeatureKind::kTrack, t, 0, 0}, *score,
                     graph.variable_offsets_[t][0], var_count);
          break;
        }
      }
    }
  }

  // Build the variable -> factor CSR adjacency with a counting sort. The
  // single scratch array is a per-thread vector that keeps its capacity
  // across scenes: degree counts turn into start offsets, the fill pass
  // advances them to end offsets, and the span pass reads starts back from
  // the previous slot.
  thread_local std::vector<size_t> cursor;
  const size_t num_vars = graph.variables_.size();
  cursor.assign(num_vars, 0);
  size_t total_edges = 0;
  for (const FactorNode& factor : graph.factors_) {
    total_edges += factor.variables.size();
    for (size_t v : factor.variables) ++cursor[v];
  }
  size_t running = 0;
  for (size_t v = 0; v < num_vars; ++v) {
    const size_t degree = cursor[v];
    cursor[v] = running;
    running += degree;
  }
  graph.var_factor_pool_.resize(total_edges);
  for (size_t f = 0; f < graph.factors_.size(); ++f) {
    for (size_t v : graph.factors_[f].variables) {
      graph.var_factor_pool_[cursor[v]++] = f;
    }
  }
  for (size_t v = 0; v < num_vars; ++v) {
    const size_t end = cursor[v];
    const size_t start = v == 0 ? 0 : cursor[v - 1];
    graph.variables_[v].factors = std::span<const size_t>(
        graph.var_factor_pool_.data() + start, end - start);
  }
  return graph;
}

std::optional<size_t> FactorGraph::VariableIndex(size_t track_index,
                                                 size_t bundle_index,
                                                 size_t obs_index) const {
  if (track_index >= variable_offsets_.size()) return std::nullopt;
  if (bundle_index >= variable_offsets_[track_index].size()) {
    return std::nullopt;
  }
  if (obs_index >= tracks_.tracks[track_index]
                       .bundles()[bundle_index]
                       .observations.size()) {
    return std::nullopt;
  }
  return variable_offsets_[track_index][bundle_index] + obs_index;
}

std::optional<double> FactorGraph::ScoreVariableSpan(
    std::span<const size_t> variable_indices, bool normalize) const {
  // Distinct-factor dedup by epoch stamp: one shared per-thread stamp
  // array, grown to the largest factor count seen, where "stamped this
  // call" is equality with the call's epoch — no clearing between calls,
  // no per-call allocation. On epoch wrap the array is zeroed once.
  thread_local std::vector<uint32_t> stamps;
  thread_local uint32_t epoch = 0;
  if (stamps.size() < factors_.size()) stamps.resize(factors_.size(), 0);
  if (++epoch == 0) {
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }
  double sum = 0.0;
  size_t distinct = 0;
  for (size_t v : variable_indices) {
    if (v >= variables_.size()) return std::nullopt;
    for (size_t f : variables_[v].factors) {
      if (stamps[f] == epoch) continue;
      stamps[f] = epoch;
      sum += factors_[f].log_score;
      ++distinct;
    }
  }
  if (distinct == 0) return std::nullopt;
  if (!normalize) return sum;
  return sum / static_cast<double>(distinct);
}

std::optional<double> FactorGraph::ScoreVariableSet(
    const std::vector<size_t>& variable_indices, bool normalize) const {
  return ScoreVariableSpan(
      std::span<const size_t>(variable_indices.data(),
                              variable_indices.size()),
      normalize);
}

std::optional<double> FactorGraph::ScoreTrack(size_t track_index,
                                              bool normalize) const {
  if (track_index >= tracks_.tracks.size()) return std::nullopt;
  const Track& track = tracks_.tracks[track_index];
  if (track.bundles().empty()) return std::nullopt;
  size_t var_count = 0;
  for (size_t b = 0; b < track.bundles().size(); ++b) {
    var_count += track.bundles()[b].observations.size();
  }
  const size_t first = variable_offsets_[track_index][0];
  return ScoreVariableSpan(
      std::span<const size_t>(variable_iota_.data() + first, var_count),
      normalize);
}

std::optional<double> FactorGraph::ScoreBundle(size_t track_index,
                                               size_t bundle_index) const {
  if (track_index >= tracks_.tracks.size()) return std::nullopt;
  const Track& track = tracks_.tracks[track_index];
  if (bundle_index >= track.bundles().size()) return std::nullopt;
  const size_t first = variable_offsets_[track_index][bundle_index];
  return ScoreVariableSpan(
      std::span<const size_t>(
          variable_iota_.data() + first,
          track.bundles()[bundle_index].observations.size()),
      /*normalize=*/true);
}

std::optional<double> FactorGraph::ScoreObservation(
    size_t variable_index) const {
  return ScoreVariableSpan(std::span<const size_t>(&variable_index, 1),
                           /*normalize=*/true);
}

Status FactorGraph::Validate() const {
  for (size_t f = 0; f < factors_.size(); ++f) {
    const FactorNode& factor = factors_[f];
    if (factor.variables.empty()) {
      return Status::Internal(StrFormat("factor %zu has no variables", f));
    }
    if (!(factor.score > 0.0) || factor.score > 1.0) {
      return Status::Internal(
          StrFormat("factor %zu score %.9g out of (0, 1]", f, factor.score));
    }
    for (size_t v : factor.variables) {
      if (v >= variables_.size()) {
        return Status::Internal(
            StrFormat("factor %zu references invalid variable %zu", f, v));
      }
      const auto& var_factors = variables_[v].factors;
      if (std::find(var_factors.begin(), var_factors.end(), f) ==
          var_factors.end()) {
        return Status::Internal(
            StrFormat("edge %zu-%zu missing reverse direction", f, v));
      }
    }
  }
  for (size_t v = 0; v < variables_.size(); ++v) {
    for (size_t f : variables_[v].factors) {
      if (f >= factors_.size()) {
        return Status::Internal(
            StrFormat("variable %zu references invalid factor %zu", v, f));
      }
      const auto& factor_vars = factors_[f].variables;
      if (std::find(factor_vars.begin(), factor_vars.end(), v) ==
          factor_vars.end()) {
        return Status::Internal(
            StrFormat("edge %zu-%zu missing forward direction", v, f));
      }
    }
  }
  return Status::Ok();
}

std::string FactorGraph::ToString() const {
  std::string out = StrFormat("FactorGraph: %zu variables, %zu factors\n",
                              variables_.size(), factors_.size());
  for (size_t v = 0; v < variables_.size(); ++v) {
    const VariableNode& node = variables_[v];
    const ObservationBundle& bundle =
        tracks_.tracks[node.track_index].bundles()[node.bundle_index];
    const Observation& obs = bundle.observations[node.obs_index];
    out += StrFormat(
        "  var %zu: track %zu bundle %zu obs %llu %s %s @f%d conf=%.2f\n", v,
        node.track_index, node.bundle_index,
        static_cast<unsigned long long>(obs.id),
        ObservationSourceToString(obs.source),
        ObjectClassToString(obs.object_class), bundle.frame_index,
        obs.confidence);
  }
  for (size_t f = 0; f < factors_.size(); ++f) {
    const FactorNode& factor = factors_[f];
    out += StrFormat("  factor %zu: fd=%zu kind=%s t=%zu b=%zu score=%.4f ->",
                     f, factor.fd_index,
                     FeatureKindToString(factor.element.kind),
                     factor.element.track_index, factor.element.bundle_index,
                     factor.score);
    for (size_t v : factor.variables) {
      out += StrFormat(" %zu", v);
    }
    out += "\n";
  }
  return out;
}

}  // namespace fixy
