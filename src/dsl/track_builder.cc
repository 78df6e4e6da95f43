#include "dsl/track_builder.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "geometry/iou.h"

namespace fixy {

namespace {

// Union-find over observation indices within one frame.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

// Groups the view's observations (`indices`, ascending frame-local
// indices) into bundles, given the associated pairs of the frame
// restricted to the view. Equivalent to running the bundler's relation
// over a frame that contains only the view's observations: the relation
// is evaluated per pair, so restricting the observation set restricts the
// association graph to its induced subgraph.
//
// `representatives` receives, per bundle, the frame-local index of the
// observation that represents it when matching across frames: its first
// model prediction (model boxes exist in every application of Section
// 7), otherwise its first observation.
std::vector<ObservationBundle> BundleSubset(
    const Frame& frame, const std::vector<size_t>& indices,
    const std::vector<std::pair<size_t, size_t>>& pairs,
    std::vector<size_t>& representatives) {
  const auto& observations = frame.observations;
  std::vector<int> local_of(observations.size(), -1);
  for (size_t k = 0; k < indices.size(); ++k) {
    local_of[indices[k]] = static_cast<int>(k);
  }
  DisjointSet components(indices.size());
  for (const auto& [i, j] : pairs) {
    components.Union(static_cast<size_t>(local_of[i]),
                     static_cast<size_t>(local_of[j]));
  }
  // Collect members per component root, preserving observation order.
  std::vector<ObservationBundle> bundles;
  representatives.clear();
  std::vector<int> root_to_bundle(indices.size(), -1);
  for (size_t k = 0; k < indices.size(); ++k) {
    const size_t root = components.Find(k);
    const size_t index = indices[k];
    if (root_to_bundle[root] < 0) {
      root_to_bundle[root] = static_cast<int>(bundles.size());
      ObservationBundle bundle;
      bundle.frame_index = frame.index;
      bundle.timestamp = frame.timestamp;
      bundle.ego_position = frame.ego_position;
      bundles.push_back(std::move(bundle));
      representatives.push_back(index);
    }
    const size_t b = static_cast<size_t>(root_to_bundle[root]);
    size_t& representative = representatives[b];
    if (observations[representative].source != ObservationSource::kModel &&
        observations[index].source == ObservationSource::kModel) {
      representative = index;
    }
    bundles[b].observations.push_back(observations[index]);
  }
  return bundles;
}

// Cross-frame linking state for one view: greedy best-IoU matching of a
// frame's bundles against the open tracks, identical for every view. Each
// open track keeps the footprint of its last bundle's representative, and
// a frame's bundles are matched on their representatives' footprints
// (`footprints[representatives[b]]`).
class TrackLinker {
 public:
  void AddFrame(const Frame& frame, std::vector<ObservationBundle> bundles,
                const std::vector<size_t>& representatives,
                const std::vector<geom::BevFootprint>& footprints) {
    // Candidate (track, bundle) pairs with IoU above the link threshold.
    struct Candidate {
      double iou;
      size_t track_index;
      size_t bundle_index;
    };
    std::vector<Candidate> candidates;
    for (size_t t = 0; t < open_.size(); ++t) {
      const geom::BevFootprint& last = open_[t].footprint;
      for (size_t b = 0; b < bundles.size(); ++b) {
        const double iou =
            geom::BevIou(last, footprints[representatives[b]]);
        if (iou > kTrackIouThreshold) {
          candidates.push_back({iou, t, b});
        }
      }
    }
    // Greedy best-IoU matching: take pairs in descending IoU, each track
    // and bundle used at most once.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.iou != b.iou) return a.iou > b.iou;
                if (a.track_index != b.track_index) {
                  return a.track_index < b.track_index;
                }
                return a.bundle_index < b.bundle_index;
              });
    std::vector<bool> track_used(open_.size(), false);
    std::vector<bool> bundle_used(bundles.size(), false);
    for (const Candidate& c : candidates) {
      if (track_used[c.track_index] || bundle_used[c.bundle_index]) continue;
      track_used[c.track_index] = true;
      bundle_used[c.bundle_index] = true;
      OpenTrack& open = open_[c.track_index];
      open.track.AddBundle(std::move(bundles[c.bundle_index]));
      open.footprint = footprints[representatives[c.bundle_index]];
      open.last_matched_frame = frame.index;
    }
    // Unmatched bundles start new tracks.
    for (size_t b = 0; b < bundles.size(); ++b) {
      if (bundle_used[b]) continue;
      OpenTrack fresh;
      fresh.track.set_id(next_track_id_++);
      fresh.track.AddBundle(std::move(bundles[b]));
      fresh.footprint = footprints[representatives[b]];
      fresh.last_matched_frame = frame.index;
      open_.push_back(std::move(fresh));
    }
    // Close tracks that have not matched within the gap allowance.
    std::vector<OpenTrack> still_open;
    still_open.reserve(open_.size());
    for (OpenTrack& t : open_) {
      if (frame.index - t.last_matched_frame > kMaxGapFrames) {
        result_.tracks.push_back(std::move(t.track));
      } else {
        still_open.push_back(std::move(t));
      }
    }
    open_ = std::move(still_open);
  }

  TrackSet Finish(const std::string& scene_name) {
    for (OpenTrack& t : open_) {
      result_.tracks.push_back(std::move(t.track));
    }
    open_.clear();
    result_.scene_name = scene_name;
    // Deterministic output order: by track id.
    std::sort(result_.tracks.begin(), result_.tracks.end(),
              [](const Track& a, const Track& b) { return a.id() < b.id(); });
    return std::move(result_);
  }

 private:
  struct OpenTrack {
    Track track;
    // The footprint of the last bundle's representative observation.
    geom::BevFootprint footprint;
    int last_matched_frame = 0;
  };

  std::vector<OpenTrack> open_;
  TrackId next_track_id_ = 0;
  TrackSet result_;
};

}  // namespace

const TrackSet& AssociationViews::view(SceneView v) const {
  const std::optional<TrackSet>& tracks =
      v == SceneView::kFull ? full : model_only;
  FIXY_CHECK(tracks.has_value());
  return *tracks;
}

TrackBuilder::TrackBuilder(TrackBuilderOptions options)
    : options_(std::move(options)) {
  if (options_.bundler == nullptr) {
    options_.bundler = std::make_shared<IouBundler>(0.5);
  }
}

Result<TrackSet> TrackBuilder::Build(const Scene& scene) const {
  FIXY_ASSIGN_OR_RETURN(AssociationViews views,
                        BuildViews(scene, /*need_full=*/true,
                                   /*need_model_only=*/false));
  return std::move(*views.full);
}

Result<AssociationViews> TrackBuilder::BuildViews(const Scene& scene,
                                                  bool need_full,
                                                  bool need_model_only) const {
  FIXY_CHECK(need_full || need_model_only);
  FIXY_RETURN_IF_ERROR(scene.Validate());

  // The default IouBundler's relation is BevIou > threshold, which the
  // sweep evaluates on the frame's footprints, bit for bit what
  // IsAssociated computes from the boxes. Any other bundler is asked per
  // pair, as the DSL allows.
  const Bundler& bundler = *options_.bundler;
  const auto* iou_bundler = dynamic_cast<const IouBundler*>(&bundler);
  TrackLinker full_linker;
  TrackLinker model_linker;

  // Scratch buffers reused across frames. They are locals of the call,
  // not shared state: rank workers build views concurrently.
  std::vector<geom::BevFootprint> footprints;
  std::vector<size_t> all_indices;
  std::vector<size_t> model_indices;
  std::vector<size_t> representatives;
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<std::pair<size_t, size_t>> model_pairs;

  for (const Frame& frame : scene.frames()) {
    const auto& observations = frame.observations;
    model_indices.clear();
    for (size_t i = 0; i < observations.size(); ++i) {
      if (observations[i].source == ObservationSource::kModel) {
        model_indices.push_back(i);
      }
    }
    all_indices.resize(observations.size());
    std::iota(all_indices.begin(), all_indices.end(), 0);

    // One footprint per observation the sweep visits, indexed like
    // `observations`: both the in-frame pairs and the linkers read them.
    // When only the model view is wanted, human observations get none and
    // human-involving pairs are never evaluated.
    const std::vector<size_t>& swept = need_full ? all_indices : model_indices;
    footprints.resize(observations.size());
    for (const size_t i : swept) {
      footprints[i] = geom::BevFootprint(observations[i].box);
    }

    // One pairwise sweep per frame, shared by every view, in
    // lexicographic pair order.
    pairs.clear();
    for (size_t a = 0; a < swept.size(); ++a) {
      for (size_t b = a + 1; b < swept.size(); ++b) {
        const size_t i = swept[a];
        const size_t j = swept[b];
        const bool associated =
            iou_bundler != nullptr
                ? geom::BevIou(footprints[i], footprints[j]) >
                      iou_bundler->iou_threshold()
                : bundler.IsAssociated(observations[i], observations[j]);
        if (associated) pairs.emplace_back(i, j);
      }
    }

    if (need_full) {
      std::vector<ObservationBundle> bundles =
          BundleSubset(frame, all_indices, pairs, representatives);
      full_linker.AddFrame(frame, std::move(bundles), representatives,
                           footprints);
    }
    if (need_model_only) {
      const std::vector<std::pair<size_t, size_t>>* view_pairs = &pairs;
      if (need_full) {
        // Restrict the shared pair results to the model-model subgraph;
        // the sweep order preserves lexicographic pair order.
        model_pairs.clear();
        for (const auto& [i, j] : pairs) {
          if (observations[i].source == ObservationSource::kModel &&
              observations[j].source == ObservationSource::kModel) {
            model_pairs.emplace_back(i, j);
          }
        }
        view_pairs = &model_pairs;
      }
      std::vector<ObservationBundle> bundles =
          BundleSubset(frame, model_indices, *view_pairs, representatives);
      model_linker.AddFrame(frame, std::move(bundles), representatives,
                            footprints);
    }
  }

  AssociationViews views;
  if (need_full) views.full = full_linker.Finish(scene.name());
  if (need_model_only) views.model_only = model_linker.Finish(scene.name());
  return views;
}

}  // namespace fixy
