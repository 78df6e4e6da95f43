// Feature interfaces of the LOA DSL (Section 5.1 of the paper).
//
// A feature maps an element of a scene to a scalar; Fixy learns a
// distribution over each feature from existing labels and scores new data
// by likelihood. The paper defines four feature types:
//   1. observation features   (e.g. box volume),
//   2. bundle features        (e.g. "only model predictions present"),
//   3. transition features    (e.g. velocity between adjacent bundles),
//   4. track features         (e.g. number of observations).
//
// Users extend Fixy exactly as in the paper's Python snippets: subclass the
// appropriate interface and override Compute (typically < 6 lines of code;
// see core/features_std.h for the paper's Table 2 features and
// examples/custom_features.cpp for a user-defined one).
#ifndef FIXY_DSL_FEATURE_H_
#define FIXY_DSL_FEATURE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/observation.h"
#include "data/track.h"
#include "geometry/vec.h"

namespace fixy {

/// Context handed to feature computation: the ego pose at the element's
/// frame and the scene's frame rate (needed e.g. to convert per-frame
/// displacement into m/s).
struct FeatureContext {
  geom::Vec2 ego_position;
  double frame_rate_hz = 10.0;
};

/// Which scene element a feature applies to.
enum class FeatureKind {
  kObservation = 0,
  kBundle = 1,
  kTransition = 2,
  kTrack = 3,
};

const char* FeatureKindToString(FeatureKind kind);

/// Base class of all features.
class Feature {
 public:
  virtual ~Feature() = default;

  /// Stable name used to key learned distributions (e.g. "volume").
  virtual std::string name() const = 0;

  virtual FeatureKind kind() const = 0;

  /// If true, a separate distribution is learned per object class
  /// (Table 2 marks volume and velocity class-conditional).
  virtual bool class_conditional() const { return false; }
};

/// A feature over a single observation. Compute returns nullopt when the
/// feature does not apply to the given observation (such elements simply
/// contribute no factor).
class ObservationFeature : public Feature {
 public:
  FeatureKind kind() const final { return FeatureKind::kObservation; }

  virtual std::optional<double> Compute(const Observation& obs,
                                        const FeatureContext& ctx) const = 0;
};

/// A feature over an observation bundle (all observations of one object in
/// one frame).
class BundleFeature : public Feature {
 public:
  FeatureKind kind() const final { return FeatureKind::kBundle; }

  virtual std::optional<double> Compute(const ObservationBundle& bundle,
                                        const FeatureContext& ctx) const = 0;
};

/// A feature over two adjacent bundles within a track.
class TransitionFeature : public Feature {
 public:
  FeatureKind kind() const final { return FeatureKind::kTransition; }

  virtual std::optional<double> Compute(const ObservationBundle& from,
                                        const ObservationBundle& to,
                                        const FeatureContext& ctx) const = 0;
};

/// A feature over an entire track.
class TrackFeature : public Feature {
 public:
  FeatureKind kind() const final { return FeatureKind::kTrack; }

  virtual std::optional<double> Compute(const Track& track,
                                        const FeatureContext& ctx) const = 0;
};

using FeaturePtr = std::shared_ptr<const Feature>;

/// The one walk of a feature over a track, shared by learning and scoring
/// (Sections 5.2 and 6 apply the same values). Calls
/// `fn(std::optional<double> value, std::optional<ObjectClass> cls)` once
/// per element `feature` covers, in this order:
///   kObservation — every observation, bundle-major;
///   kBundle      — every bundle;
///   kTransition  — every adjacent bundle pair, as (from, to);
///   kTrack       — the track itself, once (never for a bundle-less track).
/// This is also the order of RawTrackScores' entries and of the factors
/// FactorGraph::Compile instantiates. Each element is computed with its
/// bundle's ego position (the first bundle's for a track, the from
/// bundle's for a transition) and is handed the class its distribution is
/// looked up under: the observation's own, the bundle's majority (the
/// from bundle's for a transition) or the track's majority.
///
/// `value` is nullopt where the feature does not apply. A non-finite value
/// (an inf volume from a huge but valid box) is passed on as is: scoring
/// gives it likelihood 0 (FeatureDistribution::RawScore), and learning
/// skips it, since it carries nothing an estimator can fit.
template <typename Fn>
void ForEachFeatureValue(const Feature& feature, const Track& track,
                         double frame_rate_hz, Fn&& fn) {
  const std::vector<ObservationBundle>& bundles = track.bundles();
  FeatureContext ctx;
  ctx.frame_rate_hz = frame_rate_hz;
  switch (feature.kind()) {
    case FeatureKind::kObservation: {
      const auto& f = static_cast<const ObservationFeature&>(feature);
      for (const ObservationBundle& bundle : bundles) {
        ctx.ego_position = bundle.ego_position;
        for (const Observation& obs : bundle.observations) {
          const std::optional<ObjectClass> cls = obs.object_class;
          fn(f.Compute(obs, ctx), cls);
        }
      }
      return;
    }
    case FeatureKind::kBundle: {
      const auto& f = static_cast<const BundleFeature&>(feature);
      for (const ObservationBundle& bundle : bundles) {
        ctx.ego_position = bundle.ego_position;
        fn(f.Compute(bundle, ctx), bundle.MajorityClass());
      }
      return;
    }
    case FeatureKind::kTransition: {
      const auto& f = static_cast<const TransitionFeature&>(feature);
      for (size_t b = 0; b + 1 < bundles.size(); ++b) {
        ctx.ego_position = bundles[b].ego_position;
        fn(f.Compute(bundles[b], bundles[b + 1], ctx),
           bundles[b].MajorityClass());
      }
      return;
    }
    case FeatureKind::kTrack: {
      if (bundles.empty()) return;
      ctx.ego_position = bundles.front().ego_position;
      fn(static_cast<const TrackFeature&>(feature).Compute(track, ctx),
         track.MajorityClass());
      return;
    }
  }
}

}  // namespace fixy

#endif  // FIXY_DSL_FEATURE_H_
