// Extending Fixy with user-defined features and association rules — the
// C++ equivalent of the paper's Section 3 Python snippets:
//
//   class TrackBundler(Bundler):
//     def is_associated(self, box1, box2):
//       return compute_iou(box1, box2) > 0.5
//
//   class VolumeDistribution(KDEObsDistribution):
//     def feature(self, box):
//       return box.width * box.height * box.length
//
// This example defines (1) a custom aspect-ratio observation feature, (2)
// a custom heading-change transition feature, and (3) a center-distance
// bundler, wires them into the engine via FixyOptions::extra_features, and
// shows they participate in ranking.
#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "core/ranker.h"
#include "sim/generate.h"

namespace {

using namespace fixy;

// (1) An observation feature: footprint aspect ratio (length / width),
// class-conditional. Anomalously proportioned boxes (e.g. a "car" twice as
// long as usual) become unlikely under the learned distribution.
class AspectRatioFeature final : public ObservationFeature {
 public:
  std::string name() const override { return "aspect_ratio"; }
  bool class_conditional() const override { return true; }
  std::optional<double> Compute(const Observation& obs,
                                const FeatureContext&) const override {
    if (obs.box.width <= 0.0) return std::nullopt;
    return obs.box.length / obs.box.width;
  }
};

// (2) A transition feature: absolute heading change between adjacent
// bundles in degrees. Real vehicles turn smoothly; ghosts spin.
class HeadingChangeFeature final : public TransitionFeature {
 public:
  std::string name() const override { return "heading_change"; }
  std::optional<double> Compute(const ObservationBundle& from,
                                const ObservationBundle& to,
                                const FeatureContext&) const override {
    if (from.observations.empty() || to.observations.empty()) {
      return std::nullopt;
    }
    double delta =
        to.observations.front().box.yaw - from.observations.front().box.yaw;
    while (delta > M_PI) delta -= 2.0 * M_PI;
    while (delta < -M_PI) delta += 2.0 * M_PI;
    return std::abs(delta) * 180.0 / M_PI;
  }
};

// (3) A custom bundler: associate observations whose box centers are
// within a radius, instead of the default IoU rule.
class CenterDistanceBundler final : public Bundler {
 public:
  explicit CenterDistanceBundler(double radius_m) : radius_m_(radius_m) {}
  bool IsAssociated(const Observation& a,
                    const Observation& b) const override {
    return (a.box.center.Xy() - b.box.center.Xy()).Norm() < radius_m_;
  }

 private:
  double radius_m_;
};

}  // namespace

int main() {
  const sim::SimProfile profile = sim::LyftLikeProfile();
  const auto training =
      sim::GenerateDataset(profile, "training", /*count=*/6, /*seed=*/42);

  // Wire the custom pieces into the engine.
  FixyOptions options;
  options.extra_features.push_back(std::make_shared<AspectRatioFeature>());
  options.extra_features.push_back(std::make_shared<HeadingChangeFeature>());
  options.application.track_builder.bundler =
      std::make_shared<CenterDistanceBundler>(1.5);
  options.learner.track_builder.bundler =
      std::make_shared<CenterDistanceBundler>(1.5);

  Fixy fixy(std::move(options));
  if (const Status s = fixy.Learn(training.dataset); !s.ok()) {
    std::fprintf(stderr, "learning failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("learned feature distributions:\n");
  for (const FeatureDistribution& fd : fixy.learned_features()) {
    std::printf("  %-16s (%s feature%s)\n", fd.feature().name().c_str(),
                FeatureKindToString(fd.feature().kind()),
                fd.feature().class_conditional() ? ", class-conditional"
                                                 : "");
  }

  // Rank a fresh scene with the extended feature set.
  const auto scene = sim::GenerateScene(profile, "validation", 9001);
  const auto proposals = fixy.Find(scene.scene, "missing-tracks");
  if (!proposals.ok()) {
    std::fprintf(stderr, "ranking failed: %s\n",
                 proposals.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntop 5 missing-track candidates under the custom DSL "
              "configuration:\n");
  int rank = 1;
  for (const ErrorProposal& p : TopK(*proposals, 5)) {
    std::printf("  #%d %s\n", rank++, p.ToString().c_str());
  }
  return 0;
}
