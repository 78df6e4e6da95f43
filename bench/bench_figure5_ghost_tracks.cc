// Regenerates the qualitative score separations of Figures 5, 7, and 9:
//
//   Figure 5: an inconsistent ("ghost") model track gets a much lower
//             plausibility than a consistent track.
//   Figure 7: a bundle whose members strongly disagree (a person box
//             overlapping a truck box) gets a low probability, while a
//             consistent bundle (Figure 6) scores high.
//   Figure 9: under the inverted AOF of the model-error application, an
//             overlapping-but-inconsistent prediction track — which the
//             appear/flicker/multibox assertions cannot flag — ranks at
//             the top.
#include <cstdio>

#include "baselines/model_assertions.h"
#include "common/random.h"
#include "core/features_std.h"
#include "core/ranker.h"
#include "dsl/track_builder.h"
#include "eval/report.h"
#include "graph/factor_graph.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source,
                    ObjectClass cls, geom::Box3d box, double confidence) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = cls;
  obs.box = box;
  obs.confidence = confidence;
  return obs;
}

// The factor score `fd` gives one bundle: its feature value, scored under
// the bundle's majority class, through the AOF and floor.
std::optional<double> BundleScore(const FeatureDistribution& fd,
                                  const ObservationBundle& bundle,
                                  const FeatureContext& ctx) {
  const auto& feature = static_cast<const BundleFeature&>(fd.feature());
  const std::optional<double> raw =
      fd.RawScore(feature.Compute(bundle, ctx), bundle.MajorityClass());
  if (!raw.has_value()) return std::nullopt;
  return fd.ApplyAofAndFloor(*raw);
}

geom::Box3d CarBox(double x, double y, double scale = 1.0) {
  return geom::Box3d({x, y, 0.85}, 4.6 * scale, 1.9 * scale, 1.7 * scale,
                     0.0);
}

// A consistent model-only car track: smooth motion, stable size.
void AddConsistentTrack(Scene* scene, ObservationId* id) {
  for (int f = 0; f < 10; ++f) {
    scene->frames()[static_cast<size_t>(f)].observations.push_back(
        MakeObs((*id)++, ObservationSource::kModel, ObjectClass::kCar,
                CarBox(10.0 + 0.8 * f, -2.0), 0.9));
  }
}

// A ghost track: overlapping frame-to-frame (so it assembles into one
// track and never flickers) but erratic in size — the Figure 9 signature.
void AddGhostTrack(Scene* scene, ObservationId* id, Rng* rng) {
  double x = 30.0;
  double y = 6.0;
  for (int f = 2; f < 9; ++f) {
    x += rng->Normal(0.25, 0.3);
    y += rng->Normal(0.0, 0.4);
    const double scale = 1.0 + rng->Normal(0.0, 0.3);
    scene->frames()[static_cast<size_t>(f)].observations.push_back(
        MakeObs((*id)++, ObservationSource::kModel, ObjectClass::kCar,
                CarBox(x, y, std::max(0.4, scale)), 0.88));
  }
}

Scene BuildScene() {
  Scene scene("figures_5_7_9", 10.0);
  for (int f = 0; f < 10; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0.8 * f, 0.0};
    scene.AddFrame(std::move(frame));
  }
  ObservationId id = 1;
  Rng rng(99);
  AddConsistentTrack(&scene, &id);
  AddGhostTrack(&scene, &id, &rng);
  return scene;
}

void Run() {
  PrintHeader("Figures 5/7/9: likely vs unlikely tracks and bundles");
  const TrainedPipeline pipeline =
      Train(sim::LyftLikeProfile(), kLyftTrainingScenes);

  // ---- Figures 4/5: track plausibility separation (identity AOF). ----
  const Scene scene = BuildScene();
  const TrackBuilder builder;
  const TrackSet tracks = builder.Build(scene).value();
  LoaSpec spec;
  for (const FeatureDistribution& fd : pipeline.fixy.learned_features()) {
    spec.feature_distributions.push_back(fd);
  }
  const FactorGraph graph =
      FactorGraph::Compile(tracks, spec, scene.frame_rate_hz()).value();

  eval::Table track_table(
      {"Track", "Frames", "Plausibility score (ln-likelihood)"});
  double consistent_score = 0.0;
  double ghost_score = 0.0;
  for (size_t t = 0; t < tracks.tracks.size(); ++t) {
    const Track& track = tracks.tracks[t];
    const double score = graph.ScoreTrack(t).value_or(-99.0);
    const bool is_consistent = track.FirstFrame() == 0;
    if (is_consistent) {
      consistent_score = score;
    } else {
      ghost_score = score;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", score);
    track_table.AddRow(
        {is_consistent ? "consistent (Figure 4-like)" : "ghost (Figure 5)",
         std::to_string(track.FirstFrame()) + ".." +
             std::to_string(track.LastFrame()),
         buf});
  }
  std::printf("%s", track_table.ToString().c_str());
  std::printf("separation: consistent - ghost = %.3f nats per factor "
              "(paper: consistent tracks score much higher)\n\n",
              consistent_score - ghost_score);

  // ---- Figures 6/7: bundle probability separation. ----
  // Learn the class-agreement categorical over {0, 1} (the paper's
  // Bernoulli) from training data, then compare a consistent car/car
  // bundle against a person-box-on-truck-box bundle.
  const sim::GeneratedDataset training = sim::GenerateDataset(
      sim::LyftLikeProfile(), "bundle_train", 4, kTrainingSeed);
  LearnerOptions learner_options;
  learner_options.estimator = EstimatorKind::kCategorical;
  // Class agreement is a cross-source feature: bundles with two or more
  // members only exist when human labels and model predictions are
  // associated together.
  learner_options.all_sources = true;
  const DistributionLearner learner(learner_options);
  const auto agreement_fd =
      learner
          .Learn(training.dataset,
                 {std::make_shared<ClassAgreementFeature>()})
          .value()
          .front();

  const FeatureContext ctx{{0.0, 0.0}, 10.0};
  ObservationBundle consistent;
  consistent.frame_index = 0;
  consistent.ego_position = {0, 0};
  consistent.observations = {
      MakeObs(1000, ObservationSource::kModel, ObjectClass::kCar,
              CarBox(12, 2), 0.9),
      MakeObs(1001, ObservationSource::kHuman, ObjectClass::kCar,
              CarBox(12.05, 2.02), 1.0)};
  ObservationBundle conflicted;
  conflicted.frame_index = 0;
  conflicted.ego_position = {0, 0};
  conflicted.observations = {
      MakeObs(1002, ObservationSource::kModel, ObjectClass::kPedestrian,
              geom::Box3d({12, 2, 0.9}, 0.8, 0.75, 1.8, 0.0), 0.7),
      MakeObs(1003, ObservationSource::kModel, ObjectClass::kTruck,
              geom::Box3d({12.1, 2, 1.6}, 8.0, 2.8, 3.2, 0.0), 0.8)};

  eval::Table bundle_table({"Bundle", "Class-agreement score"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f",
                BundleScore(agreement_fd, consistent, ctx).value_or(-1.0));
  bundle_table.AddRow({"consistent car/car (Figure 6)", buf});
  std::snprintf(buf, sizeof(buf), "%.4g",
                BundleScore(agreement_fd, conflicted, ctx).value_or(-1.0));
  bundle_table.AddRow({"person-on-truck overlap (Figure 7)", buf});
  std::printf("%s\n", bundle_table.ToString().c_str());

  // ---- Figure 9: inverted AOF ranks the inconsistent track first, and
  // the ad-hoc assertions stay silent. ----
  const auto model_errors = pipeline.fixy.Find(scene, "model-errors").value();
  const auto appear = baselines::AppearAssertion(scene).value();
  const auto flicker = baselines::FlickerAssertion(scene).value();
  const auto multibox = baselines::MultiboxAssertion(scene).value();
  std::printf("Figure 9 (inverted AOF): top-ranked model-error track spans "
              "frames [%d..%d] (ghost lives in [2..8])\n",
              model_errors.empty() ? -1 : model_errors[0].first_frame,
              model_errors.empty() ? -1 : model_errors[0].last_frame);
  std::printf("ad-hoc assertions on the same scene: appear=%zu flicker=%zu "
              "multibox=%zu flags (paper: such errors are invisible to "
              "them)\n",
              appear.size(), flicker.size(), multibox.size());
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
