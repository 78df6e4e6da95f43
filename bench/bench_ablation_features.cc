// Ablation bench (not in the paper; DESIGN.md-called-out design choices):
//
//   (a) feature subsets — which of Table 2's features carry the
//       missing-track precision;
//   (b) distribution estimator — KDE (the paper's default) vs histogram vs
//       parametric Gaussian;
//   (c) association threshold — the IoU bundling threshold of the worked
//       example (0.5) swept.
//
// All measured as precision@10 for missing-track finding over a reduced
// Lyft-like validation set.
#include <cstdio>
#include <vector>

#include "core/applications.h"
#include "core/engine.h"
#include "core/features_std.h"
#include "core/learner.h"
#include "core/scene_pass.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

constexpr int kScenes = 12;

std::vector<sim::GeneratedScene> ValidationScenes(
    const sim::SimProfile& profile) {
  std::vector<sim::GeneratedScene> scenes;
  for (int i = 0; i < kScenes; ++i) {
    scenes.push_back(sim::GenerateScene(
        profile, "ablation_val_" + std::to_string(i), kValidationSeed));
  }
  return scenes;
}

// Ranks missing tracks against a spec built from `learned`, through the
// same ScenePass pipeline the engine runs.
double PrecisionAt10(const std::vector<sim::GeneratedScene>& scenes,
                     const std::vector<FeatureDistribution>& learned,
                     const ApplicationOptions& options) {
  const AppSpec app = MissingTracksApp();
  const LoaSpec spec = BuildMissingTracksSpec(learned, options);
  double total = 0.0;
  int counted = 0;
  for (const sim::GeneratedScene& generated : scenes) {
    const auto claimable =
        eval::ClaimableErrors(generated.ledger, ProposalKind::kMissingTrack,
                              generated.scene.name());
    if (claimable.empty()) continue;
    ScenePass pass = ScenePass::Run(generated.scene, options.track_builder,
                                    /*need_full=*/true,
                                    /*need_model_only=*/false)
                         .value();
    const auto proposals =
        RunApplicationOnPass(app, spec, generated.scene, pass, options)
            .value();
    total += eval::PrecisionAtK(proposals, claimable, 10).precision;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

void Run() {
  PrintHeader("Ablations: features, estimators, association threshold");
  const sim::SimProfile profile = sim::LyftLikeProfile();
  const sim::GeneratedDataset training = sim::GenerateDataset(
      profile, "ablation_train", kLyftTrainingScenes, kTrainingSeed);
  const auto scenes = ValidationScenes(profile);

  // Learn volume and velocity separately so subsets can be assembled.
  const DistributionLearner learner;
  const auto volume_fd =
      learner.Learn(training.dataset, {std::make_shared<VolumeFeature>()})
          .value()
          .front();
  const auto velocity_fd =
      learner.Learn(training.dataset, {std::make_shared<VelocityFeature>()})
          .value()
          .front();

  const ApplicationOptions default_options;

  // ---- (a) Feature subsets. ----
  eval::Table features_table({"Configuration", "P@10 (missing tracks)"});
  struct Config {
    const char* name;
    std::vector<FeatureDistribution> learned;
    ApplicationOptions options;
  };
  std::vector<Config> configs;
  configs.push_back({"full (volume+velocity+distance+count)",
                     {volume_fd, velocity_fd},
                     default_options});
  configs.push_back({"no velocity", {volume_fd}, default_options});
  configs.push_back({"no volume", {velocity_fd}, default_options});
  {
    ApplicationOptions no_distance = default_options;
    no_distance.include_distance_severity = false;
    configs.push_back(
        {"no distance severity", {volume_fd, velocity_fd}, no_distance});
  }
  {
    ApplicationOptions no_count = default_options;
    no_count.include_count_filter = false;
    configs.push_back(
        {"no count filter", {volume_fd, velocity_fd}, no_count});
  }
  for (const Config& config : configs) {
    features_table.AddRow(
        {config.name,
         eval::Percent(PrecisionAt10(scenes, config.learned,
                                     config.options))});
  }
  std::printf("%s\n", features_table.ToString().c_str());

  // ---- (b) Estimator choice. ----
  eval::Table estimator_table({"Estimator", "P@10 (missing tracks)"});
  for (EstimatorKind kind : {EstimatorKind::kKde, EstimatorKind::kHistogram,
                             EstimatorKind::kGaussian}) {
    LearnerOptions learner_options;
    learner_options.estimator = kind;
    const DistributionLearner estimator_learner(learner_options);
    const auto learned =
        estimator_learner
            .Learn(training.dataset, {std::make_shared<VolumeFeature>(),
                                      std::make_shared<VelocityFeature>()})
            .value();
    estimator_table.AddRow(
        {EstimatorKindToString(kind),
         eval::Percent(PrecisionAt10(scenes, learned, default_options))});
  }
  std::printf("%s\n", estimator_table.ToString().c_str());

  // ---- (c') Section 6 score normalization. ----
  eval::Table norm_table({"Scoring", "P@10 (missing tracks)"});
  {
    ApplicationOptions normalized = default_options;
    norm_table.AddRow(
        {"normalized (paper, Section 6)",
         eval::Percent(PrecisionAt10(scenes, {volume_fd, velocity_fd},
                                     normalized))});
    ApplicationOptions raw_sum = default_options;
    raw_sum.normalize_scores = false;
    norm_table.AddRow(
        {"raw log-likelihood sum",
         eval::Percent(
             PrecisionAt10(scenes, {volume_fd, velocity_fd}, raw_sum))});
  }
  std::printf("%s\n", norm_table.ToString().c_str());

  // ---- (c) Association (bundling) IoU threshold. ----
  eval::Table assoc_table({"Bundler IoU threshold", "P@10 (missing tracks)"});
  for (double threshold : {0.2, 0.35, 0.5, 0.65, 0.8}) {
    ApplicationOptions options = default_options;
    options.track_builder.bundler = std::make_shared<IouBundler>(threshold);
    char label[32];
    std::snprintf(label, sizeof(label), "%.2f", threshold);
    assoc_table.AddRow(
        {label, eval::Percent(PrecisionAt10(scenes, {volume_fd, velocity_fd},
                                            options))});
  }
  std::printf("%s", assoc_table.ToString().c_str());
  std::printf(
      "\nExpected shapes: the full feature set dominates; KDE >= histogram\n"
      ">> single Gaussian (volumes are multi-modal across classes only\n"
      "after conditioning); moderate IoU thresholds (the paper's 0.5) beat\n"
      "extremes, where bundling either merges neighbors or misses matches.\n");
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
