// Regenerates Figure 2 of the paper: the factor graph compiled from a
// four-step track observed by both an ML model and a human labeler, with
// observation factors (p1, p2, p4, p5 in the schematic), a bundle factor
// (b3), and transition factors (p_{1,2}).
//
// The bench constructs the schematic scene, compiles it, validates the
// bipartite structure, and prints the graph plus per-factor scores.
#include <cstdio>

#include "core/features_std.h"
#include "dsl/track_builder.h"
#include "graph/factor_graph.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    double confidence) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = ObjectClass::kCar;
  obs.box = geom::Box3d({x, 2.0, 0.85}, 4.6, 1.9, 1.7, 0.0);
  obs.confidence = confidence;
  return obs;
}

void Run() {
  PrintHeader("Figure 2: the compiled LOA factor graph (schematic scene)");

  // The schematic: one object tracked over four frames, observed at each
  // step by the model and by a human (v1..v4, model and human).
  Scene scene("figure2", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < 4; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {0.8 * f, 0.0};
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kModel, 10.0 + 0.8 * f, 0.92));
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 10.05 + 0.8 * f, 1.0));
    scene.AddFrame(std::move(frame));
  }

  // Learn real feature distributions so the factor scores are meaningful.
  const TrainedPipeline pipeline = Train(sim::LyftLikeProfile(), 4);

  const TrackBuilder builder;
  const TrackSet tracks = builder.Build(scene).value();
  std::printf("tracks assembled: %zu (expect 1, with 4 bundles of 2 "
              "observations)\n\n",
              tracks.tracks.size());

  LoaSpec spec;
  for (const FeatureDistribution& fd : pipeline.fixy.learned_features()) {
    spec.feature_distributions.push_back(fd);
  }
  spec.feature_distributions.emplace_back(
      std::make_shared<DistanceFeature>(),
      MakeDistanceSeverityDistribution());
  spec.feature_distributions.emplace_back(std::make_shared<ModelOnlyFeature>(),
                                          MakeModelOnlyDistribution());

  const FactorGraph graph =
      FactorGraph::Compile(tracks, spec, scene.frame_rate_hz()).value();
  const Status valid = graph.Validate();
  std::printf("graph validation: %s\n", valid.ToString().c_str());
  std::printf("%s\n", graph.ToString().c_str());

  std::printf("track score (Section 6 normalization): %.4f\n",
              graph.ScoreTrack(0).value_or(0.0));
  std::printf(
      "\nPaper reference: a bipartite graph with one variable node per\n"
      "observation, observation/bundle factors per step and transition\n"
      "factors between steps (Figure 2a).\n");
}

}  // namespace
}  // namespace fixy::bench

int main() {
  fixy::bench::Run();
  return 0;
}
