// The traced run's layer replay: every span wraps one call into a layer's
// public function, made from outside the library.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "bench.h"
#include "common/macros.h"
#include "core/app_spec.h"
#include "core/model_io.h"
#include "core/ranker.h"
#include "dsl/feature_score_cache.h"
#include "dsl/track_builder.h"
#include "graph/factor_graph.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "stats/kde.h"

namespace fixybench {

using fixy::ErrorProposal;
using fixy::FeatureDistribution;

Result<std::unique_ptr<RankLayers>> LoadRankLayers(const std::string& model) {
  FIXY_ASSIGN_OR_RETURN(
      fixy::LoadedModel loaded,
      fixy::LoadLearnedModelWithStats(model,
                                      fixy::FeatureRegistry::Standard()));
  // Same split as Fixy::LoadModel: the label-error apps see the base
  // features, model-errors also the learned track-count distribution.
  std::vector<FeatureDistribution> base;
  std::optional<FeatureDistribution> count;
  for (FeatureDistribution& fd : loaded.distributions) {
    if (fd.feature().kind() == fixy::FeatureKind::kTrack &&
        fd.feature().name() == "count") {
      count = std::move(fd);
    } else {
      base.push_back(std::move(fd));
    }
  }
  if (!count.has_value()) return Status::InvalidArgument("model has no count");
  std::vector<FeatureDistribution> with_count = base;
  with_count.push_back(std::move(*count));
  const fixy::LearnedState learned{base, with_count};
  auto layers = std::make_unique<RankLayers>();
  for (const std::string& name : PaperApps()) {
    const fixy::AppSpec* app = layers->registry.Find(name);
    if (app == nullptr) return Status::NotFound("no app " + name);
    layers->apps.push_back(app);
    layers->specs.push_back(app->build_spec(learned, layers->options));
  }
  return layers;
}

std::string ResponseWorklist(const std::vector<ErrorProposal>& ranked,
                             int top) {
  return WorklistBytes(fixy::TopK(ranked, static_cast<size_t>(top)));
}

bool SameProposals(const std::vector<ErrorProposal>& a,
                   const std::vector<ErrorProposal>& b) {
  const auto key = [](const ErrorProposal& p) {
    return std::tie(p.scene_name, p.kind, p.track_id, p.frame_index,
                    p.box.center.x, p.box.center.y, p.box.center.z,
                    p.box.length, p.box.width, p.box.height, p.box.yaw,
                    p.object_class, p.score, p.model_confidence,
                    p.first_frame, p.last_frame);
  };
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [&key](const ErrorProposal& x, const ErrorProposal& y) {
                      return key(x) == key(y);
                    });
}

namespace {

// Majority class of a bundle, ties to the lower class index — the class
// FeatureDistribution scores a transition feature under.
std::optional<fixy::ObjectClass> BundleClass(
    const fixy::ObservationBundle& bundle) {
  if (bundle.observations.empty()) return std::nullopt;
  int counts[fixy::kNumObjectClasses] = {};
  for (const fixy::Observation& obs : bundle.observations) {
    ++counts[static_cast<int>(obs.object_class)];
  }
  int best = 0;
  for (int i = 1; i < fixy::kNumObjectClasses; ++i) {
    if (counts[i] > counts[best]) best = i;
  }
  return static_cast<fixy::ObjectClass>(best);
}

const fixy::stats::GaussianKde* KdeFor(const FeatureDistribution& fd,
                                       std::optional<fixy::ObjectClass> cls) {
  const fixy::stats::Distribution* dist = fd.global_distribution().get();
  if (dist == nullptr && cls.has_value()) {
    const auto it = fd.per_class_distributions().find(*cls);
    if (it != fd.per_class_distributions().end()) dist = it->second.get();
  }
  return dynamic_cast<const fixy::stats::GaussianKde*>(dist);
}

// One density batch: a KDE and the feature values one (feature, track)
// pair evaluates against it.
struct KdeBatch {
  const fixy::stats::GaussianKde* kde = nullptr;
  std::vector<double> values;
};

// Gathers the finite feature values every KDE-backed (feature, track) pair
// evaluates, grouped per distribution within the pair as the raw-score
// fill groups them. The learner fits KDEs for the observation (volume) and
// transition (velocity) features; the other kinds carry no KDE here.
void GatherKdeBatches(const FeatureDistribution& fd, const fixy::Track& track,
                      double frame_rate_hz, std::vector<KdeBatch>* out) {
  std::map<const fixy::stats::GaussianKde*, std::vector<double>> groups;
  const auto add = [&groups](const fixy::stats::GaussianKde* kde,
                             std::optional<double> value) {
    if (kde != nullptr && value.has_value() && std::isfinite(*value)) {
      groups[kde].push_back(*value);
    }
  };
  fixy::FeatureContext ctx;
  ctx.frame_rate_hz = frame_rate_hz;
  const auto& bundles = track.bundles();
  if (fd.feature().kind() == fixy::FeatureKind::kObservation) {
    const auto& f = static_cast<const fixy::ObservationFeature&>(fd.feature());
    for (const fixy::ObservationBundle& bundle : bundles) {
      ctx.ego_position = bundle.ego_position;
      for (const fixy::Observation& obs : bundle.observations) {
        add(KdeFor(fd, obs.object_class), f.Compute(obs, ctx));
      }
    }
  } else if (fd.feature().kind() == fixy::FeatureKind::kTransition) {
    const auto& f = static_cast<const fixy::TransitionFeature&>(fd.feature());
    for (size_t b = 0; b + 1 < bundles.size(); ++b) {
      ctx.ego_position = bundles[b].ego_position;
      add(KdeFor(fd, BundleClass(bundles[b])),
          f.Compute(bundles[b], bundles[b + 1], ctx));
    }
  }
  for (auto& [kde, values] : groups) {
    out->push_back(KdeBatch{kde, std::move(values)});
  }
}

// Samples inside the KDE's 8-bandwidth kernel window around `x`.
size_t WindowSamples(const fixy::stats::GaussianKde& kde, double x) {
  const std::vector<double>& s = kde.samples();
  const double cutoff = 8.0 * kde.bandwidth();
  return static_cast<size_t>(
      std::upper_bound(s.begin(), s.end(), x + cutoff) -
      std::lower_bound(s.begin(), s.end(), x - cutoff));
}

}  // namespace

Result<std::vector<std::string>> TraceRankScene(Tracer& tracer,
                                                const fixy::Fixy& fixy,
                                                const RankLayers& layers,
                                                const fixy::Scene& scene,
                                                int top) {
  Result<fixy::MultiAppReport> ranked = Status::Internal("not ranked");
  {
    Tracer::Scope span(tracer, "core.rank_scene");
    ranked = fixy.RankScene(scene, PaperApps());
  }
  FIXY_RETURN_IF_ERROR(ranked.status());

  bool need_full = false;
  bool need_model = false;
  for (const fixy::AppSpec* app : layers.apps) {
    need_full = need_full || app->view == fixy::SceneView::kFull;
    need_model = need_model || app->view == fixy::SceneView::kModelOnly;
  }
  Result<fixy::AssociationViews> views = Status::Internal("not associated");
  {
    Tracer::Scope span(tracer, "dsl.assoc");
    views = fixy::TrackBuilder(layers.options.track_builder)
                .BuildViews(scene, need_full, need_model);
  }
  FIXY_RETURN_IF_ERROR(views.status());
  tracer.Count("dsl.tracks",
               static_cast<double>(
                   (views->full ? views->full->tracks.size() : 0) +
                   (views->model_only ? views->model_only->tracks.size() : 0)));

  const double hz = scene.frame_rate_hz();
  fixy::FeatureScoreCache full_cache(hz);
  fixy::FeatureScoreCache model_cache(hz);
  const auto cache_for = [&](fixy::SceneView view) {
    return view == fixy::SceneView::kFull ? &full_cache : &model_cache;
  };
  {
    // Cold fill of every (feature, track) pair the apps compile over.
    Tracer::Scope span(tracer, "dsl.raw_scores");
    for (size_t a = 0; a < layers.apps.size(); ++a) {
      const fixy::SceneView view = layers.apps[a]->view;
      const fixy::TrackSet& tracks = views->view(view);
      for (const FeatureDistribution& fd :
           layers.specs[a].feature_distributions) {
        for (size_t t = 0; t < tracks.tracks.size(); ++t) {
          cache_for(view)->Get(fd, tracks.tracks[t], t);
        }
      }
    }
  }

  // The KDE part of that fill, re-timed on the gathered values. Each
  // distinct (feature, distributions, view) key is filled once, as in the
  // shared cache.
  std::vector<KdeBatch> batches;
  std::set<std::tuple<const void*, const void*, int>> seen;
  for (size_t a = 0; a < layers.apps.size(); ++a) {
    const fixy::SceneView view = layers.apps[a]->view;
    for (const FeatureDistribution& fd :
         layers.specs[a].feature_distributions) {
      const void* dist = fd.global_distribution().get();
      if (dist == nullptr && !fd.per_class_distributions().empty()) {
        dist = fd.per_class_distributions().begin()->second.get();
      }
      if (!seen.emplace(&fd.feature(), dist, static_cast<int>(view)).second) {
        continue;
      }
      for (const fixy::Track& track : views->view(view).tracks) {
        GatherKdeBatches(fd, track, hz, &batches);
      }
    }
  }
  size_t queries = 0;
  size_t window = 0;
  std::vector<double> densities;
  {
    Tracer::Scope span(tracer, "stats.kde");
    for (const KdeBatch& batch : batches) {
      densities.resize(batch.values.size());
      batch.kde->DensityBatch(batch.values, densities);
    }
  }
  for (const KdeBatch& batch : batches) {
    queries += batch.values.size();
    for (const double x : batch.values) window += WindowSamples(*batch.kde, x);
  }
  tracer.Count("stats.kde_queries", static_cast<double>(queries));
  tracer.Count("stats.kde_window_samples",
               queries == 0 ? 0.0
                            : static_cast<double>(window) /
                                  static_cast<double>(queries));

  std::vector<fixy::FactorGraph> graphs;
  {
    // Over the warm cache: pure assembly plus AOF.
    Tracer::Scope span(tracer, "graph.compile");
    for (size_t a = 0; a < layers.apps.size(); ++a) {
      const fixy::SceneView view = layers.apps[a]->view;
      Result<fixy::FactorGraph> graph = fixy::FactorGraph::Compile(
          views->view(view), layers.specs[a], hz, cache_for(view));
      FIXY_RETURN_IF_ERROR(graph.status());
      graphs.push_back(std::move(graph).value());
    }
  }
  size_t factors = 0;
  for (const fixy::FactorGraph& graph : graphs) factors += graph.factors().size();
  tracer.Count("graph.factors", static_cast<double>(factors));

  std::vector<std::vector<ErrorProposal>> replayed(layers.apps.size());
  {
    Tracer::Scope span(tracer, "core.extract");
    for (size_t a = 0; a < layers.apps.size(); ++a) {
      const fixy::AppContext ctx{graphs[a], scene, layers.options};
      replayed[a] = layers.apps[a]->extract(ctx);
      fixy::RankProposals(&replayed[a]);
    }
  }
  size_t proposals = 0;
  for (size_t a = 0; a < replayed.size(); ++a) {
    const fixy::SceneOutcome& outcome = ranked->reports[a].outcomes.front();
    FIXY_RETURN_IF_ERROR(outcome.status);
    proposals += outcome.proposals.size();
    if (!SameProposals(outcome.proposals, replayed[a])) {
      return Status::Internal("layer replay of " + scene.name() + " for " +
                              PaperApps()[a] + " differs from RankScene");
    }
  }
  tracer.Count("core.proposals", static_cast<double>(proposals));

  std::vector<std::string> worklists;
  {
    Tracer::Scope span(tracer, "json.serialize");
    for (const fixy::BatchReport& report : ranked->reports) {
      worklists.push_back(
          ResponseWorklist(report.outcomes.front().proposals, top));
    }
  }
  size_t bytes = 0;
  for (const std::string& w : worklists) bytes += w.size();
  tracer.Count("json.response_bytes", static_cast<double>(bytes));
  return worklists;
}

Result<EditScene> LoadEditScene(const Options& options) {
  const Layout layout = LayoutFor(options.dir);
  EditScene edit;
  std::string index;
  FIXY_RETURN_IF_ERROR(ReadFile(layout.edit_index, &index));
  edit.index = std::stoul(index);
  FIXY_RETURN_IF_ERROR(ReadFile(layout.edit_a, &edit.bytes[0]));
  FIXY_RETURN_IF_ERROR(ReadFile(layout.edit_b, &edit.bytes[1]));
  for (int v = 0; v < 2; ++v) {
    FIXY_ASSIGN_OR_RETURN(edit.scene[v],
                          fixy::io::SceneFromString(edit.bytes[v]));
  }
  edit.path = layout.data + "/" + edit.scene[0].name() + ".fixy.json";
  return edit;
}

Status TraceWriteProbe(const Options& options, Tracer& tracer,
                       const fixy::Fixy& base, int probes) {
  const Layout layout = LayoutFor(options.dir);
  FIXY_ASSIGN_OR_RETURN(const EditScene edit, LoadEditScene(options));
  const std::string saved = options.dir + "/probe_model.json";
  // Start from version B so the first probe's rewrite changes the file.
  for (int p = 0; p < probes; ++p) {
    const int version = (p + 1) % 2;
    FIXY_RETURN_IF_ERROR(WriteFile(edit.path, edit.bytes[version]));
    fixy::Fixy fresh = base;
    fixy::Dataset delta;
    delta.scenes.push_back(edit.scene[version]);
    Tracer::Scope op(tracer, "probe.write");
    Result<fixy::io::FxbUpdateReport> update = Status::Internal("no update");
    {
      Tracer::Scope span(tracer, "io.update");
      update = fixy::io::UpdateFxbCache(layout.data);
    }
    FIXY_RETURN_IF_ERROR(update.status());
    tracer.Count("io.update_mb_written",
                 static_cast<double>(std::filesystem::file_size(
                     fixy::io::FxbCachePath(layout.data))) /
                     1e6);
    {
      Tracer::Scope span(tracer, "learn.fold");
      FIXY_RETURN_IF_ERROR(fresh.LearnIncremental(delta));
    }
    {
      Tracer::Scope span(tracer, "learn.save");
      FIXY_RETURN_IF_ERROR(fresh.SaveModel(saved));
    }
  }
  return Status::Ok();
}

}  // namespace fixybench
