// Input generation for every workload: everything here runs in the
// `setup` phase, which run.py times as part of setup_s.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/macros.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"

namespace fixybench {

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The scene with the median observation count, so the per-op cost of the
// update path does not hinge on which scene a seed happens to pick.
size_t EditIndex(const fixy::Dataset& dataset) {
  std::vector<size_t> order(dataset.scenes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&dataset](size_t a, size_t b) {
    const size_t na = dataset.scenes[a].TotalObservations();
    const size_t nb = dataset.scenes[b].TotalObservations();
    return na != nb ? na < nb : a < b;
  });
  return order[order.size() / 2];
}

// The relabeled version of a scene: every human label shifted 5 cm along
// x, as a vendor correction pass would. The scene keeps its structure, so
// the cache size and the rank cost stay the same across versions.
fixy::Scene Relabel(fixy::Scene scene) {
  for (fixy::Frame& frame : scene.frames()) {
    for (fixy::Observation& obs : frame.observations) {
      if (obs.source == fixy::ObservationSource::kHuman) obs.box.center.x += 0.05;
    }
  }
  return scene;
}

// Digest of every generated input except dataset.fxb, whose source map
// records file mtimes and so differs between byte-identical datasets.
Result<uint64_t> InputDigest(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == "dataset.fxb") continue;
    files.push_back(fs::relative(entry.path(), dir).string());
  }
  std::sort(files.begin(), files.end());
  uint64_t h = kFnvBasis;
  std::string bytes;
  for (const std::string& file : files) {
    FIXY_RETURN_IF_ERROR(ReadFile(dir + "/" + file, &bytes));
    h = Fnv1a(Fnv1a(h, file), bytes);
  }
  return h;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, std::string_view stream) {
  // The stream name's hash folded into the run seed by a splitmix64
  // finalizer, so streams are independent of each other.
  uint64_t z = seed + Fnv1a(kFnvBasis, stream) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Layout LayoutFor(const std::string& dir) {
  Layout layout;
  layout.model = dir + "/model.json";
  layout.data = dir + "/data";
  layout.edit_a = dir + "/edit_a.fixy.json";
  layout.edit_b = dir + "/edit_b.fixy.json";
  layout.edit_index = dir + "/edit_index.txt";
  return layout;
}

Result<InputPlan> PlanInputs(const Options& options) {
  InputPlan plan;
  // Scene counts are sized so one run's median is steady across seeds:
  // enough scenes that per-scene cost differences average out.
  if (options.workload == "batch-dense") {
    FIXY_ASSIGN_OR_RETURN(plan.spec, fixy::scenario::PresetByName(
                                         "dense-urban-intersection"));
    plan.train_scenes = 12;
    plan.data_scenes = 24;
  } else if (options.workload == "daemon-small") {
    FIXY_ASSIGN_OR_RETURN(
        plan.spec, fixy::scenario::LoadScenario(
                       options.bench_dir + "/daemon_small.scenario.json"));
    plan.train_scenes = 48;
    plan.data_scenes = 300;
  } else if (options.workload == "update-cycle") {
    FIXY_ASSIGN_OR_RETURN(plan.spec,
                          fixy::scenario::PresetByName("lyft-like"));
    plan.train_scenes = 8;
    plan.data_scenes = 128;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + options.workload +
        "' (batch-dense, daemon-small, update-cycle)");
  }
  // The model stands for the organization's existing labels: one fixed
  // training seed, so the model's size (and with it the KDE cost per
  // query) does not change with --seed. The audited dataset does.
  plan.train_seed = DeriveSeed(0, "train");
  plan.data_seed = DeriveSeed(options.seed, "data");
  return plan;
}

Result<fixy::Dataset> TrainingSet(const InputPlan& plan) {
  FIXY_ASSIGN_OR_RETURN(fixy::sim::GeneratedDataset generated,
                        fixy::scenario::GenerateScenarioDataset(
                            plan.spec, plan.train_scenes, plan.train_seed));
  return std::move(generated.dataset);
}

Status RunSetup(const Options& options) {
  FIXY_ASSIGN_OR_RETURN(const InputPlan plan, PlanInputs(options));
  const Layout layout = LayoutFor(options.dir);
  const auto start = Clock::now();
  std::error_code ec;
  fs::remove_all(options.dir, ec);
  fs::create_directories(options.dir, ec);
  if (ec) return Status::IoError("cannot create " + options.dir);

  // The model is learned from a training seed of the same scenario.
  FIXY_ASSIGN_OR_RETURN(const fixy::Dataset training, TrainingSet(plan));
  fixy::Fixy fixy;
  FIXY_RETURN_IF_ERROR(fixy.Learn(training));
  FIXY_RETURN_IF_ERROR(fixy.SaveModel(layout.model));

  FIXY_ASSIGN_OR_RETURN(fixy::sim::GeneratedDataset generated,
                        fixy::scenario::GenerateScenarioDataset(
                            plan.spec, plan.data_scenes, plan.data_seed));
  const fixy::Dataset& dataset = generated.dataset;
  FIXY_RETURN_IF_ERROR(fixy::io::SaveDataset(dataset, layout.data));
  FIXY_ASSIGN_OR_RETURN(
      const size_t cached,
      fixy::io::BuildFxbCacheFromDataset(dataset, layout.data));
  if (cached != dataset.scenes.size()) {
    return Status::Internal("cache scene count mismatch");
  }

  // The two fixed versions of the scene the update path rewrites.
  const size_t edit_index = EditIndex(dataset);
  const fixy::Scene& original = dataset.scenes[edit_index];
  std::string bytes;
  FIXY_RETURN_IF_ERROR(ReadFile(
      layout.data + "/" + original.name() + ".fixy.json", &bytes));
  FIXY_RETURN_IF_ERROR(WriteFile(layout.edit_a, bytes));
  FIXY_RETURN_IF_ERROR(fixy::io::SaveScene(Relabel(original), layout.edit_b));
  FIXY_RETURN_IF_ERROR(
      WriteFile(layout.edit_index, std::to_string(edit_index)));

  const double seconds = SecondsSince(start);

  size_t observations = 0;
  for (const fixy::Scene& scene : dataset.scenes) {
    observations += scene.TotalObservations();
  }
  FIXY_ASSIGN_OR_RETURN(const uint64_t digest, InputDigest(options.dir));
  std::printf(
      "{\"digest\": \"%016llx\", \"scenes\": %zu, \"observations\": %zu, "
      "\"seconds\": %.9f}\n",
      static_cast<unsigned long long>(digest), dataset.scenes.size(),
      observations, seconds);
  return Status::Ok();
}

}  // namespace fixybench
