#include "scenario/materialize.h"

#include <filesystem>
#include <utility>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "scenario/ledger_io.h"

namespace fixy::scenario {
namespace {

constexpr char kLockFormat[] = "fixy-scenario-lock";
constexpr int kLockVersion = 1;

json::Value LockJson(const ScenarioSpec& spec, int scene_count,
                     uint64_t seed) {
  json::Object root;
  root["format"] = kLockFormat;
  root["version"] = kLockVersion;
  root["scenes"] = scene_count;
  root["seed"] = seed;
  root["spec"] = ScenarioToJson(spec);
  return root;
}

/// True when the directory's lock file records exactly this recipe.
bool LockMatches(const std::string& directory, const json::Value& want) {
  std::string text;
  if (!ReadFileInto(ScenarioLockPath(directory), &text).ok()) return false;
  const Result<json::Value> have = json::Parse(text);
  return have.ok() && *have == want;
}

/// Reloads a previously materialized dataset: fresh FXB cache when
/// present, strict JSON load otherwise, plus the ledger.
Result<sim::GeneratedDataset> ReloadDataset(const std::string& directory) {
  sim::GeneratedDataset data;
  const Result<io::FxbReader> cache = io::OpenFreshCache(directory);
  if (cache.ok()) {
    data.dataset.name = cache->dataset_name();
    for (size_t i = 0; i < cache->scene_count(); ++i) {
      FIXY_ASSIGN_OR_RETURN(Scene scene, cache->DecodeScene(i));
      data.dataset.scenes.push_back(std::move(scene));
    }
  } else {
    FIXY_ASSIGN_OR_RETURN(data.dataset, io::LoadDataset(directory));
  }
  FIXY_ASSIGN_OR_RETURN(data.ledger, LoadLedger(LedgerPath(directory)));
  return data;
}

}  // namespace

Result<sim::GeneratedDataset> GenerateScenarioDataset(
    const ScenarioSpec& spec, int scene_count, std::optional<uint64_t> seed) {
  FIXY_ASSIGN_OR_RETURN(const sim::SimProfile profile, CompileScenario(spec));
  const int count = scene_count > 0 ? scene_count : spec.scene_count;
  const uint64_t use_seed = seed.value_or(spec.seed);
  const obs::ScopedStageTimer timer("scenario.generate");
  sim::GeneratedDataset data =
      sim::GenerateDataset(profile, profile.name, count, use_seed);
  obs::Count("scenario.scenes_generated", static_cast<uint64_t>(count));
  return data;
}

Result<MaterializedDataset> MaterializeScenarioDataset(
    const ScenarioSpec& spec, const std::string& directory,
    const MaterializeOptions& options) {
  const int count =
      options.scene_count > 0 ? options.scene_count : spec.scene_count;
  const uint64_t seed = options.seed.value_or(spec.seed);
  const json::Value lock = LockJson(spec, count, seed);

  MaterializedDataset result;
  if (options.reuse && LockMatches(directory, lock)) {
    Result<sim::GeneratedDataset> reloaded = ReloadDataset(directory);
    if (reloaded.ok()) {
      obs::Count("scenario.datasets_reused");
      result.data = *std::move(reloaded);
      result.reused = true;
      return result;
    }
    // A matching lock over an unloadable dataset (deleted scene files,
    // corrupt cache) falls through to regeneration.
  }

  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + directory + ": " +
                           ec.message());
  }
  // Drop a stale lock first: if anything below fails partway, the
  // directory reads as not-materialized rather than as the old recipe.
  std::filesystem::remove(ScenarioLockPath(directory), ec);

  FIXY_ASSIGN_OR_RETURN(result.data,
                        GenerateScenarioDataset(spec, count, seed));
  result.scenes_generated = count;
  FIXY_RETURN_IF_ERROR(io::SaveDataset(result.data.dataset, directory));
  if (options.write_fxb) {
    FIXY_RETURN_IF_ERROR(
        io::BuildFxbCacheFromDataset(result.data.dataset, directory).status());
  }
  FIXY_RETURN_IF_ERROR(SaveLedger(result.data.ledger, LedgerPath(directory)));
  FIXY_RETURN_IF_ERROR(WriteFileAtomic(
      ScenarioLockPath(directory), {json::Write(lock, /*pretty=*/true), "\n"}));
  return result;
}

std::string ScenarioLockPath(const std::string& directory) {
  return directory + "/scenario.lock.json";
}

}  // namespace fixy::scenario
