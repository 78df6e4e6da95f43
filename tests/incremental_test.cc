// The incremental-ingestion contracts (DESIGN.md §14):
//
//   1. UpdateFxbCache is byte-identical to a from-scratch BuildFxbCache
//      at every point of a randomized add/modify/touch/remove sequence.
//   2. Learn-then-fold (Fixy::LearnIncremental) is byte-identical to a
//      full refit over the concatenated dataset, for every estimator —
//      including KDE past its reservoir capacity, because the reservoir's
//      counter-based subsampling resumes the exact stream.
//   3. The per-scene record ladder: a same-size edit is caught by its
//      nanosecond mtime; a same-size edit with a *restored* mtime is the
//      stat pass's documented blind spot and is caught by the
//      content-verifying update, which re-encodes only that scene; size
//      changes that cancel out across files are caught per file; and an
//      update over unchanged sources writes nothing.
//   4. Corrupted caches (including records that lie about their source)
//      never crash the incremental path — they degrade to re-encodes or
//      a full rebuild.
//   5. `watch` survives a seeded corruption sweep with zero crashes, and
//      folds + re-ranks exactly the changed scenes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "core/engine.h"
#include "daemon/watch.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "sim/generate.h"
#include "stats/sufficient.h"
#include "testing/document_corruptor.h"

namespace fixy {
namespace {

namespace fs = std::filesystem;

std::string TempDir() {
  static int counter = 0;
  const std::string dir =
      (fs::temp_directory_path() /
       ("fixy_incremental_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out << bytes;
}

/// A labeled dataset realistic enough for the learner (the sim injects
/// human + model observations with per-class distributions).
Dataset MakeLabeledDataset(int scenes, uint64_t seed) {
  const sim::SimProfile profile = sim::LyftLikeProfile();
  return sim::GenerateDataset(profile, "inc", scenes, seed).dataset;
}

/// Splits `dataset` at `head`: scenes [0, head) stay, the rest return.
Dataset SplitTail(Dataset& dataset, size_t head) {
  Dataset tail;
  tail.name = dataset.name;
  for (size_t i = head; i < dataset.scenes.size(); ++i) {
    tail.scenes.push_back(std::move(dataset.scenes[i]));
  }
  dataset.scenes.resize(head);
  return tail;
}

// ---------------------------------------------------------------------------
// 1. Randomized edit sequences: update == rebuild, byte for byte.
// ---------------------------------------------------------------------------

TEST(IncrementalCacheTest, RandomizedEditsMatchRebuildByteForByte) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(4, 17);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  std::mt19937_64 rng(991);
  int next_scene = 100;
  for (int step = 0; step < 12; ++step) {
    const int op = static_cast<int>(rng() % 4);
    std::string what;
    if (op == 0 || dataset.scenes.size() < 2) {
      // Add a scene (also the fallback so the dataset never empties).
      Dataset fresh = MakeLabeledDataset(1, 1000 + next_scene);
      fresh.scenes.front().set_name("added_" + std::to_string(next_scene++));
      dataset.scenes.push_back(std::move(fresh.scenes.front()));
      ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
      what = "add";
    } else if (op == 1) {
      // Modify one scene surgically (only its file is rewritten, so every
      // other file keeps its stat record and takes the fast path).
      const size_t victim = rng() % dataset.scenes.size();
      Scene& scene = dataset.scenes[victim];
      ASSERT_TRUE(io::SaveScene(
                      scene, dir + "/" + scene.name() + ".fixy.json")
                      .ok());
      what = "touch " + scene.name();
      // Half the time actually change the content, not just the mtime.
      if (rng() % 2 == 0) {
        Dataset fresh = MakeLabeledDataset(1, 2000 + step);
        fresh.scenes.front().set_name(scene.name());
        scene = std::move(fresh.scenes.front());
        ASSERT_TRUE(io::SaveScene(
                        scene, dir + "/" + scene.name() + ".fixy.json")
                        .ok());
        what = "modify " + scene.name();
      }
    } else if (op == 2) {
      // Remove a scene. SaveDataset rewrites the manifest; the orphaned
      // .fixy.json stays on disk and must not confuse the updater.
      const size_t victim = rng() % dataset.scenes.size();
      dataset.scenes.erase(dataset.scenes.begin() +
                           static_cast<long>(victim));
      ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
      what = "remove";
    } else {
      // Rewrite everything (SaveDataset bumps every mtime; unchanged
      // files must still reuse their sections via the checksum fallback).
      ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
      what = "rewrite-all";
    }

    const auto update = io::UpdateFxbCache(dir);
    ASSERT_TRUE(update.ok()) << "step " << step << " (" << what
                             << "): " << update.status();
    const std::string updated = ReadFile(io::FxbCachePath(dir));

    fs::remove(io::FxbCachePath(dir));
    ASSERT_TRUE(io::BuildFxbCache(dir).ok()) << "step " << step;
    const std::string rebuilt = ReadFile(io::FxbCachePath(dir));

    ASSERT_EQ(updated, rebuilt)
        << "step " << step << " (" << what
        << "): incremental update diverged from a from-scratch build";
  }
}

TEST(IncrementalCacheTest, OneSceneEditReencodesExactlyOneScene) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(6, 21);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  Dataset fresh = MakeLabeledDataset(1, 777);
  fresh.scenes.front().set_name(dataset.scenes[2].name());
  dataset.scenes[2] = std::move(fresh.scenes.front());
  ASSERT_TRUE(io::SaveScene(dataset.scenes[2],
                            dir + "/" + dataset.scenes[2].name() +
                                ".fixy.json")
                  .ok());

  const auto update = io::UpdateFxbCache(dir);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->scenes_total, 6u);
  EXPECT_EQ(update->scenes_encoded, 1u);
  EXPECT_EQ(update->scenes_reused, 5u);
  EXPECT_EQ(update->scenes_dropped, 0u);
  EXPECT_FALSE(update->rebuilt);
  ASSERT_EQ(update->encoded_files.size(), 1u);
  EXPECT_EQ(update->encoded_files.front(),
            dataset.scenes[2].name() + ".fixy.json");
}

// ---------------------------------------------------------------------------
// 2. The record ladder: ns mtimes and the content-verifying update.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

// A fresh, sound cache is left alone: no reasons and nothing written (the
// same inode, the same mtime), with or without the content check.
TEST(IncrementalCacheTest, UnchangedSourcesLeaveTheCacheUntouched) {
  const std::string dir = TempDir();
  ASSERT_TRUE(io::SaveDataset(MakeLabeledDataset(3, 19), dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  const std::string path = io::FxbCachePath(dir);
  struct stat built {};
  ASSERT_EQ(::stat(path.c_str(), &built), 0);
  const fs::file_time_type built_mtime = fs::last_write_time(path);

  for (const bool verify : {false, true}) {
    const auto update = io::UpdateFxbCache(dir, verify);
    ASSERT_TRUE(update.ok()) << update.status();
    EXPECT_TRUE(update->staleness.reasons.empty())
        << update->staleness.Summary();
    EXPECT_EQ(update->scenes_reused, 3u);
    EXPECT_EQ(update->scenes_encoded, 0u);
    struct stat after {};
    ASSERT_EQ(::stat(path.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, built.st_ino) << "verify " << verify;
    EXPECT_EQ(fs::last_write_time(path), built_mtime) << "verify " << verify;
  }
  fs::remove_all(dir);
}

#endif  // POSIX

TEST(IncrementalCacheTest, SameSizeEditIsCaughtByMtime) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(2, 5);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  // Flip one byte in place: identical size, new mtime.
  const std::string victim =
      dir + "/" + dataset.scenes[0].name() + ".fixy.json";
  std::string bytes = ReadFile(victim);
  const size_t digit = bytes.find_first_of("123456789", bytes.find("\"x\""));
  ASSERT_NE(digit, std::string::npos);
  bytes[digit] = bytes[digit] == '3' ? '4' : '3';
  WriteFile(victim, bytes);

  const auto fresh = io::OpenFreshCache(dir);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kFailedPrecondition);

  // And the updater names the edit, re-encodes exactly that scene, and is
  // byte-identical to a rebuild.
  const auto update = io::UpdateFxbCache(dir);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->scenes_encoded, 1u);
  EXPECT_EQ(update->staleness.reasons,
            std::vector<std::string>{dataset.scenes[0].name() +
                                     ".fixy.json was modified (mtime "
                                     "changed)"});
  const std::string updated = ReadFile(io::FxbCachePath(dir));
  fs::remove(io::FxbCachePath(dir));
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  EXPECT_EQ(updated, ReadFile(io::FxbCachePath(dir)));
}

TEST(IncrementalCacheTest, BackdatedSameSizeEditNeedsContentVerify) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(2, 9);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  const std::string victim =
      dir + "/" + dataset.scenes[1].name() + ".fixy.json";
  const fs::file_time_type recorded = fs::last_write_time(victim);
  std::string bytes = ReadFile(victim);
  const size_t digit = bytes.find_first_of("123456789", bytes.find("\"x\""));
  ASSERT_NE(digit, std::string::npos);
  bytes[digit] = bytes[digit] == '3' ? '4' : '3';
  WriteFile(victim, bytes);
  fs::last_write_time(victim, recorded);  // the adversarial restore

  // The stat-only update trusts size + mtime — this is its documented
  // blind spot (the same one git's stat cache has): it keeps the
  // backdated scene's section and writes nothing.
  const std::string cache_path = io::FxbCachePath(dir);
  const std::string built = ReadFile(cache_path);
  const fs::file_time_type built_mtime = fs::last_write_time(cache_path);
  const auto shallow = io::UpdateFxbCache(dir);
  ASSERT_TRUE(shallow.ok()) << shallow.status();
  EXPECT_FALSE(shallow->staleness.stale()) << shallow->staleness.Summary();
  EXPECT_EQ(shallow->scenes_reused, 2u);
  EXPECT_EQ(fs::last_write_time(cache_path), built_mtime);
  EXPECT_EQ(ReadFile(cache_path), built);

  // The verifying update reads and checksums every source, names the
  // rewrite, and re-encodes exactly that scene.
  const auto deep = io::UpdateFxbCache(dir, /*verify_contents=*/true);
  ASSERT_TRUE(deep.ok()) << deep.status();
  EXPECT_EQ(deep->scenes_encoded, 1u);
  EXPECT_EQ(deep->scenes_reused, 1u);
  ASSERT_EQ(deep->encoded_files.size(), 1u);
  EXPECT_EQ(deep->encoded_files.front(),
            dataset.scenes[1].name() + ".fixy.json");
  bool found = false;
  for (const std::string& reason : deep->staleness.reasons) {
    if (reason.find("different checksum") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << deep->staleness.Summary();
  const std::string updated = ReadFile(cache_path);
  fs::remove(cache_path);
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  EXPECT_EQ(updated, ReadFile(cache_path));
}

// A byte that moves from one scene file to another, with both mtimes
// restored, leaves the file count, the total bytes and the newest mtime
// unchanged; the per-file records still differ, and OpenFreshCache must
// refuse the cache naming both files.
TEST(IncrementalCacheTest, SizeChangesThatCancelOutAreCaughtPerFile) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(2, 13);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  const std::string file_a = dataset.scenes[0].name() + ".fixy.json";
  const std::string file_b = dataset.scenes[1].name() + ".fixy.json";
  const std::string path_a = dir + "/" + file_a;
  const std::string path_b = dir + "/" + file_b;
  WriteFile(path_a, ReadFile(path_a) + "\n");
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  ASSERT_TRUE(io::OpenFreshCache(dir).ok());

  const fs::file_time_type mtime_a = fs::last_write_time(path_a);
  const fs::file_time_type mtime_b = fs::last_write_time(path_b);
  std::string bytes_a = ReadFile(path_a);
  bytes_a.pop_back();
  WriteFile(path_a, bytes_a);
  WriteFile(path_b, ReadFile(path_b) + "\n");
  fs::last_write_time(path_a, mtime_a);
  fs::last_write_time(path_b, mtime_b);

  const auto fresh = io::OpenFreshCache(dir);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kFailedPrecondition);
  const std::string message = fresh.status().message();
  EXPECT_NE(message.find(file_a + " changed size"), std::string::npos)
      << message;
  EXPECT_NE(message.find(file_b + " changed size"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// 3. Corrupted caches degrade, never crash.
// ---------------------------------------------------------------------------

TEST(IncrementalCacheTest, SourceRecordLieReencodesTheLiedScene) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(3, 33);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::string pristine = ReadFile(io::FxbCachePath(dir));
    fixy::testing::DocumentCorruptor corruptor(seed);
    std::string detail;
    const std::string lied = corruptor.ApplyBinary(
        fixy::testing::BinaryCorruptionKind::kSourceRecordLie, pristine,
        &detail);
    WriteFile(io::FxbCachePath(dir), lied);

    // The lie re-seals every CRC, so the container opens; the staleness
    // diff must flag the lied-about record rather than trust it.
    const auto fresh = io::OpenFreshCache(dir);
    EXPECT_EQ(fresh.status().code(), StatusCode::kFailedPrecondition)
        << detail << ": " << fresh.status();

    // The updater treats the scene as changed (its recorded stat no
    // longer matches disk), re-encodes it, and converges byte-for-byte
    // with a from-scratch build.
    const auto update = io::UpdateFxbCache(dir);
    ASSERT_TRUE(update.ok()) << detail << ": " << update.status();
    EXPECT_TRUE(update->staleness.stale()) << detail;
    const std::string updated = ReadFile(io::FxbCachePath(dir));
    EXPECT_EQ(updated, pristine) << detail;
  }
}

TEST(IncrementalCacheTest, CorruptReusedSectionIsReencodedNotCopied) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(4, 29);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  // Flip one byte inside scene k's section. The header, index and source
  // map still verify and every source is unchanged, so only the section's
  // own CRC check can tell the updater not to reuse it.
  constexpr size_t k = 2;
  std::string cache = ReadFile(io::FxbCachePath(dir));
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, cache.data() + io::kFxbIndexOffsetOffset, 8);
  const char* entry = cache.data() + index_offset + k * io::kFxbIndexEntrySize;
  uint64_t offset = 0;
  uint64_t length = 0;
  std::memcpy(&offset, entry, 8);
  std::memcpy(&length, entry + 8, 8);
  cache[offset + length / 2] ^= 0x08;
  WriteFile(io::FxbCachePath(dir), cache);

  const auto update = io::UpdateFxbCache(dir);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_FALSE(update->rebuilt);
  EXPECT_EQ(update->scenes_encoded, 1u);
  EXPECT_EQ(update->scenes_reused, dataset.scenes.size() - 1);
  ASSERT_EQ(update->encoded_files.size(), 1u);
  EXPECT_EQ(update->encoded_files.front(),
            dataset.scenes[k].name() + ".fixy.json");
  const std::string updated = ReadFile(io::FxbCachePath(dir));

  fs::remove(io::FxbCachePath(dir));
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  EXPECT_EQ(updated, ReadFile(io::FxbCachePath(dir)))
      << "updated cache differs from a from-scratch build";
  fs::remove_all(dir);
}

TEST(IncrementalCacheTest, SourceMapFlipFallsBackToFullRebuild) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(3, 41);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  const std::string pristine = ReadFile(io::FxbCachePath(dir));

  fixy::testing::DocumentCorruptor corruptor(7);
  std::string detail;
  const std::string flipped = corruptor.ApplyBinary(
      fixy::testing::BinaryCorruptionKind::kSourceMapFlip, pristine, &detail);
  WriteFile(io::FxbCachePath(dir), flipped);

  // The source-map CRC rejects the container at open, so there is nothing
  // to reuse: the updater rebuilds from scratch.
  const auto update = io::UpdateFxbCache(dir);
  ASSERT_TRUE(update.ok()) << detail << ": " << update.status();
  EXPECT_TRUE(update->rebuilt) << detail;
  EXPECT_EQ(ReadFile(io::FxbCachePath(dir)), pristine) << detail;
}

// ---------------------------------------------------------------------------
// 4. Merge-vs-refit: fold(delta) == full refit, byte for byte.
// ---------------------------------------------------------------------------

class MergeRefitTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(MergeRefitTest, FoldMatchesFullRefitByteForByte) {
  Dataset full = MakeLabeledDataset(4, 55);
  Dataset head = full;  // deep copy
  Dataset tail = SplitTail(head, 3);

  FixyOptions options;
  options.learner.estimator = GetParam();

  const std::string dir = TempDir();
  const std::string refit_path = dir + "/refit.json";
  const std::string folded_path = dir + "/folded.json";

  Fixy refit(options);
  ASSERT_TRUE(refit.Learn(full).ok());
  ASSERT_TRUE(refit.SaveModel(refit_path).ok());

  Fixy folded(options);
  ASSERT_TRUE(folded.Learn(head).ok());
  ASSERT_TRUE(folded.LearnIncremental(tail).ok());
  ASSERT_TRUE(folded.SaveModel(folded_path).ok());

  EXPECT_EQ(ReadFile(refit_path), ReadFile(folded_path))
      << "estimator " << EstimatorKindToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, MergeRefitTest,
                         ::testing::Values(EstimatorKind::kKde,
                                           EstimatorKind::kHistogram,
                                           EstimatorKind::kGaussian,
                                           EstimatorKind::kCategorical),
                         [](const auto& info) {
                           return std::string(
                               EstimatorKindToString(info.param));
                         });

// The saved bytes of a fixed-seed Learn, per estimator. Learn and
// LearnIncremental share one fold, so the parity test above compares that
// fold with itself; these constants pin both paths to the statistics an
// earlier learner saved, whose Learn fitted every distribution directly
// (its files, minus each entry's fitted "distribution"/"per_class").
struct ModelGolden {
  EstimatorKind estimator;
  uint32_t crc;
  size_t bytes;
};

class LearnedModelGoldenTest : public ::testing::TestWithParam<ModelGolden> {};

TEST_P(LearnedModelGoldenTest, SavedModelMatchesRecordedCrc) {
  const ModelGolden& golden = GetParam();
  FixyOptions options;
  options.learner.estimator = golden.estimator;
  const std::string dir = TempDir();

  Dataset head = MakeLabeledDataset(4, 2022);
  Fixy learned(options);
  ASSERT_TRUE(learned.Learn(head).ok());
  ASSERT_TRUE(learned.SaveModel(dir + "/learned.json").ok());
  const std::string learned_bytes = ReadFile(dir + "/learned.json");
  EXPECT_EQ(Crc32(learned_bytes), golden.crc);
  EXPECT_EQ(learned_bytes.size(), golden.bytes);

  const Dataset tail = SplitTail(head, 3);
  Fixy folded(options);
  ASSERT_TRUE(folded.Learn(head).ok());
  ASSERT_TRUE(folded.LearnIncremental(tail).ok());
  ASSERT_TRUE(folded.SaveModel(dir + "/folded.json").ok());
  const std::string folded_bytes = ReadFile(dir + "/folded.json");
  EXPECT_EQ(Crc32(folded_bytes), golden.crc);
  EXPECT_EQ(folded_bytes.size(), golden.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, LearnedModelGoldenTest,
    ::testing::Values(
        ModelGolden{EstimatorKind::kKde, 3467216093u, 348158},
        ModelGolden{EstimatorKind::kHistogram, 2327226523u, 520200},
        ModelGolden{EstimatorKind::kGaussian, 2137334627u, 3955},
        ModelGolden{EstimatorKind::kCategorical, 6144428u, 520204}),
    [](const auto& info) {
      return std::string(EstimatorKindToString(info.param.estimator));
    });

TEST(MergeRefitCapacityTest, KdeFoldMatchesRefitPastReservoirCapacity) {
  // A tiny reservoir forces the KDE to subsample. The counter-based
  // reservoir resumes the exact subsampling stream across the fold, so
  // fold-vs-refit stays byte-identical even past capacity (the *bounded
  // divergence* documented in DESIGN.md §14 is vs. the exact full-sample
  // KDE, not between the two incremental paths).
  Dataset full = MakeLabeledDataset(4, 63);
  Dataset head = full;
  Dataset tail = SplitTail(head, 2);

  FixyOptions options;
  options.learner.estimator = EstimatorKind::kKde;
  options.learner.kde_reservoir_capacity = 16;
  options.learner.kde_reservoir_seed = 4242;

  const std::string dir = TempDir();
  Fixy refit(options);
  ASSERT_TRUE(refit.Learn(full).ok());
  ASSERT_TRUE(refit.SaveModel(dir + "/refit.json").ok());

  Fixy folded(options);
  ASSERT_TRUE(folded.Learn(head).ok());
  ASSERT_TRUE(folded.LearnIncremental(tail).ok());
  ASSERT_TRUE(folded.SaveModel(dir + "/folded.json").ok());

  EXPECT_EQ(ReadFile(dir + "/refit.json"), ReadFile(dir + "/folded.json"));
}

// A reservoir's seed and capacity are saved as JSON numbers, which hold
// every integer up to 2^53 exactly but not 2^53 + 1. A larger option is
// rejected by name: a model saved with it would reload rounded and fold a
// different subsampling stream.
TEST(MergeRefitCapacityTest, ReservoirOptionAboveTwoTo53IsRejected) {
  const Dataset dataset = MakeLabeledDataset(2, 63);
  for (const std::string option :
       {"kde_reservoir_seed", "kde_reservoir_capacity"}) {
    FixyOptions options;
    options.learner.estimator = EstimatorKind::kKde;
    (option == "kde_reservoir_seed" ? options.learner.kde_reservoir_seed
                                    : options.learner.kde_reservoir_capacity) =
        json::kMaxExactInteger + 1;
    Fixy engine(options);
    const Status learn = engine.Learn(dataset);
    EXPECT_EQ(learn.code(), StatusCode::kInvalidArgument) << option;
    EXPECT_NE(learn.message().find("LearnerOptions::" + option),
              std::string::npos)
        << learn;
  }
}

// At 2^53 itself the saved seed is exact, so a fold after a save and a
// reload continues the same stream as a fold without them.
TEST(MergeRefitCapacityTest, ReservoirSeedAtTwoTo53SurvivesSaveLoad) {
  Dataset full = MakeLabeledDataset(4, 63);
  Dataset head = full;
  Dataset tail = SplitTail(head, 2);

  FixyOptions options;
  options.learner.estimator = EstimatorKind::kKde;
  options.learner.kde_reservoir_capacity = 16;
  options.learner.kde_reservoir_seed = json::kMaxExactInteger;

  const std::string dir = TempDir();
  Fixy direct(options);
  ASSERT_TRUE(direct.Learn(head).ok());
  ASSERT_TRUE(direct.SaveModel(dir + "/head.json").ok());
  ASSERT_TRUE(direct.LearnIncremental(tail).ok());
  ASSERT_TRUE(direct.SaveModel(dir + "/direct.json").ok());

  Fixy reloaded(options);
  ASSERT_TRUE(reloaded.LoadModel(dir + "/head.json").ok());
  ASSERT_TRUE(reloaded.LearnIncremental(tail).ok());
  ASSERT_TRUE(reloaded.SaveModel(dir + "/reloaded.json").ok());

  EXPECT_EQ(ReadFile(dir + "/direct.json"), ReadFile(dir + "/reloaded.json"));
}

TEST(MergeRefitTest, FoldSurvivesModelSaveLoadRoundTrip) {
  Dataset full = MakeLabeledDataset(3, 71);
  Dataset head = full;
  Dataset tail = SplitTail(head, 2);

  const std::string dir = TempDir();
  Fixy direct;
  ASSERT_TRUE(direct.Learn(head).ok());
  ASSERT_TRUE(direct.SaveModel(dir + "/head.json").ok());
  ASSERT_TRUE(direct.LearnIncremental(tail).ok());
  ASSERT_TRUE(direct.SaveModel(dir + "/direct.json").ok());

  // Reload the head model in a fresh engine: the persisted sufficient
  // statistics must make the fold resume exactly where Learn left off.
  Fixy reloaded;
  ASSERT_TRUE(reloaded.LoadModel(dir + "/head.json").ok());
  ASSERT_TRUE(reloaded.LearnIncremental(tail).ok());
  ASSERT_TRUE(reloaded.SaveModel(dir + "/reloaded.json").ok());

  EXPECT_EQ(ReadFile(dir + "/direct.json"), ReadFile(dir + "/reloaded.json"));
}

TEST(MergeRefitTest, StatsLessModelRejectsFold) {
  Dataset dataset = MakeLabeledDataset(2, 81);
  const std::string dir = TempDir();

  Fixy engine;
  ASSERT_TRUE(engine.Learn(dataset).ok());
  ASSERT_TRUE(engine.SaveModel(dir + "/with_stats.json").ok());

  // A model without statistics (written before incremental learning)
  // cannot be fitted, so it cannot be loaded either: the load fails,
  // naming the feature and the remedy, and the engine keeps the model it
  // had, which still folds.
  auto doc = json::Parse(ReadFile(dir + "/with_stats.json"));
  ASSERT_TRUE(doc.ok()) << doc.status();
  for (json::Value& entry : doc->AsObject()["features"].AsArray()) {
    ASSERT_EQ(entry.AsObject().erase("stats"), 1u);
  }
  WriteFile(dir + "/stats_less.json", json::Write(*doc, /*pretty=*/true));

  const Status load = engine.LoadModel(dir + "/stats_less.json");
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load;
  EXPECT_NE(load.message().find("'volume'"), std::string::npos) << load;
  EXPECT_NE(load.message().find("fixy_cli learn"), std::string::npos)
      << load;
  ASSERT_TRUE(engine.SaveModel(dir + "/kept.json").ok());
  EXPECT_EQ(ReadFile(dir + "/kept.json"), ReadFile(dir + "/with_stats.json"));
  EXPECT_TRUE(engine.LearnIncremental(dataset).ok());
}

TEST(MergeRefitTest, FoldBeforeLearnFails) {
  Fixy engine;
  const Status fold = engine.LearnIncremental(MakeLabeledDataset(1, 91));
  EXPECT_EQ(fold.code(), StatusCode::kFailedPrecondition) << fold;
}

// ---------------------------------------------------------------------------
// 5. Sufficient-statistics primitives.
// ---------------------------------------------------------------------------

TEST(SufficientStatsTest, ReservoirResumesTheExactStream) {
  constexpr uint64_t kCapacity = 8;
  stats::ValueReservoir one_shot;
  one_shot.capacity = kCapacity;
  one_shot.seed = 99;
  stats::ValueReservoir resumed = one_shot;
  for (int i = 0; i < 100; ++i) one_shot.Add(i * 0.5);
  for (int i = 0; i < 60; ++i) resumed.Add(i * 0.5);
  // "Persist" and continue: the counter-based subsampling depends only on
  // (seed, values-seen), so the resumed reservoir lands identically.
  stats::ValueReservoir reloaded = resumed;
  for (int i = 60; i < 100; ++i) reloaded.Add(i * 0.5);
  EXPECT_EQ(one_shot, reloaded);
  EXPECT_EQ(one_shot.items.size(), kCapacity);
  EXPECT_EQ(one_shot.seen, 100u);
}

TEST(SufficientStatsTest, ReservoirHoldsEverythingUnderCapacity) {
  stats::ValueReservoir reservoir;
  reservoir.capacity = 64;
  for (int i = 0; i < 50; ++i) reservoir.Add(static_cast<double>(i));
  ASSERT_EQ(reservoir.items.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(reservoir.items[static_cast<size_t>(i)], i);  // arrival order
  }
}

// ---------------------------------------------------------------------------
// 6. Watch: incremental fold + re-rank, and the corruption sweep.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(WatchTest, FoldsAndReranksOnlyTheChangedScene) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(4, 29);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());

  const std::string model_path = dir + "/model.json";
  {
    Fixy engine;
    ASSERT_TRUE(engine.Learn(dataset).ok());
    ASSERT_TRUE(engine.SaveModel(model_path).ok());
  }

  int stop_pipe[2] = {-1, -1};
  ASSERT_EQ(::pipe(stop_pipe), 0);

  daemon::WatchOptions options;
  options.data_dir = dir;
  options.model_path = model_path;
  options.poll_interval_ms = 20;
  options.learn_labels = true;
  options.apps = {"missing-tracks"};
  options.batch.num_threads = 1;
  options.collect_metrics = true;
  options.quiet = true;
  options.stop_fd = stop_pipe[0];

  // Synchronize on cycle progress via the on_cycle observer instead of
  // wall-clock sleeps: edit after the bootstrap cycle finishes, stop once
  // a cycle has applied an update.
  std::atomic<size_t> cycles_seen{0};
  std::atomic<size_t> updates_seen{0};
  options.on_cycle = [&](const daemon::WatchReport& running) {
    cycles_seen.store(running.cycles);
    updates_seen.store(running.updates);
  };

  Result<daemon::WatchReport> report =
      Status::Internal("watch never returned");
  std::thread watcher(
      [&] { report = daemon::WatchDataset(options); });

  const auto wait_until = [](const std::function<bool()>& done) {
    // Generous ceiling; the wait normally ends within a poll or two.
    for (int i = 0; i < 3000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
  };
  ASSERT_TRUE(wait_until([&] { return cycles_seen.load() >= 1; }))
      << "bootstrap cycle never completed";
  Dataset fresh = MakeLabeledDataset(1, 555);
  fresh.scenes.front().set_name(dataset.scenes[1].name());
  ASSERT_TRUE(io::SaveScene(fresh.scenes.front(),
                            dir + "/" + dataset.scenes[1].name() +
                                ".fixy.json")
                  .ok());
  ASSERT_TRUE(wait_until([&] { return updates_seen.load() >= 1; }))
      << "the edit was never picked up";
  const char stop = 1;
  ASSERT_EQ(::write(stop_pipe[1], &stop, 1), 1);
  watcher.join();
  ::close(stop_pipe[0]);
  ::close(stop_pipe[1]);

  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->cycles, 2u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->updates, 1u);
  EXPECT_EQ(report->scenes_encoded, 1u);  // only the edited scene
  EXPECT_EQ(report->folds, 1u);
  // Bootstrap ranked all 4 scenes, the update exactly 1 more.
  EXPECT_EQ(report->scenes_ranked, 5u);
  // The fold persisted the model with stats intact.
  Fixy reloaded;
  ASSERT_TRUE(reloaded.LoadModel(model_path).ok());
}

TEST(WatchTest, SurvivesSeededCorruptionSweep) {
  const std::string dir = TempDir();
  Dataset dataset = MakeLabeledDataset(3, 37);
  ASSERT_TRUE(io::SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(io::BuildFxbCache(dir).ok());
  const std::string pristine_cache = ReadFile(io::FxbCachePath(dir));

  const std::string model_path = dir + "/model.json";
  {
    Fixy engine;
    ASSERT_TRUE(engine.Learn(dataset).ok());
    ASSERT_TRUE(engine.SaveModel(model_path).ok());
  }

  daemon::WatchOptions options;
  options.data_dir = dir;
  options.model_path = model_path;
  options.poll_interval_ms = 0;
  options.max_cycles = 2;
  options.apps = {"missing-tracks"};
  options.batch.num_threads = 1;
  options.quiet = true;

  // Corrupted cache containers: every kind, several seeds — the watch
  // loop must repair (rebuild) or ride through each one, never crash.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    fixy::testing::DocumentCorruptor corruptor(seed);
    const fixy::testing::CorruptionResult corruption =
        corruptor.CorruptBinary(pristine_cache);
    WriteFile(io::FxbCachePath(dir), corruption.document);
    const auto report = daemon::WatchDataset(options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.status();
    // Whatever the mutation did, the loop must leave a fresh cache behind.
    EXPECT_TRUE(io::OpenFreshCache(dir).ok()) << "seed " << seed;
  }

  // A corrupt *source* file: the cycle fails (or quarantines the scene),
  // is counted, and the loop keeps polling; restoring the source heals it.
  const std::string victim =
      dir + "/" + dataset.scenes[0].name() + ".fixy.json";
  const std::string good_scene = ReadFile(victim);
  WriteFile(victim, good_scene.substr(0, good_scene.size() / 2));
  const auto wounded = daemon::WatchDataset(options);
  ASSERT_TRUE(wounded.ok()) << wounded.status();
  WriteFile(victim, good_scene);
  const auto healed = daemon::WatchDataset(options);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(io::OpenFreshCache(dir).ok());
}

#endif  // POSIX

}  // namespace
}  // namespace fixy
