// The fault-injection harness (robustness tentpole): seeded corrupted
// .fixy documents driven through the full parse -> validate -> rank
// pipeline. The contract under test: hostile input is either rejected
// with a Status at the ingestion boundary or scored normally — never a
// crash, abort, non-finite score, or poisoned neighbour in a batch.
//
// Run under FIXY_SANITIZE=address and =thread (tools/check.sh) to turn
// latent UB on these paths into hard failures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "sim/generate.h"
#include "testing/document_corruptor.h"

namespace fixy {
namespace {

// The paper applications, picked by seed so the sweeps cover all three.
constexpr const char* kPaperApps[] = {"missing-tracks", "missing-obs",
                                      "model-errors"};

// Joins a corruption history for failure messages.
std::string Describe(const testing::CorruptionResult& corruption) {
  std::string out;
  for (const std::string& m : corruption.mutations) {
    if (!out.empty()) out += ", ";
    out += m;
  }
  return out;
}

// gtest's ASSERT_* macros only work in void functions; this keeps the
// boolean return of DriveThroughPipeline while still failing loudly.
#define ASSERT_OK_OR_RETURN(result, seed, description)                 \
  do {                                                                 \
    if (!(result).ok()) {                                              \
      EXPECT_TRUE((result).ok())                                       \
          << "seed=" << (seed) << " mutations=[" << (description)      \
          << "] rank failed: " << (result).status();                   \
      return true;                                                     \
    }                                                                  \
  } while (0)

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small scenes keep 1000+ corruption rounds fast; the document still
    // exercises every schema element (frames, ego, observations, boxes).
    sim::SimProfile profile = sim::LyftLikeProfile();
    profile.world.duration_seconds = 2.0;
    profile.world.mean_object_count = 6.0;

    fixy_ = new Fixy();
    const sim::GeneratedDataset training =
        sim::GenerateDataset(profile, "fuzz_train", 3, 911);
    ASSERT_TRUE(fixy_->Learn(training.dataset).ok());

    base_documents_ = new std::vector<std::string>();
    for (int i = 0; i < 4; ++i) {
      const sim::GeneratedScene generated = sim::GenerateScene(
          profile, "fuzz_base_" + std::to_string(i), 1000 + i);
      base_documents_->push_back(io::SceneToString(generated.scene));
    }
  }

  static void TearDownTestSuite() {
    delete fixy_;
    delete base_documents_;
    fixy_ = nullptr;
    base_documents_ = nullptr;
  }

  // Runs one corrupted document through the pipeline; returns true if it
  // survived to ranking. Any crash/abort fails the whole binary; this
  // only asserts score sanity on the survivors.
  static bool DriveThroughPipeline(const std::string& document,
                                   uint64_t seed,
                                   const std::string& description) {
    Result<Scene> scene = io::SceneFromString(document);
    if (!scene.ok()) return false;  // rejected at the ingestion boundary

    Dataset dataset;
    dataset.scenes.push_back(*scene);
    const Result<MultiAppReport> report = fixy_->RankDataset(
        dataset, {kPaperApps[seed % 3]}, BatchOptions{1});
    ASSERT_OK_OR_RETURN(report, seed, description);
    for (const SceneOutcome& outcome : report->reports[0].outcomes) {
      if (!outcome.ok()) continue;  // quarantined: also acceptable
      for (const ErrorProposal& p : outcome.proposals) {
        EXPECT_TRUE(std::isfinite(p.score))
            << "seed=" << seed << " mutations=[" << description
            << "] produced non-finite score";
      }
    }
    return true;
  }

  static Fixy* fixy_;
  static std::vector<std::string>* base_documents_;
};

Fixy* FaultInjectionTest::fixy_ = nullptr;
std::vector<std::string>* FaultInjectionTest::base_documents_ = nullptr;

// The corruptor itself is deterministic: same seed, same document, same
// mutations and output.
TEST_F(FaultInjectionTest, CorruptorIsDeterministic) {
  const std::string& doc = base_documents_->front();
  for (uint64_t seed : {0u, 1u, 42u, 977u}) {
    fixy::testing::DocumentCorruptor a(seed);
    fixy::testing::DocumentCorruptor b(seed);
    const auto ra = a.Corrupt(doc);
    const auto rb = b.Corrupt(doc);
    EXPECT_EQ(ra.document, rb.document) << "seed=" << seed;
    EXPECT_EQ(ra.mutations, rb.mutations) << "seed=" << seed;
  }
}

// The acceptance gate: >= 1000 seeded corrupted documents through
// parse -> validate -> rank with zero crashes, aborts, or non-finite
// scores. Also sanity-checks the corruptor: some documents must die at
// the parser, some must survive all the way to ranking — otherwise the
// corruptor is either too destructive or a no-op and the test would be
// vacuous.
TEST_F(FaultInjectionTest, ThousandCorruptedDocumentsNeverCrashThePipeline) {
  constexpr uint64_t kRounds = 1200;
  size_t rejected = 0;
  size_t ranked = 0;
  for (uint64_t seed = 0; seed < kRounds; ++seed) {
    fixy::testing::DocumentCorruptor corruptor(seed);
    const std::string& base =
        (*base_documents_)[seed % base_documents_->size()];
    const fixy::testing::CorruptionResult corruption =
        corruptor.Corrupt(base);
    if (DriveThroughPipeline(corruption.document, seed,
                             Describe(corruption))) {
      ++ranked;
    } else {
      ++rejected;
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fatal failure at seed " << seed << " mutations=["
             << Describe(corruption) << "]";
    }
  }
  EXPECT_EQ(rejected + ranked, kRounds);
  // Corruptor sanity: both outcomes must actually occur.
  EXPECT_GT(rejected, 0u) << "no corrupted document was ever rejected";
  EXPECT_GT(ranked, 0u) << "no corrupted document ever survived to rank";
}

// Every corruption kind individually, across many seeds — narrower than
// the big sweep, but failures pin directly to one mutation family.
TEST_F(FaultInjectionTest, EachCorruptionKindIsSurvivable) {
  using fixy::testing::CorruptionKind;
  const CorruptionKind kinds[] = {
      CorruptionKind::kTruncate,     CorruptionKind::kByteNoise,
      CorruptionKind::kTypeFlip,     CorruptionKind::kFieldDrop,
      CorruptionKind::kNumberInjection, CorruptionKind::kDuplicateId,
  };
  for (const CorruptionKind kind : kinds) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      fixy::testing::DocumentCorruptor corruptor(seed);
      std::string detail;
      const std::string mutated = corruptor.Apply(
          kind, base_documents_->front(), &detail);
      DriveThroughPipeline(mutated, seed,
                           std::string(ToString(kind)) + ": " + detail);
    }
  }
}

// Batch poisoning, fuzz edition: corrupted documents that survive parsing
// share a batch with a clean scene; the clean scene's proposals must be
// byte-identical to ranking it alone, for serial and parallel runs.
TEST_F(FaultInjectionTest, SurvivingCorruptScenesNeverPoisonCleanScene) {
  sim::SimProfile profile = sim::LyftLikeProfile();
  profile.world.duration_seconds = 2.0;
  profile.world.mean_object_count = 6.0;
  const sim::GeneratedScene clean =
      sim::GenerateScene(profile, "fuzz_clean", 4242);

  // Reference: the clean scene ranked alone.
  Dataset solo;
  solo.scenes.push_back(clean.scene);
  const auto reference =
      fixy_->RankDataset(solo, {"missing-tracks"}, BatchOptions{1});
  ASSERT_TRUE(reference.ok());

  // Collect survivors until the batch has a few hostile neighbours.
  Dataset mixed;
  for (uint64_t seed = 5000; seed < 5400 && mixed.scenes.size() < 6;
       ++seed) {
    fixy::testing::DocumentCorruptor corruptor(seed);
    const fixy::testing::CorruptionResult corruption = corruptor.Corrupt(
        (*base_documents_)[seed % base_documents_->size()]);
    Result<Scene> scene = io::SceneFromString(corruption.document);
    if (!scene.ok()) continue;
    scene->set_name("hostile_" + std::to_string(seed));
    mixed.scenes.push_back(std::move(*scene));
  }
  ASSERT_FALSE(mixed.scenes.empty())
      << "no corrupted document survived parsing; corruptor too destructive";
  mixed.scenes.push_back(clean.scene);
  const size_t clean_index = mixed.scenes.size() - 1;

  for (const int threads : {1, 4}) {
    const auto result = fixy_->RankDataset(
        mixed, {"missing-tracks"}, BatchOptions{threads});
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    const SceneOutcome& outcome = result->reports[0].outcomes[clean_index];
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.proposals.size(),
              reference->reports[0].outcomes[0].proposals.size());
    for (size_t i = 0; i < outcome.proposals.size(); ++i) {
      EXPECT_EQ(outcome.proposals[i].score,
                reference->reports[0].outcomes[0].proposals[i].score);
      EXPECT_EQ(outcome.proposals[i].track_id,
                reference->reports[0].outcomes[0].proposals[i].track_id);
    }
  }
}

// ---- Binary (FXB) fault injection ----

// A small multi-scene dataset encoded once; every binary corruption test
// mutates copies of this blob.
const std::string& BaseFxbBlob() {
  static const std::string* blob = [] {
    sim::SimProfile profile = sim::LyftLikeProfile();
    profile.world.duration_seconds = 2.0;
    profile.world.mean_object_count = 6.0;
    Dataset dataset;
    dataset.name = "fuzz_fxb";
    for (int i = 0; i < 4; ++i) {
      dataset.scenes.push_back(
          sim::GenerateScene(profile, "fxb_base_" + std::to_string(i),
                             2000 + i)
              .scene);
    }
    std::vector<io::FxbSourceRecord> sources;
    for (const Scene& scene : dataset.scenes) {
      sources.push_back({scene.name() + ".fixy.json", 1 << 18, 99,
                         static_cast<uint32_t>(sources.size() + 1)});
    }
    sources.push_back({"manifest.json", 256, 100, 5});
    auto encoded = io::EncodeFxbDataset(dataset, sources);
    if (!encoded.ok()) std::abort();
    return new std::string(std::move(*encoded));
  }();
  return *blob;
}

TEST_F(FaultInjectionTest, BinaryCorruptorIsDeterministic) {
  const std::string& blob = BaseFxbBlob();
  for (uint64_t seed : {0u, 7u, 123u, 991u}) {
    fixy::testing::DocumentCorruptor a(seed);
    fixy::testing::DocumentCorruptor b(seed);
    const auto ra = a.CorruptBinary(blob);
    const auto rb = b.CorruptBinary(blob);
    EXPECT_EQ(ra.document, rb.document) << "seed=" << seed;
    EXPECT_EQ(ra.mutations, rb.mutations) << "seed=" << seed;
  }
}

// The binary acceptance gate: >= 500 seeded corrupted FXB containers
// through open -> decode -> streaming rank with zero crashes. For every
// container that opens, the streaming report must quarantine exactly the
// scenes whose decode fails (counted independently beforehand) and score
// the rest with finite scores.
TEST_F(FaultInjectionTest, CorruptedFxbContainersNeverCrashStreamingRank) {
  constexpr uint64_t kRounds = 600;
  const std::string& blob = BaseFxbBlob();
  size_t rejected_at_open = 0;
  size_t opened = 0;
  size_t scenes_quarantined = 0;
  size_t scenes_ranked = 0;
  for (uint64_t seed = 0; seed < kRounds; ++seed) {
    fixy::testing::DocumentCorruptor corruptor(seed);
    const fixy::testing::CorruptionResult corruption =
        corruptor.CorruptBinary(blob);
    auto reader = io::FxbReader::FromBuffer(corruption.document);
    if (!reader.ok()) {
      // Header/index-level rejection: the valid outcome for mutations
      // that damage the container rather than one section.
      ++rejected_at_open;
      continue;
    }
    ++opened;
    const io::FxbSceneSource source(std::move(*reader));
    // Count decode failures independently of the engine.
    size_t expected_failures = 0;
    for (size_t i = 0; i < source.scene_count(); ++i) {
      if (!source.DecodeScene(i).ok()) ++expected_failures;
    }
    const auto report = fixy_->RankDatasetStreaming(
        source, {kPaperApps[seed % 3]},
        BatchOptions{static_cast<int>(seed % 4) + 1});
    ASSERT_TRUE(report.ok())
        << "seed=" << seed << " mutations=[" << Describe(corruption)
        << "] streaming rank failed: " << report.status();
    const BatchReport& solo = report->reports[0];
    EXPECT_EQ(solo.scenes_quarantined, expected_failures)
        << "seed=" << seed << " mutations=[" << Describe(corruption) << "]";
    scenes_quarantined += solo.scenes_quarantined;
    scenes_ranked += solo.scenes_ok;
    for (const SceneOutcome& outcome : solo.outcomes) {
      if (!outcome.ok()) continue;
      for (const ErrorProposal& p : outcome.proposals) {
        EXPECT_TRUE(std::isfinite(p.score))
            << "seed=" << seed << " mutations=[" << Describe(corruption)
            << "] produced non-finite score";
      }
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fatal failure at seed " << seed << " mutations=["
             << Describe(corruption) << "]";
    }
  }
  // Corruptor sanity: all three fates must actually occur — containers
  // rejected at open, scenes quarantined at decode, and scenes ranked.
  EXPECT_GT(rejected_at_open, 0u) << "no container was ever rejected";
  EXPECT_GT(opened, 0u) << "every container was rejected at open";
  EXPECT_GT(scenes_quarantined, 0u) << "no scene was ever quarantined";
  EXPECT_GT(scenes_ranked, 0u) << "no scene ever survived to rank";
}

// Every binary corruption kind individually, across many seeds.
TEST_F(FaultInjectionTest, EachBinaryCorruptionKindIsSurvivable) {
  using fixy::testing::BinaryCorruptionKind;
  const std::string& blob = BaseFxbBlob();
  const BinaryCorruptionKind kinds[] = {
      BinaryCorruptionKind::kHeaderTruncate,
      BinaryCorruptionKind::kTruncate,
      BinaryCorruptionKind::kByteFlip,
      BinaryCorruptionKind::kChecksumFlip,
      BinaryCorruptionKind::kVersionBump,
      BinaryCorruptionKind::kSectionLengthLie,
      BinaryCorruptionKind::kSourceMapFlip,
      BinaryCorruptionKind::kSourceRecordLie,
  };
  for (const BinaryCorruptionKind kind : kinds) {
    for (uint64_t seed = 0; seed < 30; ++seed) {
      fixy::testing::DocumentCorruptor corruptor(seed);
      std::string detail;
      const std::string mutated = corruptor.ApplyBinary(kind, blob, &detail);
      auto reader = io::FxbReader::FromBuffer(mutated);
      if (!reader.ok()) continue;  // rejected at open: acceptable
      const io::FxbSceneSource source(std::move(*reader));
      const auto report = fixy_->RankDatasetStreaming(
          source, {"missing-tracks"}, BatchOptions{2});
      ASSERT_TRUE(report.ok())
          << ToString(kind) << ": " << detail << " seed=" << seed << ": "
          << report.status();
    }
  }
}

// kChecksumFlip's isolation contract: exactly one scene's checksum fails;
// its neighbours decode and rank.
TEST_F(FaultInjectionTest, ChecksumFlipQuarantinesExactlyOneScene) {
  using fixy::testing::BinaryCorruptionKind;
  const std::string& blob = BaseFxbBlob();
  size_t observed = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    fixy::testing::DocumentCorruptor corruptor(seed);
    std::string detail;
    const std::string mutated =
        corruptor.ApplyBinary(BinaryCorruptionKind::kChecksumFlip, blob,
                              &detail);
    auto reader = io::FxbReader::FromBuffer(mutated);
    ASSERT_TRUE(reader.ok()) << detail << ": " << reader.status();
    const io::FxbSceneSource source(std::move(*reader));
    const auto report = fixy_->RankDatasetStreaming(
        source, {"missing-tracks"}, BatchOptions{1});
    ASSERT_TRUE(report.ok()) << detail;
    // The flipped byte may land in a scene name or padding and keep the
    // section decodable only if it still checksums — it cannot, so at
    // most one scene fails, and usually exactly one.
    EXPECT_LE(report->reports[0].scenes_quarantined, 1u) << detail;
    observed += report->reports[0].scenes_quarantined;
  }
  EXPECT_GT(observed, 0u) << "checksum-flip never quarantined a scene";
}

#undef ASSERT_OK_OR_RETURN

}  // namespace
}  // namespace fixy
