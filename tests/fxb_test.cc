// Tests for src/io/fxb: encode/decode round-trips, header and section
// validation on corrupt input, the mmap/buffered parity contract, and the
// dataset-directory cache workflow (build, fresh open, staleness).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "common/file_util.h"
#include "io/fxb.h"
#include "io/mapped_file.h"
#include "io/scene_io.h"
#include "obs/metrics.h"

namespace fixy::io {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source, double x,
                    double confidence = 1.0) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = ObjectClass::kTruck;
  obs.box = geom::Box3d({x, -2.5, 1.6}, 8.1, 2.8, 3.2, 0.31);
  obs.confidence = confidence;
  return obs;
}

Scene MakeScene(const std::string& name, int frames = 4) {
  Scene scene(name, 5.0);
  ObservationId id = 1;
  for (int f = 0; f < frames; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f / 5.0;
    frame.ego_position = {1.6 * f, 0.25};
    frame.ego_yaw = 0.01 * f;
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kHuman, 12.0 + f));
    frame.observations.push_back(
        MakeObs(id++, ObservationSource::kModel, 12.1 + f, 0.87));
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

Dataset MakeDataset(int scenes = 3) {
  Dataset dataset;
  dataset.name = "fxb_test";
  for (int i = 0; i < scenes; ++i) {
    dataset.scenes.push_back(MakeScene("scene_" + std::to_string(i), 3 + i));
  }
  return dataset;
}

// Fabricated per-scene source records for in-memory blobs (no files on
// disk to stat): one per scene plus the manifest, with distinct
// size/mtime/crc values so map round-trips are observable.
std::vector<FxbSourceRecord> FakeSources(const Dataset& dataset) {
  std::vector<FxbSourceRecord> sources;
  for (size_t i = 0; i < dataset.scenes.size(); ++i) {
    sources.push_back({dataset.scenes[i].name() + ".fixy.json", 1024 + i,
                       100 + i, static_cast<uint32_t>(7 + i)});
  }
  sources.push_back({"manifest.json", 512, 999, 42});
  return sources;
}

std::string Encode(const Dataset& dataset) {
  auto blob = EncodeFxbDataset(dataset, FakeSources(dataset));
  EXPECT_TRUE(blob.ok()) << blob.status();
  return *blob;
}

std::string TempDir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fixy_fxb_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

// Writes `value` at `offset` and refreshes the header CRC so the mutation
// reaches its own validation path rather than the checksum check.
template <typename T>
void PokeHeader(std::string* blob, size_t offset, T value) {
  std::memcpy(blob->data() + offset, &value, sizeof(T));
  const uint32_t crc = Crc32(blob->data(), kFxbHeaderCrcOffset);
  std::memcpy(blob->data() + kFxbHeaderCrcOffset, &crc, sizeof(crc));
}

TEST(FxbFormatTest, RoundTripPreservesEveryScene) {
  const Dataset dataset = MakeDataset();
  auto reader = FxbReader::FromBuffer(Encode(dataset));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->dataset_name(), "fxb_test");
  EXPECT_EQ(reader->scene_count(), dataset.scenes.size());
  EXPECT_EQ(reader->sources(), FakeSources(dataset));
  for (size_t i = 0; i < dataset.scenes.size(); ++i) {
    const auto scene = reader->DecodeScene(i);
    ASSERT_TRUE(scene.ok()) << scene.status();
    // Bit-exact doubles: the canonical JSON serialization must match too.
    EXPECT_EQ(SceneToString(*scene), SceneToString(dataset.scenes[i]));
    EXPECT_EQ(reader->SceneNameHint(i), dataset.scenes[i].name());
  }
}

TEST(FxbFormatTest, EmptyDatasetRoundTrips) {
  Dataset dataset;
  dataset.name = "empty";
  auto reader = FxbReader::FromBuffer(Encode(dataset));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->scene_count(), 0u);
  EXPECT_EQ(reader->dataset_name(), "empty");
}

TEST(FxbFormatTest, RejectsShortBlob) {
  const auto reader = FxbReader::FromBuffer(std::string(10, 'x'));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(FxbFormatTest, RejectsBadMagic) {
  std::string blob = Encode(MakeDataset(1));
  blob[0] = 'Z';
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(FxbFormatTest, RejectsVersionMismatchWithValidChecksum) {
  std::string blob = Encode(MakeDataset(1));
  PokeHeader<uint32_t>(&blob, kFxbVersionOffset, kFxbVersion + 1);
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("version"), std::string::npos);
}

TEST(FxbFormatTest, RejectsHeaderChecksumMismatch) {
  std::string blob = Encode(MakeDataset(1));
  // Flip a header byte without refreshing the CRC.
  blob[kFxbSceneCountOffset] ^= 0x01;
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FxbFormatTest, RejectsIndexChecksumMismatch) {
  std::string blob = Encode(MakeDataset(2));
  // Flip a byte inside the index region without refreshing the index CRC.
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, blob.data() + kFxbIndexOffsetOffset, 8);
  blob[index_offset + kFxbIndexEntrySize] ^= 0x40;
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FxbFormatTest, RejectsSourceMapChecksumMismatch) {
  std::string blob = Encode(MakeDataset(2));
  // The source map is the tail of the blob; flip its last byte without
  // refreshing the map CRC.
  blob[blob.size() - 1] ^= 0x40;
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reader.status().message().find("source map"), std::string::npos);
}

TEST(FxbFormatTest, RejectsSourceCountBelowSceneCount) {
  std::string blob = Encode(MakeDataset(2));
  PokeHeader<uint32_t>(&blob, kFxbSourceCountOffset, 1);
  const auto reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(FxbFormatTest, SceneSectionVerifiesChecksum) {
  std::string blob = Encode(MakeDataset(2));
  auto reader = FxbReader::FromBuffer(blob);
  ASSERT_TRUE(reader.ok()) << reader.status();
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, blob.data() + kFxbIndexOffsetOffset, 8);
  uint64_t offset = 0;
  for (size_t i = 0; i < 2; ++i) {
    const auto section = reader->SceneSection(i);
    ASSERT_TRUE(section.ok()) << section.status();
    // The section in place, as its index entry locates it, with the
    // entry's CRC, which matches the bytes.
    const char* entry = blob.data() + index_offset + i * kFxbIndexEntrySize;
    uint64_t length = 0;
    uint32_t crc = 0;
    std::memcpy(&offset, entry, 8);
    std::memcpy(&length, entry + 8, 8);
    std::memcpy(&crc, entry + kFxbIndexEntryCrcOffset, 4);
    EXPECT_EQ(section->bytes, std::string_view(blob).substr(offset, length));
    EXPECT_EQ(section->crc, crc);
    EXPECT_EQ(Crc32(section->bytes), crc);
  }
  EXPECT_EQ(reader->SceneSection(5).status().code(), StatusCode::kOutOfRange);

  // One flipped byte in the last section (at `offset`) fails only it.
  blob[offset + 4] ^= 0x10;
  reader = FxbReader::FromBuffer(std::move(blob));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->SceneSection(0).ok());
  EXPECT_EQ(reader->SceneSection(1).status().code(),
            StatusCode::kFailedPrecondition);
}

// A section is its header, 40 bytes a frame (index, timestamp, ego
// x/y/yaw, observation count) and 74 bytes an observation (id, source,
// class, confidence, seven box doubles). No observation column repeats
// its frame's index or timestamp.
TEST(FxbFormatTest, SectionSizeIsFixedPerFrameAndObservation) {
  Dataset dataset;
  dataset.name = "sized";
  dataset.scenes.push_back(MakeScene("sized", 4));  // 8 observations
  auto reader = FxbReader::FromBuffer(Encode(dataset));
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto section = reader->SceneSection(0);
  ASSERT_TRUE(section.ok()) << section.status();
  const size_t header = 4 + std::string("sized").size() + 8 + 4 + 4;
  EXPECT_EQ(section->bytes.size(), header + 4 * 40 + 8 * 74);
}

TEST(FxbFormatTest, RejectsTruncatedBlob) {
  const std::string blob = Encode(MakeDataset(2));
  for (const size_t keep :
       {kFxbHeaderSize, blob.size() / 2, blob.size() - 3}) {
    const auto reader = FxbReader::FromBuffer(blob.substr(0, keep));
    EXPECT_FALSE(reader.ok()) << "survived truncation to " << keep;
  }
}

TEST(FxbFormatTest, CorruptSectionFailsOnlyThatScene) {
  const Dataset dataset = MakeDataset(3);
  std::string blob = Encode(dataset);
  // Locate scene 1's section through the index and damage one byte.
  uint64_t index_offset = 0;
  std::memcpy(&index_offset, blob.data() + kFxbIndexOffsetOffset, 8);
  uint64_t section_offset = 0;
  std::memcpy(&section_offset,
              blob.data() + index_offset + kFxbIndexEntrySize, 8);
  obs::MetricsCollector collector;
  {
    const obs::MetricsScope scope(&collector);
    blob[section_offset + 4] ^= 0x10;
    auto reader = FxbReader::FromBuffer(std::move(blob));
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_TRUE(reader->DecodeScene(0).ok());
    const auto bad = reader->DecodeScene(1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
    EXPECT_TRUE(reader->DecodeScene(2).ok());
  }
  const auto snapshot = collector.Snapshot();
  EXPECT_EQ(snapshot.counters.at("io.fxb.checksum_failures"), 1u);
  EXPECT_EQ(snapshot.counters.at("io.fxb.scenes_decoded"), 2u);
}

TEST(FxbFormatTest, DecodeSceneOutOfRange) {
  auto reader = FxbReader::FromBuffer(Encode(MakeDataset(1)));
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->DecodeScene(1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FxbFormatTest, MappedAndBufferedReadsAgree) {
  const Dataset dataset = MakeDataset(2);
  const std::string dir = TempDir();
  const std::string path = dir + "/roundtrip.fxb";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string blob = Encode(dataset);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  auto mapped = FxbReader::Open(path);
  auto buffered = FxbReader::Open(path, /*force_buffered=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_TRUE(buffered.ok()) << buffered.status();
  EXPECT_FALSE(buffered->is_mapped());
  ASSERT_EQ(mapped->scene_count(), buffered->scene_count());
  for (size_t i = 0; i < mapped->scene_count(); ++i) {
    const auto a = mapped->DecodeScene(i);
    const auto b = buffered->DecodeScene(i);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(SceneToString(*a), SceneToString(*b));
  }
  std::filesystem::remove_all(dir);
}

TEST(MappedFileTest, TruncatedWhileMappingIsIoErrorNotSigbus) {
  const Dataset dataset = MakeDataset(2);
  const std::string dir = TempDir();
  const std::string path = dir + "/truncated.fxb";
  const std::string blob = Encode(dataset);
  const auto write_blob = [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  };

  // Shrink the file inside the stat→mmap window, as a concurrent cache
  // rebuild would. Without the post-map size re-check the mapping would
  // extend past EOF and the first read of the tail would SIGBUS.
  write_blob();
  MappedFile::pre_map_hook_for_test = [](const std::string& p) {
    std::filesystem::resize_file(p, 16);
  };
  const auto mapped = MappedFile::Open(path);
  MappedFile::pre_map_hook_for_test = nullptr;
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);

  // The same race through FxbReader::Open surfaces as a Status too.
  write_blob();
  MappedFile::pre_map_hook_for_test = [](const std::string& p) {
    std::filesystem::resize_file(p, 16);
  };
  const auto reader = FxbReader::Open(path);
  MappedFile::pre_map_hook_for_test = nullptr;
  EXPECT_FALSE(reader.ok());

  // Growth in the same window is harmless: the first st_size bytes are
  // still all there, so the open succeeds and decodes normally.
  write_blob();
  MappedFile::pre_map_hook_for_test = [](const std::string& p) {
    std::ofstream app(p, std::ios::binary | std::ios::app);
    app.write("junk", 4);
  };
  const auto grown = FxbReader::Open(path);
  MappedFile::pre_map_hook_for_test = nullptr;
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_TRUE(grown->DecodeScene(0).ok());

  std::filesystem::remove_all(dir);
}

TEST(FxbFormatTest, OpenMissingFileIsIoError) {
  const auto reader = FxbReader::Open("/nonexistent/path/dataset.fxb");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(FxbCacheTest, BuildFreshStaleRebuild) {
  const Dataset dataset = MakeDataset(2);
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());

  // No cache yet.
  EXPECT_EQ(OpenFreshCache(dir).status().code(), StatusCode::kNotFound);

  auto built = BuildFxbCache(dir);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(*built, dataset.scenes.size());
  EXPECT_TRUE(std::filesystem::exists(FxbCachePath(dir)));

  auto fresh = OpenFreshCache(dir);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->scene_count(), dataset.scenes.size());

  // Growing a source file invalidates the cache through its record.
  {
    std::ofstream out(dir + "/scene_0.fixy.json",
                      std::ios::binary | std::ios::app);
    out << "\n";
  }
  const auto stale = OpenFreshCache(dir);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);

  // Rebuilding restores freshness. (The appended newline is trailing
  // whitespace, which the JSON loader accepts.)
  ASSERT_TRUE(BuildFxbCache(dir).ok());
  EXPECT_TRUE(OpenFreshCache(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(FxbCacheTest, CacheMatchesJsonLoadExactly) {
  const Dataset dataset = MakeDataset(3);
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(BuildFxbCache(dir).ok());
  const auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto reader = OpenFreshCache(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->scene_count(), loaded->scenes.size());
  for (size_t i = 0; i < reader->scene_count(); ++i) {
    const auto scene = reader->DecodeScene(i);
    ASSERT_TRUE(scene.ok()) << scene.status();
    EXPECT_EQ(SceneToString(*scene), SceneToString(loaded->scenes[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST(FxbCacheTest, BuildOnMissingDirectoryFails) {
  EXPECT_FALSE(BuildFxbCache("/nonexistent/fixy/dataset").ok());
}

TEST(FxbCacheTest, SceneSourcesAgree) {
  const Dataset dataset = MakeDataset(2);
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(BuildFxbCache(dir).ok());
  auto reader = OpenFreshCache(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const FxbSceneSource fxb(std::move(*reader));
  auto json_source = DirectorySceneSource::Open(dir);
  ASSERT_TRUE(json_source.ok()) << json_source.status();
  ASSERT_EQ(fxb.scene_count(), json_source->scene_count());
  for (size_t i = 0; i < fxb.scene_count(); ++i) {
    EXPECT_EQ(fxb.scene_name(i), json_source->scene_name(i));
    const auto a = fxb.DecodeScene(i);
    const auto b = json_source->DecodeScene(i);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(SceneToString(*a), SceneToString(*b));
  }
  std::filesystem::remove_all(dir);
}

// OpenSceneSource has one policy: the JSON files are the source of truth,
// so a cache that is missing, stale, or rejected at open (a bad magic)
// falls back to them, and only a broken manifest fails the open.
TEST(FxbCacheTest, OpenSceneSourceFallsBackToJsonOnRejectedCache) {
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(MakeDataset(2), dir).ok());
  const auto is_json = [](const SceneSource& source) {
    return dynamic_cast<const DirectorySceneSource*>(&source) != nullptr;
  };
  auto missing = OpenSceneSource(dir);
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_TRUE(is_json(**missing));

  ASSERT_TRUE(BuildFxbCache(dir).ok());
  auto fresh = OpenSceneSource(dir);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(is_json(**fresh));

  // Junk longer than the 40-byte header, so the magic check rejects it.
  std::ofstream(FxbCachePath(dir), std::ios::binary | std::ios::trunc)
      << std::string(256, 'x');
  EXPECT_EQ(OpenFreshCache(dir).status().code(),
            StatusCode::kInvalidArgument);
  auto rejected = OpenSceneSource(dir);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_TRUE(is_json(**rejected));
  EXPECT_EQ((*rejected)->scene_count(), 2u);

  std::ofstream(dir + "/manifest.json", std::ios::trunc) << "{broken";
  EXPECT_FALSE(OpenSceneSource(dir).ok());
  std::filesystem::remove_all(dir);
}

// Every cache written before the current format version takes this path
// once: it reads as stale (with the refresh hint), rank and fixyd fall
// back to the JSON files, and the update rebuilds it from scratch.
TEST(FxbCacheTest, OlderFormatVersionReadsStaleAndIsRebuilt) {
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(MakeDataset(2), dir).ok());
  ASSERT_TRUE(BuildFxbCache(dir).ok());
  std::string built;
  ASSERT_TRUE(ReadFileInto(FxbCachePath(dir), &built).ok());
  std::string older = built;
  PokeHeader<uint32_t>(&older, kFxbVersionOffset, kFxbVersion - 1);
  ASSERT_TRUE(WriteFileAtomic(FxbCachePath(dir), {older}).ok());

  const auto fresh = OpenFreshCache(dir);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kFailedPrecondition);
  const std::string message = fresh.status().message();
  EXPECT_NE(message.find("unsupported FXB version " +
                         std::to_string(kFxbVersion - 1)),
            std::string::npos)
      << message;
  // The refresh hint names the directory, so `fixy_cli rank` adds it.
  EXPECT_EQ(message.find("fixy_cli cache"), std::string::npos) << message;

  Status cache_status;
  auto source = OpenSceneSource(dir, &cache_status);
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_NE(dynamic_cast<const DirectorySceneSource*>(source->get()),
            nullptr);
  EXPECT_EQ(cache_status.code(), StatusCode::kFailedPrecondition);

  const auto update = UpdateFxbCache(dir);
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_TRUE(update->rebuilt);
  EXPECT_EQ(update->scenes_encoded, 2u);
  std::string updated;
  ASSERT_TRUE(ReadFileInto(FxbCachePath(dir), &updated).ok());
  EXPECT_EQ(updated, built);
  std::filesystem::remove_all(dir);
}

// JSON keeps the sign of a zero, so a scene holding -0.0 caches to the
// same bytes from memory (`sim --fxb`) as from its saved JSON.
TEST(FxbCacheTest, NegativeZeroCachesIdenticallyFromMemoryAndJson) {
  Dataset dataset = MakeDataset(2);
  Frame& frame = dataset.scenes[0].frames()[0];
  frame.timestamp = -0.0;
  frame.ego_position.x = -0.0;
  frame.ego_yaw = -0.0;
  const std::string dir = TempDir();
  ASSERT_TRUE(SaveDataset(dataset, dir).ok());
  ASSERT_TRUE(BuildFxbCacheFromDataset(dataset, dir).ok());
  std::string from_memory;
  ASSERT_TRUE(ReadFileInto(FxbCachePath(dir), &from_memory).ok());
  ASSERT_TRUE(BuildFxbCache(dir).ok());
  std::string from_json;
  ASSERT_TRUE(ReadFileInto(FxbCachePath(dir), &from_json).ok());
  EXPECT_EQ(from_json, from_memory);

  auto reader = OpenFreshCache(dir);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const auto decoded = reader->DecodeScene(0);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(BitIdentical(*decoded, dataset.scenes[0]));
  EXPECT_TRUE(std::signbit(decoded->frames()[0].ego_yaw));
  std::filesystem::remove_all(dir);
}

TEST(FxbMetricsTest, SchemaRecorderZeroTouchesAllKeys) {
  obs::MetricsCollector collector;
  {
    const obs::MetricsScope scope(&collector);
    RecordFxbMetricsSchema();
  }
  const auto snapshot = collector.Snapshot();
  for (const char* key :
       {"io.fxb.bytes_mapped", "io.fxb.cache_hits", "io.fxb.cache_misses",
        "io.fxb.checksum_failures", "io.fxb.scenes_decoded",
        "io.fxb.sections_dropped", "io.fxb.sections_reencoded",
        "io.fxb.sections_reused"}) {
    ASSERT_TRUE(snapshot.counters.count(key)) << key;
    EXPECT_EQ(snapshot.counters.at(key), 0u) << key;
  }
  EXPECT_EQ(snapshot.counters.size(), 8u);
  EXPECT_TRUE(snapshot.timers_ms.empty());
}

}  // namespace
}  // namespace fixy::io
