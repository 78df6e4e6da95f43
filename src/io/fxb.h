// FXB: the binary scene cache format, plus the dataset-directory cache
// workflow built on it.
//
// FXB amortizes JSON parse cost: `fixy_cli cache` converts a dataset
// directory's `.fixy.json` scene files into one `dataset.fxb` container,
// and `rank` then decodes each scene with a handful of bounded memcpys
// from a memory-mapped file instead of a JSON DOM walk.
//
// On-disk layout, format version 4 (all integers and doubles
// little-endian; byte-level table in DESIGN.md §9):
//
//   header   40 bytes: magic "FXB1", format version, scene count,
//            dataset-name length, index offset, source record count,
//            index CRC32, source map CRC32, header CRC32.
//   name     dataset name bytes, immediately after the header.
//   scenes   one section per scene, columnar: frame columns (index,
//            timestamp, ego x/y/yaw, per-frame observation count) then
//            observation columns (id, source, class, confidence, box
//            cx/cy/cz/l/w/h/yaw), each a contiguous array decoded with
//            one bounded memcpy. An observation's frame is the one whose
//            count covers it; no column repeats its index or timestamp.
//   index    scene_count entries of {offset, length, crc32} locating and
//            checksumming each scene section independently, so one
//            corrupt section quarantines one scene, not the file.
//   sources  source record count entries of {u32 name_len, name bytes,
//            u64 size, u64 mtime_ns, u32 crc32-of-source-bytes}: record
//            i < scene_count fingerprints scene i's JSON file, the
//            records after that cover the non-scene sources (the
//            manifest, last). This per-file map is the cache's only
//            freshness record: OpenFreshCache compares it with a stat of
//            every source, and UpdateFxbCache re-encodes only the scenes
//            whose record changed.
//
// Every reader path returns Status on truncated / corrupt /
// version-mismatched input and never aborts (DESIGN.md §9's validation
// ladder). Doubles are stored bit-exact, so a cache round-trip is
// bit-identical to the JSON load it was built from. One loop writes every
// cache (BuildFxbCache, BuildFxbCacheFromDataset and UpdateFxbCache), so
// an update is byte-identical to a from-scratch build over the same
// source state.
#ifndef FIXY_IO_FXB_H_
#define FIXY_IO_FXB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/scene.h"
#include "data/scene_source.h"
#include "io/mapped_file.h"

namespace fixy::io {

// ---- Layout constants (exported for DESIGN.md §9, tests, and the
// binary corruptor in src/testing). ----
inline constexpr char kFxbMagic[4] = {'F', 'X', 'B', '1'};
inline constexpr uint32_t kFxbVersion = 4;
inline constexpr size_t kFxbHeaderSize = 40;
inline constexpr size_t kFxbVersionOffset = 4;        // u32
inline constexpr size_t kFxbSceneCountOffset = 8;     // u32
inline constexpr size_t kFxbNameBytesOffset = 12;     // u32
inline constexpr size_t kFxbIndexOffsetOffset = 16;   // u64
inline constexpr size_t kFxbSourceCountOffset = 24;   // u32, source records
inline constexpr size_t kFxbIndexCrcOffset = 28;      // u32
inline constexpr size_t kFxbSourceMapCrcOffset = 32;  // u32
inline constexpr size_t kFxbHeaderCrcOffset = 36;     // u32, CRC of [0,36)
/// One index entry: u64 offset, u64 length, u32 crc32, u32 reserved.
inline constexpr size_t kFxbIndexEntrySize = 24;
inline constexpr size_t kFxbIndexEntryCrcOffset = 16;
/// Fixed tail of one source record after its name: u64 size, u64
/// mtime_ns, u32 crc32.
inline constexpr size_t kFxbSourceRecordTailSize = 20;

/// Whole-directory summary of a dataset's JSON sources (file count, total
/// bytes, newest nanosecond mtime), from ComputeSourceFingerprint. No
/// cache records it: the per-file source map decides freshness.
struct FxbSourceFingerprint {
  uint64_t file_count = 0;
  uint64_t total_bytes = 0;
  uint64_t max_mtime_ns = 0;

  bool operator==(const FxbSourceFingerprint&) const = default;
};

/// One source file's fingerprint in the per-scene source map: name
/// relative to the dataset directory, byte size, nanosecond mtime, and
/// CRC32 of the file's bytes (0 in a stat-only record, which is what
/// StatSourceRecord returns).
struct FxbSourceRecord {
  std::string file;
  uint64_t size = 0;
  uint64_t mtime_ns = 0;
  uint32_t crc = 0;

  bool operator==(const FxbSourceRecord&) const = default;
};

/// Stats one source file, `directory`/`file`, into a stat-only record.
/// fixyd compares a resident dataset's records one file at a time with
/// it. Errors: IoError when the file cannot be stat'd.
Result<FxbSourceRecord> StatSourceRecord(const std::string& directory,
                                         const std::string& file);

/// Stats every source file of `directory`: the manifest's scene files in
/// manifest order, then the manifest itself as the final record. Errors:
/// IoError / InvalidArgument when the manifest is unreadable or
/// malformed, or a listed file cannot be stat'd.
Result<std::vector<FxbSourceRecord>> CollectSourceRecords(
    const std::string& directory);

/// One scene section of an FXB container and the CRC-32 its index entry
/// records for it.
struct FxbSection {
  std::string_view bytes;
  uint32_t crc = 0;
};

/// Serializes `dataset` into an FXB container blob (header + name +
/// sections + index + source map). `sources` must hold one record per
/// scene (record i fingerprints scene i's source file) followed by at
/// least one non-scene record (the manifest). Errors: InvalidArgument
/// when a scene exceeds the format's u32 frame/observation counts or
/// `sources` is shorter than the scene list.
Result<std::string> EncodeFxbDataset(const Dataset& dataset,
                                     const std::vector<FxbSourceRecord>& sources);

/// An open FXB container. Opening validates the header, magic, version,
/// header CRC, and index CRC; scene sections are bounds-checked and
/// CRC-verified individually on decode, so a corrupt section fails only
/// its own scene. Thread-safe for concurrent DecodeScene calls.
class FxbReader {
 public:
  /// Opens `path`, memory-mapping it when possible (buffered-read
  /// fallback otherwise; `force_buffered` skips the mmap attempt).
  /// Records `io.fxb.bytes_mapped` when the file was actually mapped.
  static Result<FxbReader> Open(const std::string& path,
                                bool force_buffered = false);

  /// Reads a container from an in-memory blob (tests, fault injection).
  static Result<FxbReader> FromBuffer(std::string blob);

  size_t scene_count() const { return index_.size(); }
  const std::string& dataset_name() const { return dataset_name_; }
  /// The per-file source map recorded at build time: one record per
  /// scene (same order as the scene index), then the non-scene sources
  /// (manifest last).
  const std::vector<FxbSourceRecord>& sources() const { return sources_; }
  bool is_mapped() const { return file_.is_mapped(); }

  /// Decodes scene `index`: section bounds check, CRC32 verification
  /// (`io.fxb.checksum_failures` on mismatch), column decode, and
  /// Scene::Validate. Records `io.fxb.scenes_decoded` on success.
  Result<Scene> DecodeScene(size_t index) const;

  /// Best-effort scene name read from the section header without
  /// checksumming the section; "scene#<i>" when unreadable.
  std::string SceneNameHint(size_t index) const;

  /// Scene `index`'s section after the bounds check and one CRC-32 pass
  /// against its index entry (`io.fxb.checksum_failures` on mismatch),
  /// without decoding. `bytes` views the reader's own mapping or buffer
  /// and stays valid while the reader lives; `crc` is the index's CRC,
  /// just checked against those bytes. UpdateFxbCache writes an unchanged
  /// scene from this view and indexes it under this CRC.
  Result<FxbSection> SceneSection(size_t index) const;

 private:
  struct IndexEntry {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
  };

  static Result<FxbReader> Parse(FxbReader reader);

  std::string_view data() const {
    return buffer_.empty() ? file_.data() : std::string_view(buffer_);
  }

  MappedFile file_;
  std::string buffer_;  // FromBuffer storage
  std::string dataset_name_;
  std::vector<IndexEntry> index_;
  std::vector<FxbSourceRecord> sources_;
};

/// `<directory>/dataset.fxb`, the cache file `fixy_cli cache` maintains.
std::string FxbCachePath(const std::string& directory);

/// Fingerprints the JSON source files of `directory` (manifest.json plus
/// every scene file it lists). Errors: IoError / InvalidArgument when the
/// manifest is unreadable or malformed.
Result<FxbSourceFingerprint> ComputeSourceFingerprint(
    const std::string& directory);

/// Builds `directory`'s cache from scratch: UpdateFxbCache's loop with no
/// old cache to reuse. Each scene file is read once; its recorded CRC and
/// its parse come from the same bytes, and every encoded section must
/// decode back to a scene BitIdentical to its parse before the atomic
/// write of dataset.fxb. Returns the scene count. Errors: the source
/// files' read/parse errors, Internal ("FXB parity check failed") when a
/// section does not decode back to its scene, IoError for the write.
Result<size_t> BuildFxbCache(const std::string& directory);

/// BuildFxbCache for a dataset that was just saved to `directory`
/// (SaveDataset must have run first): the same loop, but each section is
/// encoded from the in-memory scene instead of a parse of its file, which
/// matters when generating 100k+ scene synthetic datasets. The files are
/// still read once each for their recorded CRCs. The result is
/// byte-identical to BuildFxbCache over the same directory: a section
/// stores only fields the scene's JSON document carries, and JSON
/// round-trips doubles bit-exactly, the sign of a zero included.
/// Errors: InvalidArgument when the on-disk manifest does not list as
/// many scenes as `dataset` holds.
Result<size_t> BuildFxbCacheFromDataset(const Dataset& dataset,
                                        const std::string& directory);

/// Why (and whether) a cache no longer matches its sources: one
/// human-readable sentence per detected difference, none when fresh.
struct CacheStaleness {
  std::vector<std::string> reasons;

  bool stale() const { return !reasons.empty(); }
  /// The reasons joined with "; " ("cache is fresh" when not stale).
  std::string Summary() const;
};

/// Diffs two source record lists, `recorded` (a cache's source map, or a
/// resident dataset's records) against `current`, per file: added,
/// removed, resized, touched, and, when both records carry a CRC,
/// rewritten behind an unchanged size and mtime. A stat-only record
/// (crc == 0) compares by size and mtime.
CacheStaleness CompareCacheSources(
    const std::vector<FxbSourceRecord>& recorded,
    const std::vector<FxbSourceRecord>& current);

/// Opens `directory`'s cache iff it exists and is fresh: its source map
/// compared with one stat of every source. Errors: NotFound (no cache),
/// FailedPrecondition ("<path> is stale: " and why: the per-file reasons,
/// or the unsupported format version), or the underlying open/parse error
/// (InvalidArgument for a bad magic or a truncated header).
/// OpenSceneSource falls back to the JSON files on every one of them.
Result<FxbReader> OpenFreshCache(const std::string& directory);

/// What UpdateFxbCache did, and why.
struct FxbUpdateReport {
  size_t scenes_total = 0;    // scenes in the refreshed cache
  size_t scenes_reused = 0;   // sections written from the old cache
  size_t scenes_encoded = 0;  // added or changed, re-encoded from JSON
  size_t scenes_dropped = 0;  // removed from the manifest since the build
  bool rebuilt = false;       // no usable cache: every scene was encoded
  /// The reasons the update acted on: per-file source changes, damaged
  /// sections, or why there was no cache to reuse. Not stale() exactly
  /// when the update wrote nothing.
  CacheStaleness staleness;
  std::vector<std::string> encoded_files;
};

/// Refreshes `directory`'s cache in one pass over its manifest. A scene
/// whose source record matches the one the cache recorded (by size and
/// mtime; a file whose stat moved is read once and compared by CRC, so a
/// touched-but-identical file still matches) keeps its section, written
/// straight from the old mapping after one CRC check; a section that
/// fails it is re-encoded. Every other scene is encoded from the one read
/// of its JSON, parity-checked like BuildFxbCache's; scenes removed from
/// the manifest drop. `verify_contents` reads and CRCs every source,
/// which catches the one edit a stat cannot see, a same-size rewrite
/// whose mtime was restored, and re-encodes only that scene. Nothing is
/// written when every record matches and every reused section passes its
/// check. With no usable cache (missing, corrupt, or another format
/// version) every scene is encoded (`rebuilt`). The result is
/// byte-identical to BuildFxbCache over the same source state. Errors:
/// the source files' read/parse errors, Internal for a failed parity
/// check, IoError for the write.
Result<FxbUpdateReport> UpdateFxbCache(const std::string& directory,
                                       bool verify_contents = false);

/// FXB-backed SceneSource for the streaming ranking pipeline.
class FxbSceneSource : public SceneSource {
 public:
  explicit FxbSceneSource(FxbReader reader)
      : reader_(std::make_shared<FxbReader>(std::move(reader))) {}

  size_t scene_count() const override { return reader_->scene_count(); }
  std::string scene_name(size_t index) const override {
    return reader_->SceneNameHint(index);
  }
  Result<Scene> DecodeScene(size_t index) const override {
    return reader_->DecodeScene(index);
  }
  const FxbReader& reader() const { return *reader_; }

 private:
  std::shared_ptr<FxbReader> reader_;
};

/// JSON SceneSource: decodes `<directory>/<file>.fixy.json` scene files
/// (as listed by manifest.json) one at a time, on whichever thread asks.
class DirectorySceneSource : public SceneSource {
 public:
  /// Reads the manifest and records the scene file list; scene files
  /// themselves are only touched by DecodeScene.
  static Result<DirectorySceneSource> Open(const std::string& directory);

  size_t scene_count() const override { return files_.size(); }
  std::string scene_name(size_t index) const override;
  Result<Scene> DecodeScene(size_t index) const override;

 private:
  std::string directory_;
  std::vector<std::string> files_;
};

/// Opens a dataset directory as a SceneSource: the fresh FXB cache when
/// there is one, the JSON scene files otherwise — whenever OpenFreshCache
/// fails, whether the cache is missing, stale, or rejected at open. The
/// one source policy of `fixy_cli rank` and fixyd. When `cache_status` is
/// given it receives OpenFreshCache's status (Ok when the cache is used),
/// so a caller can say why the cache was not. Errors: only the JSON
/// side's, i.e. whatever reading the manifest fails with.
Result<std::unique_ptr<SceneSource>> OpenSceneSource(
    const std::string& directory, Status* cache_status = nullptr);

/// Records every `io.fxb.*` counter and timer at zero on the calling
/// thread's collector, so metric snapshots carry a stable key set whether
/// or not the cache path ran (the schema golden depends on this).
void RecordFxbMetricsSchema();

}  // namespace fixy::io

#endif  // FIXY_IO_FXB_H_
