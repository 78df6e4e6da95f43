// FXB: the binary scene cache format, plus the dataset-directory cache
// workflow built on it.
//
// FXB amortizes JSON parse cost: `fixy_cli cache` converts a dataset
// directory's `.fixy.json` scene files into one `dataset.fxb` container,
// and `rank` then decodes each scene with a handful of bounded memcpys
// from a memory-mapped file instead of a JSON DOM walk.
//
// On-disk layout, format version 2 (all integers and doubles
// little-endian; byte-level table in DESIGN.md §14):
//
//   header   64 bytes: magic "FXB1", format version, scene count,
//            dataset-name length, index offset, source fingerprint
//            (file count / total bytes / max mtime-ns, the whole-cache
//            staleness fast path), source record count, index CRC32,
//            source map CRC32, header CRC32.
//   name     dataset name bytes, immediately after the header.
//   scenes   one section per scene, columnar: frame columns (index,
//            timestamp, ego x/y/yaw, per-frame observation count) then
//            observation columns (id, source, class, confidence, box
//            cx/cy/cz/l/w/h/yaw, frame index, timestamp), each a
//            contiguous array decoded with one bounded memcpy.
//   index    scene_count entries of {offset, length, crc32} locating and
//            checksumming each scene section independently, so one
//            corrupt section quarantines one scene, not the file.
//   sources  source record count entries of {u32 name_len, name bytes,
//            u64 size, u64 mtime_ns, u32 crc32-of-source-bytes}: record
//            i < scene_count fingerprints scene i's JSON file, the
//            records after that cover the non-scene sources (the
//            manifest, last). This per-scene map is what lets
//            UpdateFxbCache re-encode only the scenes whose source
//            actually changed, and it closes the whole-fingerprint
//            staleness blind spot (a same-size edit with a restored
//            mtime still changes the recorded CRC).
//
// Every reader path returns Status on truncated / corrupt /
// version-mismatched input — never aborts (the PR 2 failure-semantics
// ladder). Doubles are stored bit-exact, so a cache round-trip is
// bit-identical to the JSON load it was built from, and an incremental
// UpdateFxbCache is byte-identical to a from-scratch BuildFxbCache over
// the same source state (the encoder is deterministic and both paths
// share one layout function).
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
inline constexpr uint32_t kFxbVersion = 2;
inline constexpr size_t kFxbHeaderSize = 64;
inline constexpr size_t kFxbVersionOffset = 4;        // u32
inline constexpr size_t kFxbSceneCountOffset = 8;     // u32
inline constexpr size_t kFxbNameBytesOffset = 12;     // u32
inline constexpr size_t kFxbIndexOffsetOffset = 16;   // u64
inline constexpr size_t kFxbSourceFilesOffset = 24;   // u64
inline constexpr size_t kFxbSourceBytesOffset = 32;   // u64
inline constexpr size_t kFxbSourceMtimeOffset = 40;   // u64
inline constexpr size_t kFxbSourceCountOffset = 48;   // u32, source records
inline constexpr size_t kFxbIndexCrcOffset = 52;      // u32
inline constexpr size_t kFxbSourceMapCrcOffset = 56;  // u32
inline constexpr size_t kFxbHeaderCrcOffset = 60;     // u32, CRC of [0,60)
/// One index entry: u64 offset, u64 length, u32 crc32, u32 reserved.
inline constexpr size_t kFxbIndexEntrySize = 24;
inline constexpr size_t kFxbIndexEntryCrcOffset = 16;
/// Fixed tail of one source record after its name: u64 size, u64
/// mtime_ns, u32 crc32.
inline constexpr size_t kFxbSourceRecordTailSize = 20;

/// Fingerprint of the JSON source files a cache was built from, recorded
/// in the header and used as the staleness fast path: any file added,
/// removed, resized, or touched since the build changes it. Mtimes are
/// nanosecond-resolution, so a same-size in-place edit lands in the
/// fingerprint even within the same wall-clock second.
struct FxbSourceFingerprint {
  uint64_t file_count = 0;
  uint64_t total_bytes = 0;
  uint64_t max_mtime_ns = 0;

  bool operator==(const FxbSourceFingerprint&) const = default;
};

/// One source file's fingerprint in the per-scene source map: name
/// relative to the dataset directory, byte size, nanosecond mtime, and
/// CRC32 of the file's bytes (0 when the record came from a stat-only
/// pass that did not read contents).
struct FxbSourceRecord {
  std::string file;
  uint64_t size = 0;
  uint64_t mtime_ns = 0;
  uint32_t crc = 0;

  bool operator==(const FxbSourceRecord&) const = default;
};

/// Stats one source file, `directory`/`file`, into a record; reads and
/// CRCs its bytes when `read_contents` (the form recorded at build
/// time). fixyd compares a resident dataset's records one file at a
/// time with it. Errors: IoError when the file cannot be stat'd or read.
Result<FxbSourceRecord> StatSourceRecord(const std::string& directory,
                                         const std::string& file,
                                         bool read_contents);

/// Stats (and optionally reads, for CRCs) every source file of
/// `directory`: the manifest's scene files in manifest order, then the
/// manifest itself as the final record. Errors: IoError / InvalidArgument
/// when the manifest is unreadable or malformed, or a listed file cannot
/// be stat'd.
Result<std::vector<FxbSourceRecord>> CollectSourceRecords(
    const std::string& directory, bool read_contents);

/// Folds per-file records into the whole-cache fast-path fingerprint.
FxbSourceFingerprint FingerprintFromRecords(
    const std::vector<FxbSourceRecord>& records);

/// One scene section of an FXB container and the CRC-32 its index entry
/// records for it.
struct FxbSection {
  std::string_view bytes;
  uint32_t crc = 0;
};

/// Serializes `dataset` into an FXB container blob (header + name +
/// sections + index + source map). `sources` must hold one record per
/// scene (record i fingerprints scene i's source file) followed by at
/// least one non-scene record (the manifest); the header fingerprint is
/// derived from it. Errors: InvalidArgument when a scene exceeds the
/// format's u32 frame/observation counts or `sources` is shorter than
/// the scene list.
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
  const FxbSourceFingerprint& fingerprint() const { return fingerprint_; }
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
  FxbSourceFingerprint fingerprint_;
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

/// Builds (or refreshes) `directory`'s cache: strict JSON load, encode,
/// decode-back parity check (every section decodes to a scene BitIdentical
/// to its JSON load), then an atomic write of dataset.fxb. Returns the
/// scene count. Errors: Internal ("FXB parity check failed") when a
/// section does not decode back to its scene.
Result<size_t> BuildFxbCache(const std::string& directory);

/// Builds `directory`'s cache directly from an in-memory dataset that was
/// just saved there (SaveDataset must have run first — the source
/// fingerprints still come from the files on disk). Skips the JSON
/// re-parse of BuildFxbCache, which matters when generating 100k+ scene
/// synthetic datasets; the result is byte-identical to BuildFxbCache over
/// the same directory because JSON round-trips doubles bit-exactly (the
/// decode-back parity check still runs). Errors: InvalidArgument when the
/// on-disk manifest does not match `dataset`'s scene list.
Result<size_t> BuildFxbCacheFromDataset(const Dataset& dataset,
                                        const std::string& directory);

/// Why (and whether) a cache no longer matches its sources. `reasons`
/// holds one human-readable sentence per detected difference; empty when
/// fresh.
struct CacheStaleness {
  bool stale = false;
  std::vector<std::string> reasons;

  /// The reasons joined with "; " ("cache is fresh" when not stale).
  std::string Summary() const;
};

/// Diffs a cache's recorded source map against `current` records (from
/// CollectSourceRecords). Stat-only records (crc == 0) compare by
/// size/mtime; content records also compare CRCs, which catches a
/// same-size edit whose mtime was restored.
CacheStaleness CompareCacheSources(const FxbReader& reader,
                                   const std::vector<FxbSourceRecord>& current);

/// Opens `directory`'s cache (if any) and reports why it is stale, with
/// per-file reasons. A cache that cannot be parsed (corrupt, or an older
/// format version) reads as stale with the parse error as the reason.
/// The default stat-only pass trusts size + nanosecond mtime (the same
/// fast path OpenFreshCache uses); `verify_contents` additionally reads
/// and checksums every source file, which catches the one edit the stat
/// pass cannot — a same-size rewrite whose mtime was restored.
/// Errors: NotFound when there is no cache file at all.
Result<CacheStaleness> ExplainCacheStaleness(const std::string& directory,
                                             bool verify_contents = false);

/// Opens `directory`'s cache iff it exists and is fresh: the whole-cache
/// fingerprint fast path first, then the per-file source map (stat
/// comparison). Errors: NotFound (no cache), FailedPrecondition (stale:
/// source files changed since the build, with per-file reasons; also
/// covers a cache in an older format version), or the underlying
/// open/parse error (InvalidArgument for a bad magic or a truncated
/// header). OpenSceneSource falls back to the JSON files on every one of
/// them.
Result<FxbReader> OpenFreshCache(const std::string& directory);

/// What UpdateFxbCache did to each scene section.
struct FxbUpdateReport {
  size_t scenes_total = 0;    // scenes in the refreshed cache
  size_t scenes_reused = 0;   // sections written from the old cache
  size_t scenes_encoded = 0;  // added or changed, re-encoded from JSON
  size_t scenes_dropped = 0;  // removed from the manifest since the build
  bool rebuilt = false;       // no usable cache: fell back to a full build
  std::vector<std::string> encoded_files;
  std::vector<std::string> dropped_files;
};

/// Incrementally refreshes `directory`'s cache: re-encodes only the
/// scenes whose source file was added or changed since the build (per
/// the source map: stat fast path, CRC fallback for touched-but-
/// identical files), each parsed from the one read of its JSON and
/// parity-checked like BuildFxbCache's; drops scenes removed from the
/// manifest; and writes the new file straight from the old mapping for
/// every other section. Each reused section is read once, by the CRC
/// check of SceneSection (a corrupt section is re-encoded from its
/// source instead), and indexed under that checked CRC. The result is
/// byte-identical to BuildFxbCache over the same source state. Falls back
/// to a full build when there is no usable cache (missing, corrupt, or
/// older format). Errors: the source files' read/parse errors, Internal
/// for a failed parity check, IoError for the write.
Result<FxbUpdateReport> UpdateFxbCache(const std::string& directory);

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
/// one source policy of `fixy_cli rank` and fixyd. Errors: only the JSON
/// side's, i.e. whatever reading the manifest fails with.
Result<std::unique_ptr<SceneSource>> OpenSceneSource(
    const std::string& directory);

/// Records every `io.fxb.*` counter and timer at zero on the calling
/// thread's collector, so metric snapshots carry a stable key set whether
/// or not the cache path ran (the schema golden depends on this).
void RecordFxbMetricsSchema();

}  // namespace fixy::io

#endif  // FIXY_IO_FXB_H_
