#include "io/fxb.h"

#include <bit>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "io/scene_io.h"
#include "obs/metrics.h"

// Columns are written and read with whole-array memcpys, which is only
// the documented little-endian layout on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "FXB encode/decode assumes a little-endian host");

namespace fixy::io {

namespace {

constexpr const char* kManifestFile = "manifest.json";
constexpr const char* kCacheFile = "dataset.fxb";

// ---- Encoding primitives ----

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void AppendColumn(std::string* out, const std::vector<T>& column) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(column.data()),
              column.size() * sizeof(T));
}

// ---- Decoding primitives ----

// A bounds-checked forward reader over one byte range. Every read is a
// sized memcpy; running past the end is a Status, never UB.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return Truncated();
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  template <typename T>
  Status ReadColumn(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return Truncated();
    out->resize(count);
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::Ok();
  }

  Status ReadString(size_t length, std::string* out) {
    if (length > remaining()) return Truncated();
    out->assign(bytes_.data() + pos_, length);
    pos_ += length;
    return Status::Ok();
  }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("truncated FXB scene section");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---- Scene section encode/decode ----

// Section layout: u32 name_len + name, f64 frame_rate_hz, u32 frame_count,
// u32 obs_total, the frame columns, then the observation columns.
Result<std::string> EncodeScene(const Scene& scene) {
  const size_t obs_total = scene.TotalObservations();
  if (scene.frame_count() > UINT32_MAX || obs_total > UINT32_MAX ||
      scene.name().size() > UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("scene '%s' exceeds FXB u32 limits", scene.name().c_str()));
  }

  std::string out;
  AppendPod(&out, static_cast<uint32_t>(scene.name().size()));
  out.append(scene.name());
  AppendPod(&out, scene.frame_rate_hz());
  AppendPod(&out, static_cast<uint32_t>(scene.frame_count()));
  AppendPod(&out, static_cast<uint32_t>(obs_total));

  const size_t n = scene.frame_count();
  std::vector<int32_t> frame_index(n);
  std::vector<double> frame_ts(n), ego_x(n), ego_y(n), ego_yaw(n);
  std::vector<uint32_t> obs_count(n);
  std::vector<uint64_t> obs_id;
  std::vector<uint8_t> obs_source, obs_class;
  std::vector<double> obs_conf, obs_cx, obs_cy, obs_cz, obs_l, obs_w, obs_h,
      obs_yaw;
  obs_id.reserve(obs_total);
  for (size_t i = 0; i < n; ++i) {
    const Frame& frame = scene.frames()[i];
    frame_index[i] = frame.index;
    frame_ts[i] = frame.timestamp;
    ego_x[i] = frame.ego_position.x;
    ego_y[i] = frame.ego_position.y;
    ego_yaw[i] = frame.ego_yaw;
    obs_count[i] = static_cast<uint32_t>(frame.observations.size());
    for (const Observation& obs : frame.observations) {
      obs_id.push_back(obs.id);
      obs_source.push_back(static_cast<uint8_t>(obs.source));
      obs_class.push_back(static_cast<uint8_t>(obs.object_class));
      obs_conf.push_back(obs.confidence);
      obs_cx.push_back(obs.box.center.x);
      obs_cy.push_back(obs.box.center.y);
      obs_cz.push_back(obs.box.center.z);
      obs_l.push_back(obs.box.length);
      obs_w.push_back(obs.box.width);
      obs_h.push_back(obs.box.height);
      obs_yaw.push_back(obs.box.yaw);
    }
  }

  AppendColumn(&out, frame_index);
  AppendColumn(&out, frame_ts);
  AppendColumn(&out, ego_x);
  AppendColumn(&out, ego_y);
  AppendColumn(&out, ego_yaw);
  AppendColumn(&out, obs_count);
  AppendColumn(&out, obs_id);
  AppendColumn(&out, obs_source);
  AppendColumn(&out, obs_class);
  AppendColumn(&out, obs_conf);
  AppendColumn(&out, obs_cx);
  AppendColumn(&out, obs_cy);
  AppendColumn(&out, obs_cz);
  AppendColumn(&out, obs_l);
  AppendColumn(&out, obs_w);
  AppendColumn(&out, obs_h);
  AppendColumn(&out, obs_yaw);
  return out;
}

Result<Scene> DecodeSceneSection(std::string_view section) {
  Cursor cursor(section);
  uint32_t name_len = 0;
  FIXY_RETURN_IF_ERROR(cursor.Read(&name_len));
  std::string name;
  FIXY_RETURN_IF_ERROR(cursor.ReadString(name_len, &name));
  double frame_rate_hz = 0.0;
  FIXY_RETURN_IF_ERROR(cursor.Read(&frame_rate_hz));
  uint32_t frame_count = 0;
  uint32_t obs_total = 0;
  FIXY_RETURN_IF_ERROR(cursor.Read(&frame_count));
  FIXY_RETURN_IF_ERROR(cursor.Read(&obs_total));

  std::vector<int32_t> frame_index;
  std::vector<double> frame_ts, ego_x, ego_y, ego_yaw;
  std::vector<uint32_t> obs_count;
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &frame_index));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &frame_ts));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &ego_x));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &ego_y));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &ego_yaw));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(frame_count, &obs_count));

  uint64_t counted = 0;
  for (uint32_t c : obs_count) counted += c;
  if (counted != obs_total) {
    return Status::InvalidArgument(
        StrFormat("FXB scene section per-frame observation counts sum to "
                  "%llu but header says %u",
                  static_cast<unsigned long long>(counted), obs_total));
  }

  std::vector<uint64_t> obs_id;
  std::vector<uint8_t> obs_source, obs_class;
  std::vector<double> obs_conf, obs_cx, obs_cy, obs_cz, obs_l, obs_w, obs_h,
      obs_yaw;
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_id));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_source));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_class));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_conf));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_cx));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_cy));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_cz));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_l));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_w));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_h));
  FIXY_RETURN_IF_ERROR(cursor.ReadColumn(obs_total, &obs_yaw));
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "FXB scene section has %zu trailing bytes", cursor.remaining()));
  }

  Scene scene(std::move(name), frame_rate_hz);
  size_t next_obs = 0;
  for (uint32_t i = 0; i < frame_count; ++i) {
    Frame frame;
    frame.index = frame_index[i];
    frame.timestamp = frame_ts[i];
    frame.ego_position.x = ego_x[i];
    frame.ego_position.y = ego_y[i];
    frame.ego_yaw = ego_yaw[i];
    frame.observations.reserve(obs_count[i]);
    for (uint32_t j = 0; j < obs_count[i]; ++j, ++next_obs) {
      if (obs_source[next_obs] >= kNumObservationSources) {
        return Status::InvalidArgument(
            StrFormat("FXB observation has invalid source byte %u",
                      obs_source[next_obs]));
      }
      if (obs_class[next_obs] >= kNumObjectClasses) {
        return Status::InvalidArgument(
            StrFormat("FXB observation has invalid class byte %u",
                      obs_class[next_obs]));
      }
      Observation obs;
      obs.id = obs_id[next_obs];
      obs.source = static_cast<ObservationSource>(obs_source[next_obs]);
      obs.object_class = static_cast<ObjectClass>(obs_class[next_obs]);
      obs.confidence = obs_conf[next_obs];
      obs.box.center.x = obs_cx[next_obs];
      obs.box.center.y = obs_cy[next_obs];
      obs.box.center.z = obs_cz[next_obs];
      obs.box.length = obs_l[next_obs];
      obs.box.width = obs_w[next_obs];
      obs.box.height = obs_h[next_obs];
      obs.box.yaw = obs_yaw[next_obs];
      frame.observations.push_back(obs);
    }
    scene.AddFrame(std::move(frame));
  }
  FIXY_RETURN_IF_ERROR(scene.Validate());
  return scene;
}

// ---- Header helpers ----

template <typename T>
void StorePod(std::string* header, size_t offset, const T& value) {
  std::memcpy(header->data() + offset, &value, sizeof(T));
}

template <typename T>
T LoadPod(std::string_view bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

// A whole FXB file as the byte ranges it is written from: the header and
// dataset name, every scene section in index order, then the index and
// the source map. The sections are views; their owner outlives the layout.
struct FxbLayout {
  std::string head;
  std::vector<std::string_view> sections;
  std::string tail;

  std::vector<std::string_view> Ranges() const {
    std::vector<std::string_view> ranges;
    ranges.reserve(sections.size() + 2);
    ranges.push_back(head);
    ranges.insert(ranges.end(), sections.begin(), sections.end());
    ranges.push_back(tail);
    return ranges;
  }
};

// The one FXB layout function, shared by EncodeFxbDataset, BuildFxbCache
// and UpdateFxbCache (fresh sections and sections reused from the old
// cache alike), which is what makes an incremental update byte-identical
// to a full rebuild. Each section's index CRC is the one it comes with.
Result<FxbLayout> AssembleFxbBlob(std::string_view dataset_name,
                                  const std::vector<FxbSection>& sections,
                                  const std::vector<FxbSourceRecord>& sources) {
  if (sections.size() > UINT32_MAX || dataset_name.size() > UINT32_MAX ||
      sources.size() > UINT32_MAX) {
    return Status::InvalidArgument("dataset exceeds FXB u32 limits");
  }
  if (sources.size() < sections.size()) {
    return Status::InvalidArgument(StrFormat(
        "FXB source map has %zu records for %zu scenes (need one per scene "
        "plus the manifest)",
        sources.size(), sections.size()));
  }

  FxbLayout layout;
  std::string index;
  index.reserve(sections.size() * kFxbIndexEntrySize);
  layout.sections.reserve(sections.size());
  const uint64_t sections_base = kFxbHeaderSize + dataset_name.size();
  uint64_t offset = sections_base;
  for (const FxbSection& section : sections) {
    AppendPod(&index, offset);
    AppendPod(&index, static_cast<uint64_t>(section.bytes.size()));
    AppendPod(&index, section.crc);
    AppendPod(&index, uint32_t{0});
    layout.sections.push_back(section.bytes);
    offset += section.bytes.size();
  }

  std::string source_map;
  for (const FxbSourceRecord& record : sources) {
    if (record.file.size() > UINT32_MAX) {
      return Status::InvalidArgument("FXB source file name exceeds u32 limit");
    }
    AppendPod(&source_map, static_cast<uint32_t>(record.file.size()));
    source_map += record.file;
    AppendPod(&source_map, record.size);
    AppendPod(&source_map, record.mtime_ns);
    AppendPod(&source_map, record.crc);
  }

  std::string& header = layout.head;
  header.assign(kFxbHeaderSize, '\0');
  std::memcpy(header.data(), kFxbMagic, sizeof(kFxbMagic));
  StorePod(&header, kFxbVersionOffset, kFxbVersion);
  StorePod(&header, kFxbSceneCountOffset,
           static_cast<uint32_t>(sections.size()));
  StorePod(&header, kFxbNameBytesOffset,
           static_cast<uint32_t>(dataset_name.size()));
  StorePod(&header, kFxbIndexOffsetOffset, offset);
  StorePod(&header, kFxbSourceCountOffset,
           static_cast<uint32_t>(sources.size()));
  StorePod(&header, kFxbIndexCrcOffset, Crc32(index));
  StorePod(&header, kFxbSourceMapCrcOffset, Crc32(source_map));
  StorePod(&header, kFxbHeaderCrcOffset,
           Crc32(header.data(), kFxbHeaderCrcOffset));
  header.append(dataset_name);

  layout.tail = std::move(index);
  layout.tail += source_map;
  return layout;
}

// Encodes `scene` and decodes the section straight back: the section is
// trusted only when the decoded scene is BitIdentical to its source.
Result<std::string> EncodeVerifiedSection(const Scene& scene) {
  FIXY_ASSIGN_OR_RETURN(std::string section, EncodeScene(scene));
  FIXY_ASSIGN_OR_RETURN(Scene decoded, DecodeSceneSection(section));
  if (!BitIdentical(decoded, scene)) {
    return Status::Internal(
        StrFormat("FXB parity check failed: scene '%s' does not round-trip "
                  "bit-identically",
                  scene.name().c_str()));
  }
  return section;
}

}  // namespace

Result<FxbSourceRecord> StatSourceRecord(const std::string& directory,
                                         const std::string& file) {
  const std::string path = directory + "/" + file;
  FxbSourceRecord record;
  record.file = file;
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IoError("cannot stat source file: " + path + ": " +
                           ec.message());
  }
  record.size = static_cast<uint64_t>(size);
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) {
    return Status::IoError("cannot read mtime of: " + path + ": " +
                           ec.message());
  }
  record.mtime_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  return record;
}

Result<std::vector<FxbSourceRecord>> CollectSourceRecords(
    const std::string& directory) {
  FIXY_ASSIGN_OR_RETURN(std::vector<std::string> files,
                        ReadManifestSceneFiles(directory));
  files.push_back(kManifestFile);  // the manifest itself counts as a source
  std::vector<FxbSourceRecord> records;
  records.reserve(files.size());
  for (const std::string& file : files) {
    FIXY_ASSIGN_OR_RETURN(FxbSourceRecord record,
                          StatSourceRecord(directory, file));
    records.push_back(std::move(record));
  }
  return records;
}

Result<std::string> EncodeFxbDataset(
    const Dataset& dataset, const std::vector<FxbSourceRecord>& sources) {
  std::vector<std::string> encoded;
  encoded.reserve(dataset.scenes.size());
  for (const Scene& scene : dataset.scenes) {
    FIXY_ASSIGN_OR_RETURN(std::string section, EncodeScene(scene));
    encoded.push_back(std::move(section));
  }
  std::vector<FxbSection> sections;
  for (const std::string& bytes : encoded) {
    sections.push_back({bytes, Crc32(bytes)});
  }
  FIXY_ASSIGN_OR_RETURN(const FxbLayout layout,
                        AssembleFxbBlob(dataset.name, sections, sources));
  std::string blob;
  for (const std::string_view range : layout.Ranges()) blob += range;
  return blob;
}

Result<FxbReader> FxbReader::Open(const std::string& path,
                                  bool force_buffered) {
  FxbReader reader;
  FIXY_ASSIGN_OR_RETURN(reader.file_, MappedFile::Open(path, force_buffered));
  if (reader.file_.is_mapped()) {
    obs::Count("io.fxb.bytes_mapped", reader.file_.data().size());
  }
  return Parse(std::move(reader));
}

Result<FxbReader> FxbReader::FromBuffer(std::string blob) {
  FxbReader reader;
  reader.buffer_ = std::move(blob);
  return Parse(std::move(reader));
}

Result<FxbReader> FxbReader::Parse(FxbReader reader) {
  const std::string_view bytes = reader.data();
  if (bytes.size() < kFxbHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("truncated FXB header: %zu bytes, need %zu", bytes.size(),
                  kFxbHeaderSize));
  }
  if (std::memcmp(bytes.data(), kFxbMagic, sizeof(kFxbMagic)) != 0) {
    return Status::InvalidArgument("not an FXB file (bad magic)");
  }
  // The version decides where the header CRC lives (version 2 kept it at
  // byte 60), so it is read first: a cache from any other version is
  // reported as such, never as a checksum mismatch.
  const uint32_t version = LoadPod<uint32_t>(bytes, kFxbVersionOffset);
  if (version != kFxbVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported FXB version %u (expected %u)", version,
                  kFxbVersion));
  }
  const uint32_t stored_header_crc =
      LoadPod<uint32_t>(bytes, kFxbHeaderCrcOffset);
  if (Crc32(bytes.data(), kFxbHeaderCrcOffset) != stored_header_crc) {
    obs::Count("io.fxb.checksum_failures");
    return Status::FailedPrecondition("FXB header checksum mismatch");
  }

  const uint32_t scene_count = LoadPod<uint32_t>(bytes, kFxbSceneCountOffset);
  const uint32_t name_bytes = LoadPod<uint32_t>(bytes, kFxbNameBytesOffset);
  const uint64_t index_offset =
      LoadPod<uint64_t>(bytes, kFxbIndexOffsetOffset);

  if (name_bytes > bytes.size() - kFxbHeaderSize) {
    return Status::InvalidArgument("FXB dataset name extends past the file");
  }
  reader.dataset_name_.assign(bytes.data() + kFxbHeaderSize, name_bytes);

  const uint64_t index_size =
      static_cast<uint64_t>(scene_count) * kFxbIndexEntrySize;
  if (index_offset < kFxbHeaderSize + name_bytes ||
      index_offset > bytes.size() ||
      index_size > bytes.size() - index_offset) {
    return Status::InvalidArgument(
        StrFormat("FXB index (%u scenes at offset %llu) extends past the "
                  "file (%zu bytes)",
                  scene_count, static_cast<unsigned long long>(index_offset),
                  bytes.size()));
  }
  const std::string_view index_bytes =
      bytes.substr(index_offset, index_size);
  const uint32_t stored_index_crc =
      LoadPod<uint32_t>(bytes, kFxbIndexCrcOffset);
  if (Crc32(index_bytes) != stored_index_crc) {
    obs::Count("io.fxb.checksum_failures");
    return Status::FailedPrecondition("FXB index checksum mismatch");
  }

  reader.index_.reserve(scene_count);
  for (uint32_t i = 0; i < scene_count; ++i) {
    const size_t base = i * kFxbIndexEntrySize;
    IndexEntry entry;
    entry.offset = LoadPod<uint64_t>(index_bytes, base);
    entry.length = LoadPod<uint64_t>(index_bytes, base + sizeof(uint64_t));
    entry.crc = LoadPod<uint32_t>(index_bytes, base + kFxbIndexEntryCrcOffset);
    reader.index_.push_back(entry);
  }

  // The source map runs from the end of the index to the end of the file.
  const uint32_t source_count = LoadPod<uint32_t>(bytes, kFxbSourceCountOffset);
  if (source_count < scene_count) {
    return Status::InvalidArgument(
        StrFormat("FXB source map has %u records for %u scenes", source_count,
                  scene_count));
  }
  const uint64_t map_offset = index_offset + index_size;
  const std::string_view map_bytes = bytes.substr(map_offset);
  const uint32_t stored_map_crc =
      LoadPod<uint32_t>(bytes, kFxbSourceMapCrcOffset);
  if (Crc32(map_bytes) != stored_map_crc) {
    obs::Count("io.fxb.checksum_failures");
    return Status::FailedPrecondition("FXB source map checksum mismatch");
  }
  Cursor cursor(map_bytes);
  reader.sources_.reserve(source_count);
  for (uint32_t i = 0; i < source_count; ++i) {
    FxbSourceRecord record;
    uint32_t name_len = 0;
    FIXY_RETURN_IF_ERROR(cursor.Read(&name_len));
    FIXY_RETURN_IF_ERROR(cursor.ReadString(name_len, &record.file));
    FIXY_RETURN_IF_ERROR(cursor.Read(&record.size));
    FIXY_RETURN_IF_ERROR(cursor.Read(&record.mtime_ns));
    FIXY_RETURN_IF_ERROR(cursor.Read(&record.crc));
    reader.sources_.push_back(std::move(record));
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "FXB source map has %zu trailing bytes", cursor.remaining()));
  }
  return reader;
}

Result<FxbSection> FxbReader::SceneSection(size_t index) const {
  if (index >= index_.size()) {
    return Status::OutOfRange(StrFormat(
        "scene index %zu out of range (%zu scenes)", index, index_.size()));
  }
  const IndexEntry& entry = index_[index];
  const std::string_view bytes = data();
  if (entry.offset > bytes.size() ||
      entry.length > bytes.size() - entry.offset) {
    return Status::InvalidArgument(
        StrFormat("FXB scene %zu section (offset %llu, length %llu) extends "
                  "past the file (%zu bytes)",
                  index, static_cast<unsigned long long>(entry.offset),
                  static_cast<unsigned long long>(entry.length),
                  bytes.size()));
  }
  const std::string_view section = bytes.substr(entry.offset, entry.length);
  if (Crc32(section) != entry.crc) {
    obs::Count("io.fxb.checksum_failures");
    return Status::FailedPrecondition(
        StrFormat("FXB scene %zu section checksum mismatch", index));
  }
  return FxbSection{section, entry.crc};
}

Result<Scene> FxbReader::DecodeScene(size_t index) const {
  FIXY_ASSIGN_OR_RETURN(const FxbSection section, SceneSection(index));
  FIXY_ASSIGN_OR_RETURN(Scene scene, DecodeSceneSection(section.bytes));
  obs::Count("io.fxb.scenes_decoded");
  return scene;
}

std::string FxbReader::SceneNameHint(size_t index) const {
  const std::string fallback = StrFormat("scene#%zu", index);
  if (index >= index_.size()) return fallback;
  const IndexEntry& entry = index_[index];
  const std::string_view bytes = data();
  if (entry.offset > bytes.size() ||
      entry.length > bytes.size() - entry.offset) {
    return fallback;
  }
  Cursor cursor(bytes.substr(entry.offset, entry.length));
  uint32_t name_len = 0;
  std::string name;
  if (!cursor.Read(&name_len).ok() ||
      !cursor.ReadString(name_len, &name).ok() || name.empty()) {
    return fallback;
  }
  return name;
}

std::string FxbCachePath(const std::string& directory) {
  return directory + "/" + kCacheFile;
}

Result<FxbSourceFingerprint> ComputeSourceFingerprint(
    const std::string& directory) {
  FIXY_ASSIGN_OR_RETURN(const std::vector<FxbSourceRecord> records,
                        CollectSourceRecords(directory));
  FxbSourceFingerprint fingerprint;
  for (const FxbSourceRecord& record : records) {
    fingerprint.file_count += 1;
    fingerprint.total_bytes += record.size;
    fingerprint.max_mtime_ns =
        std::max(fingerprint.max_mtime_ns, record.mtime_ns);
  }
  return fingerprint;
}

std::string CacheStaleness::Summary() const {
  if (!stale()) return "cache is fresh";
  std::string out;
  for (const std::string& reason : reasons) {
    if (!out.empty()) out += "; ";
    out += reason;
  }
  return out;
}

CacheStaleness CompareCacheSources(
    const std::vector<FxbSourceRecord>& recorded,
    const std::vector<FxbSourceRecord>& current) {
  CacheStaleness result;
  std::map<std::string, const FxbSourceRecord*> by_name;
  for (const FxbSourceRecord& record : recorded) by_name[record.file] = &record;
  std::map<std::string, bool> seen;
  for (const FxbSourceRecord& record : current) {
    seen[record.file] = true;
    const auto it = by_name.find(record.file);
    if (it == by_name.end()) {
      result.reasons.push_back("added since the build: " + record.file);
      continue;
    }
    const FxbSourceRecord& old = *it->second;
    if (record.size != old.size) {
      result.reasons.push_back(StrFormat(
          "%s changed size (%llu -> %llu bytes)", record.file.c_str(),
          static_cast<unsigned long long>(old.size),
          static_cast<unsigned long long>(record.size)));
    } else if (record.mtime_ns != old.mtime_ns) {
      result.reasons.push_back(record.file + " was modified (mtime changed)");
    } else if (record.crc != 0 && old.crc != 0 && record.crc != old.crc) {
      result.reasons.push_back(record.file +
                               " changed contents (same size and mtime, "
                               "different checksum)");
    }
  }
  for (const FxbSourceRecord& record : recorded) {
    if (!seen.count(record.file)) {
      result.reasons.push_back("removed since the build: " + record.file);
    }
  }
  return result;
}

Result<FxbReader> OpenFreshCache(const std::string& directory) {
  const std::string path = FxbCachePath(directory);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return Status::NotFound("no FXB cache at " + path);
  }
  Result<FxbReader> reader = FxbReader::Open(path);
  if (!reader.ok() && reader.status().message().find("unsupported FXB "
                                                     "version") !=
                          std::string::npos) {
    // A cache in another format version is stale, not hostile.
    return Status::FailedPrecondition(path + " is stale: " +
                                      reader.status().message());
  }
  FIXY_RETURN_IF_ERROR(reader.status());
  FIXY_ASSIGN_OR_RETURN(const std::vector<FxbSourceRecord> current,
                        CollectSourceRecords(directory));
  const CacheStaleness staleness =
      CompareCacheSources(reader->sources(), current);
  if (!staleness.stale()) return reader;
  return Status::FailedPrecondition(path + " is stale: " +
                                    staleness.Summary());
}

namespace {

// The one cache writer, behind BuildFxbCache, BuildFxbCacheFromDataset and
// UpdateFxbCache: one pass over the manifest, in manifest order. A scene
// keeps its section from `old` when its record matches the one `old`
// recorded and the section passes its CRC check; every other scene is
// encoded from `saved`'s copy (a dataset just saved to `directory`) or
// from the one read of its JSON, whose CRC the new record carries. Each
// record is stat'd before its file is read, so a file edited mid-pass
// records an older stat than its bytes and reads as stale afterwards.
// With `old`, the report names every change it acted on, and nothing is
// written when there is none.
Result<FxbUpdateReport> WriteCache(const std::string& directory,
                                   const FxbReader* old, bool verify_contents,
                                   const Dataset* saved) {
  std::string bytes;  // the current source file, read at most once
  FIXY_ASSIGN_OR_RETURN(FxbSourceRecord manifest,
                        StatSourceRecord(directory, kManifestFile));
  FIXY_RETURN_IF_ERROR(ReadFileInto(directory + "/" + kManifestFile, &bytes));
  manifest.crc = Crc32(bytes);
  std::string dataset_name;
  FIXY_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                        ParseManifestSceneFiles(bytes, &dataset_name));
  if (saved != nullptr && saved->scenes.size() != files.size()) {
    return Status::InvalidArgument(StrFormat(
        "cannot build cache from memory: %zu scenes in memory but the "
        "manifest in %s lists %zu",
        saved->scenes.size(), directory.c_str(), files.size()));
  }

  std::map<std::string, size_t> old_scene_by_file;
  std::vector<bool> kept(old != nullptr ? old->scene_count() : 0, false);
  for (size_t i = 0; i < kept.size(); ++i) {
    old_scene_by_file.emplace(old->sources()[i].file, i);
  }

  // Sections in manifest order: views into the old cache's mapping for
  // reused scenes, into `encoded` for the rest. A deque never moves its
  // elements, so the views stay valid as it grows.
  FxbUpdateReport report;
  std::vector<FxbSection> sections;
  std::deque<std::string> encoded;
  std::vector<FxbSourceRecord> sources;
  std::vector<std::string> damaged;
  sections.reserve(files.size());
  sources.reserve(files.size() + 1);
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& file = files[i];
    const std::string path = directory + "/" + file;
    FIXY_ASSIGN_OR_RETURN(FxbSourceRecord record,
                          StatSourceRecord(directory, file));
    bool have_bytes = false;
    const auto it = old_scene_by_file.find(file);
    if (it != old_scene_by_file.end()) {
      kept[it->second] = true;
      const FxbSourceRecord& recorded = old->sources()[it->second];
      if (!verify_contents && record.size == recorded.size &&
          record.mtime_ns == recorded.mtime_ns) {
        record.crc = recorded.crc;  // stat fast path: unchanged on disk
      } else {
        // A moved stat, or verify_contents: one read decides, so a
        // touched-but-identical file still keeps its section.
        FIXY_RETURN_IF_ERROR(ReadFileInto(path, &bytes));
        have_bytes = true;
        record.crc = Crc32(bytes);
      }
      if (record.size == recorded.size && record.crc == recorded.crc) {
        // The section's one read: its CRC check. A corrupt section is
        // re-encoded, not propagated; a sound one is written from the old
        // mapping under the CRC just checked.
        const Result<FxbSection> section = old->SceneSection(it->second);
        if (section.ok()) {
          sections.push_back(*section);
          sources.push_back(std::move(record));
          report.scenes_reused += 1;
          obs::Count("io.fxb.sections_reused");
          continue;
        }
        damaged.push_back("damaged cache section for " + file + " (" +
                          section.status().message() + ")");
      }
    }
    // Added, changed, damaged in the cache, or nothing to reuse: encode,
    // from the same bytes the record's CRC covers.
    if (!have_bytes) {
      FIXY_RETURN_IF_ERROR(ReadFileInto(path, &bytes));
      record.crc = Crc32(bytes);
    }
    Scene parsed;
    if (saved == nullptr) {
      obs::Count("io.bytes_read", bytes.size());
      const obs::ScopedStageTimer parse_timer("io.parse");
      FIXY_ASSIGN_OR_RETURN(parsed, SceneFromString(bytes));
    }
    FIXY_ASSIGN_OR_RETURN(
        std::string section,
        EncodeVerifiedSection(saved != nullptr ? saved->scenes[i] : parsed));
    const std::string& owned = encoded.emplace_back(std::move(section));
    sections.push_back({owned, Crc32(owned)});
    sources.push_back(std::move(record));
    report.scenes_encoded += 1;
    report.encoded_files.push_back(file);
    obs::Count("io.fxb.sections_reencoded");
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    if (!kept[i]) {
      report.scenes_dropped += 1;
      obs::Count("io.fxb.sections_dropped");
    }
  }
  sources.push_back(std::move(manifest));
  report.scenes_total = sections.size();

  if (old != nullptr) {
    report.staleness = CompareCacheSources(old->sources(), sources);
    report.staleness.reasons.insert(report.staleness.reasons.end(),
                                    damaged.begin(), damaged.end());
    if (!report.staleness.stale()) return report;  // fresh and sound
  }
  FIXY_ASSIGN_OR_RETURN(const FxbLayout layout,
                        AssembleFxbBlob(dataset_name, sections, sources));
  FIXY_RETURN_IF_ERROR(WriteFileAtomic(FxbCachePath(directory),
                                       layout.Ranges()));
  return report;
}

}  // namespace

Result<size_t> BuildFxbCache(const std::string& directory) {
  FIXY_ASSIGN_OR_RETURN(
      const FxbUpdateReport report,
      WriteCache(directory, /*old=*/nullptr, /*verify_contents=*/false,
                 /*saved=*/nullptr));
  return report.scenes_total;
}

Result<size_t> BuildFxbCacheFromDataset(const Dataset& dataset,
                                        const std::string& directory) {
  FIXY_ASSIGN_OR_RETURN(
      const FxbUpdateReport report,
      WriteCache(directory, /*old=*/nullptr, /*verify_contents=*/false,
                 &dataset));
  return report.scenes_total;
}

Result<FxbUpdateReport> UpdateFxbCache(const std::string& directory,
                                       bool verify_contents) {
  const std::string path = FxbCachePath(directory);
  std::error_code ec;
  const Result<FxbReader> old =
      std::filesystem::exists(path, ec) && !ec
          ? FxbReader::Open(path)
          : Status::NotFound("no cache yet");
  // The old reader stays open through the write: reused sections are
  // written from its mapping, which outlives the rename over its path.
  if (old.ok()) return WriteCache(directory, &*old, verify_contents, nullptr);

  // No usable cache (missing, corrupt, or another format version): there
  // is nothing to reuse, so every scene is encoded.
  FIXY_ASSIGN_OR_RETURN(
      FxbUpdateReport report,
      WriteCache(directory, /*old=*/nullptr, verify_contents, nullptr));
  report.rebuilt = true;
  report.staleness.reasons.push_back(
      old.status().code() == StatusCode::kNotFound
          ? old.status().message()
          : "cache is unreadable: " + old.status().message());
  return report;
}

Result<DirectorySceneSource> DirectorySceneSource::Open(
    const std::string& directory) {
  DirectorySceneSource source;
  source.directory_ = directory;
  FIXY_ASSIGN_OR_RETURN(source.files_, ReadManifestSceneFiles(directory));
  return source;
}

std::string DirectorySceneSource::scene_name(size_t index) const {
  if (index >= files_.size()) return StrFormat("scene#%zu", index);
  std::string name = files_[index];
  constexpr std::string_view kSuffix = ".fixy.json";
  if (EndsWith(name, kSuffix)) name.resize(name.size() - kSuffix.size());
  return name;
}

Result<Scene> DirectorySceneSource::DecodeScene(size_t index) const {
  if (index >= files_.size()) {
    return Status::OutOfRange(StrFormat(
        "scene index %zu out of range (%zu scenes)", index, files_.size()));
  }
  return LoadScene(directory_ + "/" + files_[index]);
}

Result<std::unique_ptr<SceneSource>> OpenSceneSource(
    const std::string& directory, Status* cache_status) {
  Result<FxbReader> cache = OpenFreshCache(directory);
  if (cache_status != nullptr) *cache_status = cache.status();
  if (cache.ok()) {
    return std::unique_ptr<SceneSource>(
        std::make_unique<FxbSceneSource>(std::move(cache).value()));
  }
  // The JSON files are the source of truth and the cache decodes to the
  // same bytes, so a cache that is missing, stale, or rejected at open
  // only costs speed: rank from the JSON files instead.
  FIXY_ASSIGN_OR_RETURN(DirectorySceneSource source,
                        DirectorySceneSource::Open(directory));
  return std::unique_ptr<SceneSource>(
      std::make_unique<DirectorySceneSource>(std::move(source)));
}

void RecordFxbMetricsSchema() {
  obs::Count("io.fxb.bytes_mapped", 0);
  obs::Count("io.fxb.cache_hits", 0);
  obs::Count("io.fxb.cache_misses", 0);
  obs::Count("io.fxb.checksum_failures", 0);
  obs::Count("io.fxb.scenes_decoded", 0);
  obs::Count("io.fxb.sections_dropped", 0);
  obs::Count("io.fxb.sections_reencoded", 0);
  obs::Count("io.fxb.sections_reused", 0);
}

}  // namespace fixy::io
