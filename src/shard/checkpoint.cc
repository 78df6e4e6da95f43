#include "shard/checkpoint.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/crc32.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "io/scene_io.h"

namespace fixy::shard {
namespace {

static_assert(std::endian::native == std::endian::little,
              "checkpoint encode/decode assumes a little-endian host (like "
              "the FXB container)");

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendString(std::string* out, const std::string& text) {
  AppendPod(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

template <typename T>
void StorePod(std::string* out, size_t offset, const T& value) {
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

// Bounds-checked forward reader over the payload; every Read checks the
// remaining byte count, so truncated or lying payloads fail with a
// Status instead of reading out of bounds.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  Result<T> Read() {
    if (bytes_.size() - pos_ < sizeof(T)) {
      return Status::InvalidArgument("checkpoint payload truncated");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> ReadString() {
    FIXY_ASSIGN_OR_RETURN(const uint32_t size, Read<uint32_t>());
    if (bytes_.size() - pos_ < size) {
      return Status::InvalidArgument("checkpoint payload truncated");
    }
    std::string text(bytes_.substr(pos_, size));
    pos_ += size;
    return text;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

void AppendProposal(std::string* out, const ErrorProposal& p) {
  AppendString(out, p.scene_name);
  AppendPod(out, static_cast<uint32_t>(p.kind));
  AppendPod(out, static_cast<uint64_t>(p.track_id));
  AppendPod(out, static_cast<int32_t>(p.frame_index));
  AppendPod(out, p.box.center.x);
  AppendPod(out, p.box.center.y);
  AppendPod(out, p.box.center.z);
  AppendPod(out, p.box.length);
  AppendPod(out, p.box.width);
  AppendPod(out, p.box.height);
  AppendPod(out, p.box.yaw);
  AppendPod(out, static_cast<uint32_t>(p.object_class));
  AppendPod(out, p.score);
  AppendPod(out, p.model_confidence);
  AppendPod(out, static_cast<int32_t>(p.first_frame));
  AppendPod(out, static_cast<int32_t>(p.last_frame));
}

Result<ErrorProposal> ReadProposal(Cursor& cursor) {
  ErrorProposal p;
  FIXY_ASSIGN_OR_RETURN(p.scene_name, cursor.ReadString());
  FIXY_ASSIGN_OR_RETURN(const uint32_t kind, cursor.Read<uint32_t>());
  if (kind > static_cast<uint32_t>(ProposalKind::kModelError)) {
    return Status::InvalidArgument("checkpoint proposal kind out of range");
  }
  p.kind = static_cast<ProposalKind>(kind);
  FIXY_ASSIGN_OR_RETURN(const uint64_t track_id, cursor.Read<uint64_t>());
  p.track_id = track_id;
  FIXY_ASSIGN_OR_RETURN(const int32_t frame, cursor.Read<int32_t>());
  p.frame_index = frame;
  FIXY_ASSIGN_OR_RETURN(p.box.center.x, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.center.y, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.center.z, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.length, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.width, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.height, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.box.yaw, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(const uint32_t cls, cursor.Read<uint32_t>());
  if (cls >= static_cast<uint32_t>(kNumObjectClasses)) {
    return Status::InvalidArgument("checkpoint object class out of range");
  }
  p.object_class = static_cast<ObjectClass>(cls);
  FIXY_ASSIGN_OR_RETURN(p.score, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(p.model_confidence, cursor.Read<double>());
  FIXY_ASSIGN_OR_RETURN(const int32_t first, cursor.Read<int32_t>());
  FIXY_ASSIGN_OR_RETURN(const int32_t last, cursor.Read<int32_t>());
  p.first_frame = first;
  p.last_frame = last;
  return p;
}

}  // namespace

std::string EncodeMultiAppReport(const MultiAppReport& report) {
  std::string out;
  AppendPod(&out, static_cast<uint32_t>(report.apps.size()));
  for (const std::string& app : report.apps) AppendString(&out, app);
  for (const BatchReport& batch : report.reports) {
    AppendPod(&out, static_cast<uint32_t>(batch.outcomes.size()));
    for (const SceneOutcome& outcome : batch.outcomes) {
      AppendString(&out, outcome.scene_name);
      AppendPod(&out, static_cast<uint32_t>(outcome.status.code()));
      AppendString(&out, outcome.status.message());
      AppendPod(&out, outcome.wall_ms);
      AppendPod(&out, static_cast<uint32_t>(outcome.proposals.size()));
      for (const ErrorProposal& p : outcome.proposals) AppendProposal(&out, p);
    }
  }
  return out;
}

Result<MultiAppReport> DecodeMultiAppReport(std::string_view payload) {
  Cursor cursor(payload);
  MultiAppReport report;
  FIXY_ASSIGN_OR_RETURN(const uint32_t app_count, cursor.Read<uint32_t>());
  for (uint32_t a = 0; a < app_count; ++a) {
    FIXY_ASSIGN_OR_RETURN(std::string app, cursor.ReadString());
    report.apps.push_back(std::move(app));
  }
  report.reports.resize(app_count);
  for (uint32_t a = 0; a < app_count; ++a) {
    BatchReport& batch = report.reports[a];
    FIXY_ASSIGN_OR_RETURN(const uint32_t outcome_count,
                          cursor.Read<uint32_t>());
    for (uint32_t i = 0; i < outcome_count; ++i) {
      SceneOutcome outcome;
      FIXY_ASSIGN_OR_RETURN(outcome.scene_name, cursor.ReadString());
      FIXY_ASSIGN_OR_RETURN(const uint32_t code, cursor.Read<uint32_t>());
      if (code > static_cast<uint32_t>(StatusCode::kUnimplemented)) {
        return Status::InvalidArgument("checkpoint status code out of range");
      }
      FIXY_ASSIGN_OR_RETURN(std::string message, cursor.ReadString());
      outcome.status = Status(static_cast<StatusCode>(code),
                              std::move(message));
      FIXY_ASSIGN_OR_RETURN(outcome.wall_ms, cursor.Read<double>());
      FIXY_ASSIGN_OR_RETURN(const uint32_t proposal_count,
                            cursor.Read<uint32_t>());
      for (uint32_t p = 0; p < proposal_count; ++p) {
        FIXY_ASSIGN_OR_RETURN(ErrorProposal proposal, ReadProposal(cursor));
        outcome.proposals.push_back(std::move(proposal));
      }
      batch.outcomes.push_back(std::move(outcome));
    }
  }
  if (!cursor.exhausted()) {
    return Status::InvalidArgument("checkpoint payload has trailing bytes");
  }
  RecomputeReportSummary(report);
  return report;
}

std::string EncodeShardCheckpoint(const ShardCheckpoint& checkpoint) {
  const std::string payload = EncodeMultiAppReport(checkpoint.report);
  std::string out(kCheckpointHeaderSize, '\0');
  std::memcpy(out.data(), kCheckpointMagic, sizeof(kCheckpointMagic));
  StorePod(&out, kCheckpointVersionOffset, kCheckpointVersion);
  StorePod(&out, kCheckpointShardOffset, checkpoint.shard_index);
  StorePod(&out, kCheckpointBeginOffset,
           static_cast<uint32_t>(checkpoint.range.begin));
  StorePod(&out, kCheckpointEndOffset,
           static_cast<uint32_t>(checkpoint.range.end));
  StorePod(&out, kCheckpointFingerprintOffset, checkpoint.fingerprint);
  StorePod(&out, kCheckpointPayloadLenOffset,
           static_cast<uint64_t>(payload.size()));
  StorePod(&out, kCheckpointPayloadCrcOffset, Crc32(payload));
  StorePod(&out, kCheckpointHeaderCrcOffset,
           Crc32(out.data(), kCheckpointHeaderCrcOffset));
  out += payload;
  return out;
}

Result<ShardCheckpoint> DecodeShardCheckpoint(std::string_view blob) {
  if (blob.size() < kCheckpointHeaderSize) {
    return Status::InvalidArgument("checkpoint shorter than its header");
  }
  if (std::memcmp(blob.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return Status::InvalidArgument("checkpoint has a bad magic");
  }
  auto load_u32 = [&blob](size_t offset) {
    uint32_t value;
    std::memcpy(&value, blob.data() + offset, sizeof(value));
    return value;
  };
  auto load_u64 = [&blob](size_t offset) {
    uint64_t value;
    std::memcpy(&value, blob.data() + offset, sizeof(value));
    return value;
  };
  const uint32_t header_crc = load_u32(kCheckpointHeaderCrcOffset);
  if (Crc32(blob.data(), kCheckpointHeaderCrcOffset) != header_crc) {
    return Status::InvalidArgument("checkpoint header CRC mismatch");
  }
  const uint32_t version = load_u32(kCheckpointVersionOffset);
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        StrFormat("checkpoint format version %u unsupported (expected %u)",
                  version, kCheckpointVersion));
  }
  ShardCheckpoint checkpoint;
  checkpoint.shard_index = load_u32(kCheckpointShardOffset);
  checkpoint.range.begin = load_u32(kCheckpointBeginOffset);
  checkpoint.range.end = load_u32(kCheckpointEndOffset);
  checkpoint.fingerprint = load_u64(kCheckpointFingerprintOffset);
  if (checkpoint.range.end < checkpoint.range.begin) {
    return Status::InvalidArgument("checkpoint scene range is inverted");
  }
  const uint64_t payload_len = load_u64(kCheckpointPayloadLenOffset);
  if (payload_len != blob.size() - kCheckpointHeaderSize) {
    return Status::InvalidArgument(
        "checkpoint payload length does not match the file size");
  }
  const std::string_view payload = blob.substr(kCheckpointHeaderSize);
  if (Crc32(payload) != load_u32(kCheckpointPayloadCrcOffset)) {
    return Status::InvalidArgument("checkpoint payload CRC mismatch");
  }
  FIXY_ASSIGN_OR_RETURN(checkpoint.report, DecodeMultiAppReport(payload));
  for (const BatchReport& batch : checkpoint.report.reports) {
    if (batch.outcomes.size() != checkpoint.range.size()) {
      return Status::InvalidArgument(
          "checkpoint outcome count does not match its scene range");
    }
  }
  return checkpoint;
}

std::string ShardCheckpointPath(const std::string& checkpoint_dir,
                                size_t shard_index) {
  return checkpoint_dir + "/" +
         StrFormat("shard-%04zu.fxc", shard_index);
}

Status WriteShardCheckpoint(const std::string& checkpoint_dir,
                            const ShardCheckpoint& checkpoint) {
  std::error_code ec;
  std::filesystem::create_directories(checkpoint_dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " +
                           checkpoint_dir + ": " + ec.message());
  }
  return io::WriteFileAtomic(
      ShardCheckpointPath(checkpoint_dir, checkpoint.shard_index),
      EncodeShardCheckpoint(checkpoint));
}

Result<ShardCheckpoint> LoadShardCheckpoint(const std::string& path) {
  std::string blob;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(path, &blob));
  return DecodeShardCheckpoint(blob);
}

}  // namespace fixy::shard
