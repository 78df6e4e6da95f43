#include "testing/document_corruptor.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "common/crc32.h"
#include "common/string_util.h"
#include "io/fxb.h"
#include "json/json.h"

namespace fixy::testing {

namespace {

using json::Array;
using json::Object;
using json::Type;
using json::Value;

// Collects pointers to every value in the tree, root included, in a
// deterministic depth-first order (object members are sorted by key).
void CollectValues(Value* v, std::vector<Value*>* out) {
  out->push_back(v);
  if (v->is_array()) {
    for (Value& element : v->AsArray()) CollectValues(&element, out);
  } else if (v->is_object()) {
    for (auto& [key, member] : v->AsObject()) CollectValues(&member, out);
  }
}

void CollectObjects(Value* v, std::vector<Value*>* out) {
  if (v->is_object() && !v->AsObject().empty()) out->push_back(v);
  if (v->is_array()) {
    for (Value& element : v->AsArray()) CollectObjects(&element, out);
  } else if (v->is_object()) {
    for (auto& [key, member] : v->AsObject()) CollectObjects(&member, out);
  }
}

void CollectNumbers(Value* v, std::vector<Value*>* out) {
  if (v->is_number()) out->push_back(v);
  if (v->is_array()) {
    for (Value& element : v->AsArray()) CollectNumbers(&element, out);
  } else if (v->is_object()) {
    for (auto& [key, member] : v->AsObject()) CollectNumbers(&member, out);
  }
}

// Collects every array whose elements are objects carrying an "id" member
// (the observation arrays of a .fixy scene).
void CollectIdArrays(Value* v, std::vector<Array*>* out) {
  if (v->is_array()) {
    Array& arr = v->AsArray();
    size_t with_id = 0;
    for (Value& element : arr) {
      if (element.is_object() && element.Find("id") != nullptr) ++with_id;
    }
    if (with_id >= 2) out->push_back(&arr);
    for (Value& element : arr) CollectIdArrays(&element, out);
  } else if (v->is_object()) {
    for (auto& [key, member] : v->AsObject()) CollectIdArrays(&member, out);
  }
}

// A replacement value guaranteed to have a different type than `v`.
Value FlippedValue(const Value& v, Rng* rng) {
  static const char* kStrings[] = {"corrupt", "", "NaN", "-3"};
  switch (v.type()) {
    case Type::kNumber:
      return Value(kStrings[rng->UniformInt(4)]);
    case Type::kString:
      return rng->Bernoulli(0.5) ? Value(static_cast<double>(
                                       rng->UniformInt(1000)) -
                                   500.0)
                                 : Value(nullptr);
    case Type::kArray:
      return rng->Bernoulli(0.5) ? Value(nullptr) : Value(-1.0);
    case Type::kObject:
      return rng->Bernoulli(0.5) ? Value(Array{}) : Value(false);
    case Type::kBool:
      return Value("true");
    case Type::kNull:
    default:
      return Value(1e18);
  }
}

std::string ApplyByteNoise(const std::string& document, Rng* rng,
                           std::string* detail) {
  std::string out = document;
  if (out.empty()) {
    *detail = "byte-noise(empty)";
    return out;
  }
  const size_t count = 1 + rng->UniformInt(8);
  for (size_t i = 0; i < count; ++i) {
    const size_t pos = static_cast<size_t>(rng->UniformInt(out.size()));
    // Printable ASCII, including structural characters like '}' and ','.
    out[pos] = static_cast<char>(0x20 + rng->UniformInt(95));
  }
  *detail = StrFormat("byte-noise(%zu bytes)", count);
  return out;
}

std::string ApplyTruncate(const std::string& document, Rng* rng,
                          std::string* detail) {
  if (document.empty()) {
    *detail = "truncate(empty)";
    return document;
  }
  const size_t keep = static_cast<size_t>(rng->UniformInt(document.size()));
  *detail = StrFormat("truncate(%zu of %zu bytes)", keep, document.size());
  return document.substr(0, keep);
}

// Replaces a numeric token in the raw text with a literal the JSON
// grammar cannot represent (NaN, Infinity) or that overflows double
// (1e999). Exercises the parser's number validation.
std::string ApplyTextNumberInjection(const std::string& document, Rng* rng,
                                     std::string* detail) {
  static const char* kLiterals[] = {"NaN", "Infinity", "-Infinity",
                                    "1e999", "-1e999"};
  std::vector<size_t> digit_starts;
  for (size_t i = 0; i < document.size(); ++i) {
    const bool is_digit = document[i] >= '0' && document[i] <= '9';
    const bool prev_numeric =
        i > 0 && (std::isdigit(static_cast<unsigned char>(document[i - 1])) ||
                  document[i - 1] == '-' || document[i - 1] == '.' ||
                  document[i - 1] == 'e' || document[i - 1] == 'E');
    if (is_digit && !prev_numeric) digit_starts.push_back(i);
  }
  if (digit_starts.empty()) {
    return ApplyByteNoise(document, rng, detail);
  }
  const size_t start =
      digit_starts[rng->UniformInt(digit_starts.size())];
  size_t end = start;
  while (end < document.size() &&
         (std::isdigit(static_cast<unsigned char>(document[end])) ||
          document[end] == '.' || document[end] == 'e' ||
          document[end] == 'E' || document[end] == '-' ||
          document[end] == '+')) {
    ++end;
  }
  const char* literal = kLiterals[rng->UniformInt(5)];
  *detail = StrFormat("text-number(%s at byte %zu)", literal, start);
  return document.substr(0, start) + literal + document.substr(end);
}

}  // namespace

const char* ToString(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kTruncate:
      return "truncate";
    case CorruptionKind::kByteNoise:
      return "byte-noise";
    case CorruptionKind::kTypeFlip:
      return "type-flip";
    case CorruptionKind::kFieldDrop:
      return "field-drop";
    case CorruptionKind::kNumberInjection:
      return "number-injection";
    case CorruptionKind::kDuplicateId:
      return "duplicate-id";
  }
  return "unknown";
}

DocumentCorruptor::DocumentCorruptor(uint64_t seed) : rng_(seed) {}

std::string DocumentCorruptor::Apply(CorruptionKind kind,
                                     const std::string& document,
                                     std::string* detail) {
  // Text-level mutations never need the document to parse.
  if (kind == CorruptionKind::kTruncate) {
    return ApplyTruncate(document, &rng_, detail);
  }
  if (kind == CorruptionKind::kByteNoise) {
    return ApplyByteNoise(document, &rng_, detail);
  }
  if (kind == CorruptionKind::kNumberInjection && rng_.Bernoulli(0.5)) {
    return ApplyTextNumberInjection(document, &rng_, detail);
  }

  // Structural mutations operate on the parsed tree. If an earlier
  // mutation already broke the syntax there is no tree to edit; degrade
  // to byte noise so the call still mutates something.
  Result<Value> parsed = json::Parse(document);
  if (!parsed.ok()) {
    return ApplyByteNoise(document, &rng_, detail);
  }
  Value root = std::move(*parsed);

  switch (kind) {
    case CorruptionKind::kTypeFlip: {
      std::vector<Value*> values;
      CollectValues(&root, &values);
      Value* target = values[rng_.UniformInt(values.size())];
      const Value replacement = FlippedValue(*target, &rng_);
      *detail = StrFormat("type-flip(#%zu)", values.size());
      *target = replacement;
      break;
    }
    case CorruptionKind::kFieldDrop: {
      std::vector<Value*> objects;
      CollectObjects(&root, &objects);
      if (objects.empty()) {
        return ApplyByteNoise(document, &rng_, detail);
      }
      Object& obj = objects[rng_.UniformInt(objects.size())]->AsObject();
      auto it = obj.begin();
      std::advance(it, static_cast<long>(rng_.UniformInt(obj.size())));
      *detail = StrFormat("field-drop(%s)", it->first.c_str());
      obj.erase(it);
      break;
    }
    case CorruptionKind::kNumberInjection: {
      std::vector<Value*> numbers;
      CollectNumbers(&root, &numbers);
      if (numbers.empty()) {
        return ApplyTextNumberInjection(document, &rng_, detail);
      }
      static const double kHostile[] = {1e300, -1e300, 1e15, -1e15, 0.0,
                                        -1.0};
      Value* target = numbers[rng_.UniformInt(numbers.size())];
      const double injected = kHostile[rng_.UniformInt(6)];
      *detail = StrFormat("tree-number(%g)", injected);
      *target = Value(injected);
      break;
    }
    case CorruptionKind::kDuplicateId: {
      std::vector<Array*> arrays;
      CollectIdArrays(&root, &arrays);
      if (arrays.empty()) {
        return ApplyByteNoise(document, &rng_, detail);
      }
      Array& arr = *arrays[rng_.UniformInt(arrays.size())];
      const size_t from = rng_.UniformInt(arr.size());
      size_t to = rng_.UniformInt(arr.size());
      if (to == from) to = (to + 1) % arr.size();
      const Value* id = arr[from].Find("id");
      if (id == nullptr || !arr[to].is_object()) {
        return ApplyByteNoise(document, &rng_, detail);
      }
      *detail = StrFormat("duplicate-id(%zu -> %zu)", from, to);
      arr[to].AsObject()["id"] = *id;
      break;
    }
    case CorruptionKind::kTruncate:
    case CorruptionKind::kByteNoise:
      break;  // handled above
  }
  return json::Write(root);
}

namespace {

template <typename T>
T LoadField(const std::string& blob, size_t offset) {
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void StoreField(std::string* blob, size_t offset, T value) {
  std::memcpy(blob->data() + offset, &value, sizeof(T));
}

// Recomputes the header CRC over bytes [0, kFxbHeaderCrcOffset). Mutations
// that change a *checked* header field (version, index CRC) call this so
// the reader's targeted validation — not the checksum — rejects the blob.
void RefreshHeaderCrc(std::string* blob) {
  StoreField<uint32_t>(blob, io::kFxbHeaderCrcOffset,
                       Crc32(blob->data(), io::kFxbHeaderCrcOffset));
}

std::string ApplyBinaryByteFlip(const std::string& blob, Rng* rng,
                                std::string* detail) {
  std::string out = blob;
  if (out.empty()) {
    *detail = "bin-byte-flip(empty)";
    return out;
  }
  const size_t count = 1 + rng->UniformInt(8);
  for (size_t i = 0; i < count; ++i) {
    const size_t pos = static_cast<size_t>(rng->UniformInt(out.size()));
    out[pos] = static_cast<char>(out[pos] ^
                                 static_cast<char>(1 + rng->UniformInt(255)));
  }
  *detail = StrFormat("bin-byte-flip(%zu bytes)", count);
  return out;
}

}  // namespace

const char* ToString(BinaryCorruptionKind kind) {
  switch (kind) {
    case BinaryCorruptionKind::kHeaderTruncate:
      return "header-truncate";
    case BinaryCorruptionKind::kTruncate:
      return "bin-truncate";
    case BinaryCorruptionKind::kByteFlip:
      return "bin-byte-flip";
    case BinaryCorruptionKind::kChecksumFlip:
      return "checksum-flip";
    case BinaryCorruptionKind::kVersionBump:
      return "version-bump";
    case BinaryCorruptionKind::kSectionLengthLie:
      return "section-length-lie";
    case BinaryCorruptionKind::kSourceMapFlip:
      return "source-map-flip";
    case BinaryCorruptionKind::kSourceRecordLie:
      return "source-record-lie";
  }
  return "unknown";
}

namespace {

// Locates the source map region [index end, blob end). Returns false when
// the header lies badly enough that there is no in-bounds map to target.
bool SourceMapRegion(const std::string& blob, size_t* begin, size_t* size) {
  if (blob.size() < io::kFxbHeaderSize) return false;
  const uint32_t scene_count =
      LoadField<uint32_t>(blob, io::kFxbSceneCountOffset);
  const uint64_t index_offset =
      LoadField<uint64_t>(blob, io::kFxbIndexOffsetOffset);
  const uint64_t index_size =
      static_cast<uint64_t>(scene_count) * io::kFxbIndexEntrySize;
  if (index_offset > blob.size() || index_size > blob.size() - index_offset) {
    return false;
  }
  *begin = static_cast<size_t>(index_offset + index_size);
  *size = blob.size() - *begin;
  return *size > 0;
}

}  // namespace

std::string DocumentCorruptor::ApplyBinary(BinaryCorruptionKind kind,
                                           const std::string& blob,
                                           std::string* detail) {
  // The structure-aware kinds need at least a whole header to aim at.
  const bool has_header = blob.size() >= io::kFxbHeaderSize;

  switch (kind) {
    case BinaryCorruptionKind::kHeaderTruncate: {
      const size_t limit = std::min(blob.size(), io::kFxbHeaderSize);
      const size_t keep =
          limit == 0 ? 0 : static_cast<size_t>(rng_.UniformInt(limit));
      *detail = StrFormat("header-truncate(%zu of %zu bytes)", keep,
                          blob.size());
      return blob.substr(0, keep);
    }
    case BinaryCorruptionKind::kTruncate: {
      if (blob.empty()) {
        *detail = "bin-truncate(empty)";
        return blob;
      }
      const size_t keep = static_cast<size_t>(rng_.UniformInt(blob.size()));
      *detail =
          StrFormat("bin-truncate(%zu of %zu bytes)", keep, blob.size());
      return blob.substr(0, keep);
    }
    case BinaryCorruptionKind::kByteFlip:
      return ApplyBinaryByteFlip(blob, &rng_, detail);
    case BinaryCorruptionKind::kChecksumFlip: {
      if (!has_header) return ApplyBinaryByteFlip(blob, &rng_, detail);
      // Damage one byte strictly inside the scene-sections region so the
      // header and index still verify: exactly one scene's section CRC
      // then fails, and the reader must quarantine it in isolation.
      const uint32_t name_bytes =
          LoadField<uint32_t>(blob, io::kFxbNameBytesOffset);
      const uint64_t index_offset =
          LoadField<uint64_t>(blob, io::kFxbIndexOffsetOffset);
      const uint64_t sections_begin = io::kFxbHeaderSize + name_bytes;
      if (index_offset <= sections_begin || index_offset > blob.size()) {
        return ApplyBinaryByteFlip(blob, &rng_, detail);
      }
      std::string out = blob;
      const size_t span = static_cast<size_t>(index_offset - sections_begin);
      const size_t pos =
          sections_begin + static_cast<size_t>(rng_.UniformInt(span));
      out[pos] = static_cast<char>(
          out[pos] ^ static_cast<char>(1 + rng_.UniformInt(255)));
      *detail = StrFormat("checksum-flip(section byte %zu)", pos);
      return out;
    }
    case BinaryCorruptionKind::kVersionBump: {
      if (!has_header) return ApplyBinaryByteFlip(blob, &rng_, detail);
      std::string out = blob;
      const uint32_t bumped =
          io::kFxbVersion + 1 + static_cast<uint32_t>(rng_.UniformInt(100));
      StoreField<uint32_t>(&out, io::kFxbVersionOffset, bumped);
      RefreshHeaderCrc(&out);
      *detail = StrFormat("version-bump(%u)", bumped);
      return out;
    }
    case BinaryCorruptionKind::kSectionLengthLie: {
      if (!has_header) return ApplyBinaryByteFlip(blob, &rng_, detail);
      const uint32_t scene_count =
          LoadField<uint32_t>(blob, io::kFxbSceneCountOffset);
      const uint64_t index_offset =
          LoadField<uint64_t>(blob, io::kFxbIndexOffsetOffset);
      const uint64_t index_size =
          static_cast<uint64_t>(scene_count) * io::kFxbIndexEntrySize;
      if (scene_count == 0 || index_offset > blob.size() ||
          index_size > blob.size() - index_offset) {
        return ApplyBinaryByteFlip(blob, &rng_, detail);
      }
      std::string out = blob;
      const size_t entry = static_cast<size_t>(rng_.UniformInt(scene_count));
      const size_t entry_base =
          static_cast<size_t>(index_offset) + entry * io::kFxbIndexEntrySize;
      const size_t length_off = entry_base + sizeof(uint64_t);
      const uint64_t lied =
          LoadField<uint64_t>(out, length_off) + 1 +
          static_cast<uint64_t>(rng_.UniformInt(1u << 20));
      StoreField<uint64_t>(&out, length_off, lied);
      // Re-seal index and header so only the bounds/section checks can
      // catch the lie.
      StoreField<uint32_t>(
          &out, io::kFxbIndexCrcOffset,
          Crc32(out.data() + index_offset, static_cast<size_t>(index_size)));
      RefreshHeaderCrc(&out);
      *detail = StrFormat("section-length-lie(scene %zu -> %llu bytes)",
                          entry, static_cast<unsigned long long>(lied));
      return out;
    }
    case BinaryCorruptionKind::kSourceMapFlip: {
      size_t map_begin = 0;
      size_t map_size = 0;
      if (!SourceMapRegion(blob, &map_begin, &map_size)) {
        return ApplyBinaryByteFlip(blob, &rng_, detail);
      }
      std::string out = blob;
      const size_t pos =
          map_begin + static_cast<size_t>(rng_.UniformInt(map_size));
      out[pos] = static_cast<char>(
          out[pos] ^ static_cast<char>(1 + rng_.UniformInt(255)));
      *detail = StrFormat("source-map-flip(byte %zu)", pos);
      return out;
    }
    case BinaryCorruptionKind::kSourceRecordLie: {
      size_t map_begin = 0;
      size_t map_size = 0;
      // The smallest record (empty name) still carries its fixed tail.
      if (!SourceMapRegion(blob, &map_begin, &map_size) ||
          map_size < sizeof(uint32_t) + io::kFxbSourceRecordTailSize) {
        return ApplyBinaryByteFlip(blob, &rng_, detail);
      }
      std::string out = blob;
      // Walk to a random record and rewrite its mtime_ns and crc fields.
      const uint32_t source_count =
          LoadField<uint32_t>(out, io::kFxbSourceCountOffset);
      if (source_count == 0) return ApplyBinaryByteFlip(blob, &rng_, detail);
      const size_t target = static_cast<size_t>(rng_.UniformInt(source_count));
      size_t pos = map_begin;
      for (size_t i = 0; i < source_count; ++i) {
        if (pos + sizeof(uint32_t) > out.size()) {
          return ApplyBinaryByteFlip(blob, &rng_, detail);
        }
        const uint32_t name_len = LoadField<uint32_t>(out, pos);
        const size_t tail = pos + sizeof(uint32_t) + name_len;
        if (tail + io::kFxbSourceRecordTailSize > out.size()) {
          return ApplyBinaryByteFlip(blob, &rng_, detail);
        }
        if (i == target) {
          const size_t mtime_off = tail + sizeof(uint64_t);
          const size_t crc_off = mtime_off + sizeof(uint64_t);
          StoreField<uint64_t>(&out, mtime_off, rng_.NextUint64());
          StoreField<uint32_t>(&out, crc_off,
                               static_cast<uint32_t>(rng_.NextUint64()));
          break;
        }
        pos = tail + io::kFxbSourceRecordTailSize;
      }
      // Re-seal the map and header CRCs so the lie parses cleanly and
      // only the staleness comparison sees it.
      StoreField<uint32_t>(&out, io::kFxbSourceMapCrcOffset,
                           Crc32(out.data() + map_begin, map_size));
      RefreshHeaderCrc(&out);
      *detail = StrFormat("source-record-lie(record %zu)", target);
      return out;
    }
  }
  return ApplyBinaryByteFlip(blob, &rng_, detail);
}

CorruptionResult DocumentCorruptor::CorruptBinary(const std::string& blob) {
  static const BinaryCorruptionKind kKinds[] = {
      BinaryCorruptionKind::kHeaderTruncate,
      BinaryCorruptionKind::kTruncate,
      BinaryCorruptionKind::kByteFlip,
      BinaryCorruptionKind::kChecksumFlip,
      BinaryCorruptionKind::kVersionBump,
      BinaryCorruptionKind::kSectionLengthLie,
      BinaryCorruptionKind::kSourceMapFlip,
      BinaryCorruptionKind::kSourceRecordLie,
  };
  const BinaryCorruptionKind kind = kKinds[rng_.UniformInt(8)];
  CorruptionResult result;
  std::string detail;
  result.document = ApplyBinary(kind, blob, &detail);
  result.mutations.push_back(detail.empty() ? ToString(kind) : detail);
  return result;
}

CorruptionResult DocumentCorruptor::Corrupt(const std::string& document) {
  static const CorruptionKind kKinds[] = {
      CorruptionKind::kTruncate,     CorruptionKind::kByteNoise,
      CorruptionKind::kTypeFlip,     CorruptionKind::kFieldDrop,
      CorruptionKind::kNumberInjection, CorruptionKind::kDuplicateId,
  };
  CorruptionResult result;
  result.document = document;
  const size_t count = 1 + rng_.UniformInt(3);
  for (size_t i = 0; i < count; ++i) {
    const CorruptionKind kind = kKinds[rng_.UniformInt(6)];
    std::string detail;
    result.document = Apply(kind, result.document, &detail);
    result.mutations.push_back(detail.empty() ? ToString(kind) : detail);
  }
  return result;
}

}  // namespace fixy::testing
