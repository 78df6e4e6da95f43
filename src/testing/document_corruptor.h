// Seeded fault injection for .fixy JSON documents.
//
// The corruptor takes a well-formed document and applies one or more
// mutations drawn from the failure modes we see in practice with
// perception data interchange: truncated uploads, schema drift (dropped
// or re-typed fields), NaN/overflow values from upstream pipelines, and
// duplicated observation ids from buggy exporters. Mutations are driven
// by an explicit seed, so every corrupted document a test produces is
// reproducible from its seed alone.
//
// The harness contract the rest of the system is tested against: any
// output of Corrupt(), fed through parse -> validate -> rank, must either
// be rejected with a Status or be scored — never crash, abort, or poison
// other scenes in a batch.
#ifndef FIXY_TESTING_DOCUMENT_CORRUPTOR_H_
#define FIXY_TESTING_DOCUMENT_CORRUPTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace fixy::testing {

/// One family of document mutation.
enum class CorruptionKind {
  /// Cuts the document off at a random byte (simulates a partial write).
  kTruncate,
  /// Overwrites a few bytes with random printable characters.
  kByteNoise,
  /// Replaces a randomly chosen JSON value with one of a different type.
  kTypeFlip,
  /// Removes a randomly chosen member from a JSON object.
  kFieldDrop,
  /// Replaces a number with a hostile value: a huge-but-finite double at
  /// the tree level, or an unparseable NaN/Infinity/1e999 literal at the
  /// text level.
  kNumberInjection,
  /// Copies one observation's "id" onto a sibling observation.
  kDuplicateId,
};

/// Human-readable name, e.g. "truncate".
const char* ToString(CorruptionKind kind);

/// One family of FXB container mutation. Unlike the JSON kinds these are
/// layout-aware: they use the exported fxb.h offsets, and the kinds that
/// alter a checked field (version, section length) recompute the affected
/// CRCs so the mutation reaches that field's own validation path instead
/// of being caught earlier by a checksum mismatch.
enum class BinaryCorruptionKind {
  /// Cuts the blob off inside the 64-byte header.
  kHeaderTruncate,
  /// Cuts the blob off at a random byte (partial write).
  kTruncate,
  /// XORs a few random bytes anywhere in the blob (bit rot).
  kByteFlip,
  /// Corrupts one byte inside a scene section, leaving header and index
  /// intact — exactly that scene's checksum fails; its neighbours decode.
  kChecksumFlip,
  /// Bumps the format version with the header CRC recomputed, so the
  /// reader's version check (not its checksum check) must reject it.
  kVersionBump,
  /// Rewrites one index entry's section length (CRCs recomputed), so the
  /// reader's bounds/section checks must catch the lie.
  kSectionLengthLie,
  /// XORs one byte inside the per-scene source map (header intact), so
  /// the source map CRC check must reject the container.
  kSourceMapFlip,
  /// Rewrites one source record's mtime and CRC with the map and header
  /// CRCs re-sealed — a per-scene fingerprint lying about its source.
  /// The container opens; incremental staleness logic must treat the
  /// lied-about scene as changed, never crash.
  kSourceRecordLie,
};

/// Human-readable name, e.g. "version-bump".
const char* ToString(BinaryCorruptionKind kind);

/// The outcome of one Corrupt() call.
struct CorruptionResult {
  /// The mutated document text.
  std::string document;
  /// What was done, in order, e.g. {"field-drop(frames[2].ego)", ...}.
  /// Included in test failure messages so a crashing seed is diagnosable.
  std::vector<std::string> mutations;
};

/// Deterministic document mutator. All randomness comes from the seed
/// passed at construction; the same seed and input document always yield
/// the same CorruptionResult.
class DocumentCorruptor {
 public:
  explicit DocumentCorruptor(uint64_t seed);

  /// Applies 1-3 randomly chosen mutations to `document` and returns the
  /// result. The input is expected to be valid JSON; structural mutations
  /// that find the current text unparseable (because an earlier text-level
  /// mutation broke it) degrade to byte noise.
  CorruptionResult Corrupt(const std::string& document);

  /// Applies exactly one mutation of the given kind. Used by targeted
  /// tests; Corrupt() composes these.
  std::string Apply(CorruptionKind kind, const std::string& document,
                    std::string* detail);

  /// Applies one randomly chosen binary mutation to an FXB container
  /// blob. One mutation (not 1-3) so tests can reason about exactly which
  /// scenes a given seed damages.
  CorruptionResult CorruptBinary(const std::string& blob);

  /// Applies exactly one binary mutation of the given kind. Blobs too
  /// short to carry the targeted structure degrade to kByteFlip.
  std::string ApplyBinary(BinaryCorruptionKind kind, const std::string& blob,
                          std::string* detail);

 private:
  Rng rng_;
};

}  // namespace fixy::testing

#endif  // FIXY_TESTING_DOCUMENT_CORRUPTOR_H_
