#pragma once
// Versioned on-disk model artifact — the train-once / serve-many split.
//
// A `.hmdf` file holds everything a serving process needs and nothing the
// trainer used. There is one format: checksummed v2, the zero-copy layout.
// Anything else (a v1 stream file, or a v2 file with the checksum flag
// clear) is rejected with LoadError{kBadVersion}; re-save it with
// hmd_train.
//
// All integers little-endian. Every section starts on a 64-byte file
// offset, and inside the engine section every large array is padded to a
// 64-byte file offset too. mmap returns a page-aligned base, so file-
// offset alignment == memory alignment: the node arena and the M×d weight
// matrices are directly usable in place, and a serving process's model
// residency cost is O(page faults actually touched), not O(bytes copied).
//
//   [ 0.. 4)  magic "HMDF"
//   [ 4.. 8)  u32 version = 2
//   [ 8..12)  u32 section_count = 3
//   [12..16)  u32 flags = kArtifactFlagSectionChecksums (bit 0 must be
//             set; every other bit must be clear)
//   [16..88)  section table: section_count × { u64 offset, u64 size,
//             u64 xxh64 } — the checksum is XXH64 (common/checksum.h,
//             seed 0) over the section's exact [offset, offset+size)
//             bytes, internal alignment padding included.
//   [88..96)  u64 header_xxh64: XXH64 over bytes [0, 88) — magic,
//             version, counts, flags, and the whole table — so a bit
//             flip in a stored offset/size/checksum is itself caught.
//
//   Sections in order: config, scaler, engine. Offsets are 64-byte
//   aligned and in-bounds; sizes are exact payload bytes (loaders reject
//   misaligned or out-of-range entries).
//
//   config section:
//     u32 model_kind | i32 n_members | u32 uncertainty_mode
//     f64 entropy_threshold | u64 seed | i32 tree_min_samples_leaf
//     i32 tree_max_depth | f64 converged_fraction
//   scaler section:
//     u8 has_scaler | [u64 d | align64 | f64 means[d] | align64 |
//     f64 scales[d]]
//   engine section:
//     u32 engine_id | engine blob (see the engine's save_blob_v2):
//       flat_forest: u64 n_features | u64 n_nodes | u64 n_roots
//                    | align64 | Node nodes[n_nodes]
//                    | align64 | f64 leaf_entropy[n_nodes]
//                    | align64 | i32 roots[n_roots]
//       flat_linear: u8 kind | u64 M | u64 d
//                    | align64 | f64 weights[M*d]      (member-major)
//                    | align64 | f64 weights_t[M*d]    (feature-major —
//                      the batch-kernel layout, carried on disk so it
//                      maps in place instead of being rebuilt at load)
//                    | align64 | f64 bias[M] | align64 | f64 platt_a[M]
//                    | align64 | f64 platt_b[M] | align64 | f64 means[d]
//                    | align64 | f64 scales[d]
//
// ## Integrity and trust (the verify-once-then-trust contract)
//
// A load verifies the header hash, then every section's hash, *before*
// parsing — one sequential, prefetcher-friendly sweep of the bytes — and
// then trusts the content: there is no O(n_nodes) structural walk of the
// forest arena (only the geometry caps and the O(M) root checks run), so
// any single bit flip anywhere in any section — a weight double or a
// leaf probability included — is rejected with LoadError{kChecksum}, and
// cold start never pays a pointer-chasing walk over every node page.
//
// Threat model: the checksum is an *integrity* check (bit rot, torn or
// interrupted writes, flaky storage), not an *authenticity* check — a
// writer who controls the file can recompute XXH64, exactly as they
// could simply write a well-formed artifact with hostile weights. Only
// load artifacts from writers you already trust to choose your model.
//
// save_model() writes atomically and durably: temp file + fsync(file) +
// rename + fsync(directory), so a crash mid-field-update can never leave
// a torn artifact under the real name for DetectorRegistry::refresh() to
// pick up. The rename discipline is also what makes hot-swap safe for
// mapped artifacts: replacing the directory entry leaves the old inode —
// and every live mapping of it — intact until the last reader drops it.
// (Overwriting a served artifact *in place* is a contract violation: a
// process still mapping the old bytes would see torn data or SIGBUS.)
//
// Loaders throw a typed LoadError (common/error.h) naming the failure
// class: kIo (missing/unreadable file), kBadMagic, kBadVersion,
// kChecksum, kTruncated, kBadStructure (misaligned / out-of-range /
// implausible geometry), kMmapFailed (LoadMode::kMmap only — kAuto falls
// back to the stream read itself).

#include <cstdint>
#include <string>
#include <vector>

#include "core/hmd.h"

namespace hmd::core {

/// The artifact version. Bump when the layout changes.
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// Header flags word (bytes [12..16)); bit 0 must be set.
inline constexpr std::uint32_t kArtifactFlagSectionChecksums = 1u;

/// How load_model materialises the artifact bytes.
enum class LoadMode {
  /// mmap, falling back to a full buffer read if mapping fails. The
  /// serving default.
  kAuto,
  /// mmap or throw LoadError{kMmapFailed}.
  kMmap,
  /// Never map: parse from a full heap read into an aligned buffer.
  kStream,
};

/// Persist a fitted detector (config + scaler + compiled engine) to
/// `path`. The detector must be using a flat engine. Writes are atomic
/// and durable (see header).
void save_model(const UntrustedHmd& hmd, const std::string& path);

/// Reconstruct a serving-only detector from an artifact. `n_threads`
/// sizes the serving thread pool (<= 0 = all cores) — it intentionally
/// does not come from the artifact, since the training host's core count
/// is meaningless to the serving host. `mode` picks how the bytes are
/// materialised (see LoadMode); every mode yields bit-identical outputs.
TrustedHmd load_model(const std::string& path, int n_threads = 0,
                      LoadMode mode = LoadMode::kAuto);

/// Header-level description of an artifact on disk, read without parsing
/// (or validating) any section payload. The introspection surface behind
/// tools/hmd_faultgen and the per-section corruption tests: sections are
/// reported in table order (config, scaler, engine) with their exact
/// byte ranges, so a test or corruption tool can target "one byte of the
/// engine section" without hard-coding layout offsets.
struct ArtifactSectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

struct ArtifactInfo {
  std::uint32_t version = 0;
  /// Always true: every loadable artifact is checksummed. Kept because
  /// perfbench/ still reads it.
  bool section_checksums = true;
  std::uint64_t file_bytes = 0;
  std::vector<ArtifactSectionInfo> sections;
};

/// Read an artifact's header + section table. Throws LoadError on a
/// missing file, bad magic, unsupported version or flags, or a table
/// that is truncated/out-of-range — but does NOT verify section checksums or
/// parse payloads (that is load_model's job).
ArtifactInfo inspect_model(const std::string& path);

}  // namespace hmd::core
