#include "core/model_artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/mapped_file.h"
#include "core/flat_forest.h"
#include "core/flat_linear.h"

namespace hmd::core {

namespace {

constexpr char kMagic[4] = {'H', 'M', 'D', 'F'};
constexpr std::uint32_t kSectionCount = 3;  // config | scaler | engine
constexpr std::uint64_t kSectionTableOffset = 16;
constexpr std::size_t kSectionAlignment = 64;
const char* const kSectionNames[kSectionCount] = {"config", "scaler",
                                                 "engine"};

/// Section table entry: 24 bytes.
struct SectionEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 24, "table entries are streamed raw");

/// Byte offset of the header hash: right after the section table. The
/// hash covers bytes [0, kHeaderHashOffset).
constexpr std::uint64_t kHeaderHashOffset =
    kSectionTableOffset + kSectionCount * sizeof(SectionEntry);
/// Total header region (hash included).
constexpr std::uint64_t kHeaderBytes = kHeaderHashOffset + 8;

std::string hex_u64(std::uint64_t value) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Validate the 8-byte magic+version prefix, throwing the typed error
/// that names what is actually wrong (not-an-artifact vs another
/// version). The code is persistent, so a registry never retries it.
void check_prefix(const char* prefix, const std::string& path) {
  if (std::memcmp(prefix, kMagic, sizeof(kMagic)) != 0) {
    throw LoadError(LoadErrorCode::kBadMagic, path,
                    "bad magic (not a .hmdf artifact)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, prefix + sizeof(kMagic), sizeof(version));
  if (version != kModelFormatVersion) {
    throw LoadError(LoadErrorCode::kBadVersion, path,
                    "unsupported format version " + std::to_string(version) +
                        " (expected " + std::to_string(kModelFormatVersion) +
                        "); re-save it with hmd_train");
  }
}

/// The parsed header: the section table and the stored header hash.
struct Header {
  SectionEntry sections[kSectionCount];
  std::uint64_t hash = 0;
};

/// Parse the 96-byte header at the start of `in`: prefix, section count,
/// flags (exactly kArtifactFlagSectionChecksums; a checksum-less file is
/// another version), the table and the header hash. Verifies nothing
/// else.
Header read_header(io::ByteReader& in, const std::string& path) {
  check_prefix(in.view_span<char>(8), path);
  const auto section_count = in.read_pod<std::uint32_t>();
  const auto flags = in.read_pod<std::uint32_t>();
  if (section_count != kSectionCount) {
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "bad section count " + std::to_string(section_count));
  }
  if (flags != kArtifactFlagSectionChecksums) {
    throw LoadError(LoadErrorCode::kBadVersion, path,
                    "unsupported header flags " + hex_u64(flags) +
                        " (expected checksummed sections); re-save it "
                        "with hmd_train");
  }
  Header header;
  for (SectionEntry& entry : header.sections) {
    entry = in.read_pod<SectionEntry>();
  }
  header.hash = in.read_pod<std::uint64_t>();
  return header;
}

/// Every section must end inside a file of `file_bytes` bytes.
void check_section_bounds(const Header& header, std::uint64_t file_bytes,
                          const std::string& path) {
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& entry = header.sections[i];
    if (entry.offset + entry.size < entry.offset ||  // u64 overflow
        entry.offset + entry.size > file_bytes) {
      throw LoadError(LoadErrorCode::kTruncated, path,
                      "section '" + std::string(kSectionNames[i]) +
                          "' ends at byte " +
                          std::to_string(entry.offset + entry.size) +
                          ", past end of file (" +
                          std::to_string(file_bytes) + " bytes)");
    }
  }
}

/// fsync the file (or directory) at `path`; throws IoError on failure so
/// a save that could not be made durable is never reported as done.
void fsync_path(const std::string& path, bool directory) {
  const int flags =
      O_RDONLY | O_CLOEXEC | (directory ? O_DIRECTORY : 0);
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    throw IoError("save_model: cannot open for fsync: " + path + ": " +
                  std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw IoError("save_model: fsync failed for " + path + ": " +
                  std::strerror(errno));
  }
}

HmdConfig read_config(io::ByteReader& in, const std::string& path,
                      int n_threads, double& converged_fraction) {
  HmdConfig config;
  const auto model_kind = in.read_pod<std::uint32_t>();
  const auto n_members = in.read_pod<std::int32_t>();
  const auto mode = in.read_pod<std::uint32_t>();
  config.entropy_threshold = in.read_pod<double>();
  config.seed = in.read_pod<std::uint64_t>();
  const auto min_leaf = in.read_pod<std::int32_t>();
  const auto max_depth = in.read_pod<std::int32_t>();
  converged_fraction = in.read_pod<double>();
  if (model_kind > static_cast<std::uint32_t>(ModelKind::kBaggedSvm))
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "unknown model kind " + std::to_string(model_kind));
  if (mode > static_cast<std::uint32_t>(UncertaintyMode::kMaxProbability))
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "unknown uncertainty mode " + std::to_string(mode));
  if (n_members < 1)
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "implausible member count " + std::to_string(n_members));
  config.model = static_cast<ModelKind>(model_kind);
  config.n_members = n_members;
  config.mode = static_cast<UncertaintyMode>(mode);
  config.tree_min_samples_leaf = min_leaf;
  config.tree_max_depth = max_depth;
  config.n_threads = n_threads;
  return config;
}

void write_config(io::AlignedWriter& out, const HmdConfig& config,
                  double converged_fraction) {
  out.write_pod(static_cast<std::uint32_t>(config.model));
  out.write_pod(static_cast<std::int32_t>(config.n_members));
  out.write_pod(static_cast<std::uint32_t>(config.mode));
  out.write_pod(config.entropy_threshold);
  out.write_pod(config.seed);
  out.write_pod(static_cast<std::int32_t>(config.tree_min_samples_leaf));
  out.write_pod(static_cast<std::int32_t>(config.tree_max_depth));
  out.write_pod(converged_fraction);
}

/// The zero-copy layout (contract in model_artifact.h): header +
/// section table, then 64-byte-aligned config / scaler / engine sections.
/// Offsets, sizes, and checksums are patched in once known. Section
/// hashes are computed *in-stream* by the AlignedWriter as the bytes go
/// out (begin_hash/end_hash around each section), so the save never
/// re-reads the temp file — one write pass, one seekp to patch the
/// finished header.
void write_artifact(std::ostream& out, const UntrustedHmd& hmd) {
  const InferenceEngine& engine = hmd.engine();
  io::AlignedWriter writer(out);
  writer.write_span(kMagic, sizeof(kMagic));
  writer.write_pod(kModelFormatVersion);
  writer.write_pod(kSectionCount);
  writer.write_pod(kArtifactFlagSectionChecksums);
  // Placeholder section table and header hash, patched below once
  // offsets are known.
  SectionEntry sections[kSectionCount] = {};
  writer.write_span(sections, kSectionCount);
  writer.write_pod(std::uint64_t{0});

  // Pad to the section boundary *before* begin_hash so the hash covers
  // exactly [entry.offset, entry.offset + entry.size) — the same bytes
  // the load-path verifier sweeps.
  const auto begin_section = [&](SectionEntry& entry) {
    writer.pad_to(kSectionAlignment);
    entry.offset = writer.offset();
    writer.begin_hash();
  };
  const auto end_section = [&](SectionEntry& entry) {
    entry.size = writer.offset() - entry.offset;
    entry.checksum = writer.end_hash();
  };

  begin_section(sections[0]);
  write_config(writer, hmd.config(), hmd.converged_fraction());
  end_section(sections[0]);

  begin_section(sections[1]);
  const ml::StandardScaler& scaler = hmd.input_scaler();
  const std::uint8_t has_scaler = scaler.fitted() ? 1 : 0;
  writer.write_pod(has_scaler);
  if (has_scaler) {
    writer.write_pod(static_cast<std::uint64_t>(scaler.means().size()));
    writer.pad_to(kSectionAlignment);
    writer.write_span(scaler.means().data(), scaler.means().size());
    writer.pad_to(kSectionAlignment);
    writer.write_span(scaler.scales().data(), scaler.scales().size());
  }
  end_section(sections[1]);

  begin_section(sections[2]);
  writer.write_pod(static_cast<std::uint32_t>(engine.engine_id()));
  engine.save_blob_v2(writer);
  end_section(sections[2]);

  // Assemble the finished 96-byte header in memory so the header hash
  // can cover the *patched* table, then write table + hash in one go.
  // Bytes [0, kSectionTableOffset) are identical to what streamed out
  // above.
  unsigned char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  std::memcpy(header + 4, &kModelFormatVersion, 4);
  std::memcpy(header + 8, &kSectionCount, 4);
  std::memcpy(header + 12, &kArtifactFlagSectionChecksums, 4);
  std::memcpy(header + kSectionTableOffset, sections, sizeof(sections));
  const std::uint64_t header_hash = io::xxhash64(header, kHeaderHashOffset);
  std::memcpy(header + kHeaderHashOffset, &header_hash, sizeof(header_hash));
  out.seekp(static_cast<std::streamoff>(kSectionTableOffset));
  out.write(reinterpret_cast<const char*>(header + kSectionTableOffset),
            static_cast<std::streamsize>(kHeaderBytes - kSectionTableOffset));
}

/// Parse an artifact in place over `buffer` (mapped or heap-read; the
/// engines keep views into it either way). The header hash, then every
/// section hash, is verified *before* any payload parsing, and the
/// payload is then trusted (the verify-once-then-trust contract in
/// model_artifact.h).
TrustedHmd load_from_buffer(std::shared_ptr<const io::ArtifactBuffer> buffer,
                            const std::string& path, int n_threads) {
  io::ByteReader in(buffer->data(), buffer->size(), path);
  // Re-check the prefix from the buffer itself: the caller's stream peek
  // and this mapping are two opens, and a file swapped in between must
  // be rejected, not misparsed.
  const Header header = read_header(in, path);
  // Header hash first: it vouches for the table the section hashes are
  // about to be read through, so a flipped bit in a stored offset/size/
  // checksum is caught here rather than surfacing as a bounds error.
  const std::uint64_t actual = io::xxhash64(buffer->data(), kHeaderHashOffset);
  if (actual != header.hash) {
    throw LoadError(LoadErrorCode::kChecksum, path,
                    "header checksum mismatch (expected " +
                        hex_u64(header.hash) + ", got " + hex_u64(actual) +
                        ")");
  }
  check_section_bounds(header, buffer->size(), path);
  const SectionEntry* sections = header.sections;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& entry = sections[i];
    const std::uint64_t section_hash = io::xxhash64(
        buffer->data() + entry.offset, static_cast<std::size_t>(entry.size));
    if (section_hash != entry.checksum) {
      throw LoadError(LoadErrorCode::kChecksum, path,
                      "section '" + std::string(kSectionNames[i]) +
                          "' checksum mismatch (expected " +
                          hex_u64(entry.checksum) + ", got " +
                          hex_u64(section_hash) + ")");
    }
  }

  in.seek(sections[0].offset, kSectionAlignment);
  double converged_fraction = 1.0;
  HmdConfig config = read_config(in, path, n_threads, converged_fraction);

  in.seek(sections[1].offset, kSectionAlignment);
  ml::StandardScaler scaler;
  if (in.read_pod<std::uint8_t>() != 0) {
    const auto d = in.read_pod<std::uint64_t>();
    if (d == 0 || d > (1u << 24))
      throw LoadError(LoadErrorCode::kBadStructure, path,
                      "implausible scaler width " + std::to_string(d));
    // The scaler moments are tiny (d doubles each); they are copied out
    // of the buffer rather than viewed, because StandardScaler owns its
    // vectors and the engines carry their own moments anyway.
    in.align_to(kSectionAlignment);
    const double* means = in.view_span<double>(d);
    in.align_to(kSectionAlignment);
    const double* scales = in.view_span<double>(d);
    scaler = ml::StandardScaler::from_moments(
        std::vector<double>(means, means + d),
        std::vector<double>(scales, scales + d));
  }

  in.seek(sections[2].offset, kSectionAlignment);
  const auto engine_id = in.read_pod<std::uint32_t>();
  std::unique_ptr<InferenceEngine> engine;
  switch (static_cast<EngineId>(engine_id)) {
    case EngineId::kFlatForest:
      engine = FlatForestEngine::from_buffer(in, buffer);
      break;
    case EngineId::kFlatLinear:
      engine = FlatLinearEngine::from_buffer(in, buffer);
      break;
    default:
      throw LoadError(LoadErrorCode::kBadStructure, path,
                      "unknown engine id " + std::to_string(engine_id));
  }

  return TrustedHmd(std::move(config), std::move(engine), std::move(scaler),
                    converged_fraction);
}

}  // namespace

void InferenceEngine::save_blob(std::ostream& out) const {
  io::AlignedWriter writer(out);
  save_blob_v2(writer);
}

void save_model(const UntrustedHmd& hmd, const std::string& path) {
  HMD_REQUIRE(hmd.uses_flat_engine(),
              "save_model: detector has no compiled engine");

  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path());
  }
  // Write to a sibling temp file and rename into place, so an interrupted
  // save never leaves a half-written artifact under the real name — and
  // so replacing a *served* artifact gives the new bytes a fresh inode,
  // leaving live mappings of the old version untouched.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("save_model: cannot open " + tmp_path);
    write_artifact(out, hmd);
    // Flush explicitly before the stream check: the destructor's implicit
    // flush swallows errors, and a short tail lost to ENOSPC here would
    // otherwise be fsynced and renamed over the good artifact below.
    out.flush();
    if (!out) throw IoError("save_model: write failed for " + tmp_path);
  }
  // Durability before visibility: flush the temp file's bytes to stable
  // storage *before* the rename publishes them, then flush the directory
  // entry itself — a crash at any point leaves either the complete old
  // artifact or the complete new one, never a torn file for refresh().
  fsync_path(tmp_path, /*directory=*/false);
  std::filesystem::rename(tmp_path, path);
  fsync_path(fs_path.has_parent_path() ? fs_path.parent_path().string()
                                       : std::string("."),
             /*directory=*/true);
}

TrustedHmd load_model(const std::string& path, int n_threads, LoadMode mode) {
  // Armed with error:io (etc.) this simulates the whole artifact tier
  // failing — the seam the registry's retry/quarantine tests drive.
  HMD_FAILPOINT("artifact.load", path.c_str());
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw LoadError(LoadErrorCode::kIo, path,
                      std::string("cannot open artifact: ") +
                          std::strerror(errno));
    }
    char prefix[8];
    if (!in.read(prefix, sizeof(prefix))) {
      throw LoadError(LoadErrorCode::kTruncated, path,
                      "file shorter than the 8-byte artifact header");
    }
    check_prefix(prefix, path);
  }
  auto buffer = std::make_shared<io::ArtifactBuffer>([&] {
    switch (mode) {
      case LoadMode::kMmap:
        return io::ArtifactBuffer::map_file(path);
      case LoadMode::kStream:
        return io::ArtifactBuffer::read_file(path);
      case LoadMode::kAuto:
        break;
    }
    return io::ArtifactBuffer::map_or_read(path);
  }());
  return load_from_buffer(std::move(buffer), path, n_threads);
}

ArtifactInfo inspect_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw LoadError(LoadErrorCode::kIo, path,
                    std::string("cannot open artifact: ") +
                        std::strerror(errno));
  }
  ArtifactInfo info;
  info.file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  alignas(8) char bytes[kHeaderBytes];
  in.read(bytes, sizeof(bytes));
  io::ByteReader reader(reinterpret_cast<const std::byte*>(bytes),
                        static_cast<std::size_t>(in.gcount()), path);
  const Header header = read_header(reader, path);
  check_section_bounds(header, info.file_bytes, path);
  info.version = kModelFormatVersion;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& entry = header.sections[i];
    info.sections.push_back(
        {kSectionNames[i], entry.offset, entry.size, entry.checksum});
  }
  return info;
}

}  // namespace hmd::core
