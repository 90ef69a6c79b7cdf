#pragma once
// Zero-copy artifact memory: a RAII read-only file mapping and the
// ArtifactBuffer that the `.hmdf` loader parses in place.
//
// MappedFile wraps mmap(PROT_READ, MAP_PRIVATE) of a whole file. The
// mapping base is page-aligned, so any file offset that is 64-byte
// aligned on disk is 64-byte aligned in memory — the property the
// artifact layout (core/model_artifact.h) is built around. Unmapping
// happens in the destructor; a mapping outlives any rename that replaces
// the file's directory entry (the inode stays live until the last
// mapping drops), which is what lets DetectorRegistry hot-swap an
// artifact while in-flight snapshots keep serving the old bytes.
//
// ArtifactBuffer owns artifact bytes either as a MappedFile (zero-copy:
// residency cost is the page faults actually touched) or as a 64-byte-
// aligned heap blob (full-copy: one read() of the whole file). Both give
// the same (data, size) view, so the parser is a single code path and
// mmap-loaded engines are trivially bit-identical to buffer-read ones.
//
// The discipline callers must keep: a writer replacing a mapped file must
// publish via temp-file + rename (save_model does). Truncating or
// rewriting the mapped inode in place yields SIGBUS / torn reads in
// processes still holding the old mapping — rename never does.

#include <cstddef>
#include <memory>
#include <string>

namespace hmd::io {

/// RAII read-only memory mapping of an entire file. Move-only; the
/// destructor unmaps. Throws IoError when the file cannot be opened,
/// statted, or mapped (an empty file is unmappable and also throws —
/// no artifact is 0 bytes).
class MappedFile {
 public:
  /// Map `path` read-only in whole.
  static MappedFile map(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  MappedFile() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Owns one artifact's bytes — either a file mapping or a heap blob —
/// and exposes them as a contiguous read-only span. Heap blobs are
/// allocated 64-byte aligned so the parser's alignment checks hold
/// for both ownership modes.
class ArtifactBuffer {
 public:
  /// mmap `path`; throws IoError on failure.
  static ArtifactBuffer map_file(const std::string& path);

  /// Read `path` in full into an aligned heap blob (the stream-style
  /// full-copy load); throws IoError on open/short-read failure.
  static ArtifactBuffer read_file(const std::string& path);

  /// map_file, falling back to read_file when the mapping fails (e.g.
  /// a filesystem without mmap support).
  static ArtifactBuffer map_or_read(const std::string& path);

  ArtifactBuffer(ArtifactBuffer&&) noexcept = default;
  ArtifactBuffer& operator=(ArtifactBuffer&&) noexcept = default;

  const std::byte* data() const {
    return mapping_ ? mapping_->data() : blob_.get();
  }
  std::size_t size() const { return size_; }
  /// True when the bytes are a live file mapping (zero-copy residency).
  bool mapped() const { return mapping_ != nullptr; }

 private:
  ArtifactBuffer() = default;

  /// Matches the over-aligned allocation of read_file's blob.
  struct AlignedDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::unique_ptr<MappedFile> mapping_;
  std::unique_ptr<std::byte[], AlignedDelete> blob_;  ///< 64-byte-aligned
  std::size_t size_ = 0;
};

}  // namespace hmd::io
