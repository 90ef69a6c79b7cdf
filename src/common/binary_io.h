#pragma once
// Little-endian binary stream helpers shared by every on-disk artefact
// (the `.hmdb` dataset cache and the `.hmdf` model artifact). Readers
// throw a typed LoadError (common/error.h) on truncation or misparse —
// kTruncated / kBadStructure, reporting the file, the byte offset, and
// expected vs actual sizes — so a short file can never be misread as a
// smaller-but-valid payload and callers can tell a torn publish from a
// corrupt one.
//
// Two layers live here:
//   - write_pod/read_pod/write_span/read_span stream helpers (the
//     dataset-cache path), and
//   - AlignedWriter / ByteReader, the offset-tracking pair behind the
//     `.hmdf` layout: the writer pads sections and arrays to explicit
//     alignment boundaries, the reader hands out *views into the buffer*
//     (bounds- and alignment-checked) instead of copying, so a mapped
//     artifact is parsed in place.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/checksum.h"
#include "common/error.h"

static_assert(std::endian::native == std::endian::little,
              "binary artefacts assume a little-endian host");

namespace hmd::io {

/// Build the typed truncation error for a failed stream read: where the
/// read stopped, how many bytes it wanted, how many it got. `in` is dead
/// after a short read; clearing its state is only to recover tellg() for
/// the report.
inline LoadError short_read_error(std::istream& in, std::size_t wanted,
                                  const std::string& context) {
  const auto got = static_cast<long long>(in.gcount());
  in.clear();
  const auto pos = static_cast<long long>(in.tellg());
  return LoadError(
      LoadErrorCode::kTruncated, context,
      "short read" +
          (pos >= 0 ? " at byte offset " + std::to_string(pos - got) : "") +
          ": expected " + std::to_string(wanted) + " bytes, got " +
          std::to_string(got));
}

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Read one POD value; `context` names the file in the truncation error.
template <typename T>
void read_pod(std::istream& in, T& value, const std::string& context) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw short_read_error(in, sizeof(T), context);
}

/// Write `n` contiguous POD elements with one stream operation.
template <typename T>
void write_span(std::ostream& out, const T* data, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
void read_span(std::istream& in, T* data, std::size_t n,
               const std::string& context) {
  static_assert(std::is_trivially_copyable_v<T>);
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw short_read_error(in, n * sizeof(T), context);
}

/// Stream wrapper that tracks the absolute file offset of every write and
/// can pad to alignment boundaries — the writer half of the `.hmdf`
/// layout, whose big arrays must land on 64-byte file offsets so a mapped
/// artifact can serve them in place.
class AlignedWriter {
 public:
  explicit AlignedWriter(std::ostream& out) : out_(out) {}

  std::uint64_t offset() const { return offset_; }

  template <typename T>
  void write_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
    absorb(&value, sizeof(T));
    offset_ += sizeof(T);
  }

  template <typename T>
  void write_span(const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(n * sizeof(T)));
    absorb(data, n * sizeof(T));
    offset_ += n * sizeof(T);
  }

  /// Zero-pad so the next write lands on an `alignment`-byte offset.
  void pad_to(std::size_t alignment) {
    static constexpr char kZeros[64] = {};
    while (offset_ % alignment != 0) {
      const std::size_t pad = std::min<std::size_t>(
          sizeof(kZeros), alignment - offset_ % alignment);
      out_.write(kZeros, static_cast<std::streamsize>(pad));
      absorb(kZeros, pad);
      offset_ += pad;
    }
  }

  /// Start hashing every byte written from here on (including padding).
  /// This is how the checksummed `.hmdf` save computes its section XXH64s
  /// in-stream, as the bytes go out, instead of re-reading the temp file
  /// afterwards to patch them in.
  void begin_hash() {
    hash_.reset();
    hashing_ = true;
  }

  /// Stop hashing and return the XXH64 of everything since begin_hash().
  std::uint64_t end_hash() {
    hashing_ = false;
    return hash_.digest();
  }

 private:
  void absorb(const void* data, std::size_t n) {
    if (hashing_) hash_.update(data, n);
  }

  std::ostream& out_;
  std::uint64_t offset_ = 0;
  Xxhash64Stream hash_;
  bool hashing_ = false;
};

/// Bounds- and alignment-checked cursor over an in-memory artifact. The
/// reader half of the `.hmdf` layout: view_span() returns a pointer *into the
/// buffer* (no copy) after checking that the span is inside the buffer
/// and naturally aligned — a corrupt section offset throws IoError, never
/// a misaligned or out-of-bounds load. `context` names the file in
/// errors, like the stream helpers above.
class ByteReader {
 public:
  ByteReader(const std::byte* data, std::size_t size, std::string context)
      : base_(data), size_(size), context_(std::move(context)) {}

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// Jump to an absolute offset (a section-table entry). Throws when the
  /// offset is outside the buffer or not `alignment`-byte aligned.
  void seek(std::uint64_t offset, std::size_t alignment) {
    if (offset > size_) {
      throw LoadError(LoadErrorCode::kTruncated, context_,
                      "section offset " + std::to_string(offset) +
                          " past end of file (" + std::to_string(size_) +
                          " bytes)");
    }
    if (offset % alignment != 0) {
      throw LoadError(LoadErrorCode::kBadStructure, context_,
                      "misaligned section offset " + std::to_string(offset));
    }
    pos_ = static_cast<std::size_t>(offset);
  }

  /// Advance past padding so the cursor sits on an `alignment`-byte
  /// offset (the mirror of AlignedWriter::pad_to).
  void align_to(std::size_t alignment) {
    const std::size_t rem = pos_ % alignment;
    if (rem == 0) return;
    const std::size_t pad = alignment - rem;
    if (pad > remaining()) throw truncated_error(pad);
    pos_ += pad;
  }

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) throw truncated_error(sizeof(T));
    T value;
    std::memcpy(&value, base_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// A view of `n` elements of T starting at the cursor — no copy. The
  /// cursor must be aligned for T (callers align_to() first); the span
  /// must fit in the buffer.
  template <typename T>
  const T* view_span(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T)) {
      throw truncated_error(n * sizeof(T));
    }
    if (reinterpret_cast<std::uintptr_t>(base_ + pos_) % alignof(T) != 0) {
      throw LoadError(LoadErrorCode::kBadStructure, context_,
                      "misaligned array at byte offset " +
                          std::to_string(pos_));
    }
    const T* view = reinterpret_cast<const T*>(base_ + pos_);
    pos_ += n * sizeof(T);
    return view;
  }

  const std::string& context() const { return context_; }

 private:
  LoadError truncated_error(std::size_t wanted) const {
    return LoadError(LoadErrorCode::kTruncated, context_,
                     "need " + std::to_string(wanted) +
                         " bytes at byte offset " + std::to_string(pos_) +
                         ", only " + std::to_string(remaining()) + " left");
  }

  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace hmd::io
