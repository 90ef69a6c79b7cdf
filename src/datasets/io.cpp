#include "datasets/io.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/binary_io.h"
#include "common/error.h"

namespace hmd::data {

namespace {

constexpr char kMagic[4] = {'H', 'M', 'D', 'B'};

void ensure_parent(const std::string& path) {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path());
  }
}

void write_split(std::ofstream& out, const ml::Dataset& split) {
  const auto rows = static_cast<std::uint64_t>(split.X.rows());
  const auto cols = static_cast<std::uint64_t>(split.X.cols());
  const std::uint8_t has_apps = split.app_ids.empty() ? 0 : 1;
  io::write_pod(out, rows);
  io::write_pod(out, cols);
  io::write_pod(out, has_apps);
  io::write_span(out, split.X.storage().data(), rows * cols);
  std::vector<std::int32_t> labels(split.y.begin(), split.y.end());
  io::write_span(out, labels.data(), labels.size());
  if (has_apps) {
    std::vector<std::int32_t> apps(split.app_ids.begin(),
                                   split.app_ids.end());
    io::write_span(out, apps.data(), apps.size());
  }
}

ml::Dataset read_split(std::ifstream& in, const std::string& path) {
  const std::string context = "cache " + path;
  std::uint64_t rows = 0, cols = 0;
  std::uint8_t has_apps = 0;
  io::read_pod(in, rows, context);
  io::read_pod(in, cols, context);
  io::read_pod(in, has_apps, context);
  ml::Dataset split;
  std::vector<double> storage(rows * cols);
  io::read_span(in, storage.data(), storage.size(), context);
  split.X = Matrix::from_storage(rows, cols, std::move(storage));
  std::vector<std::int32_t> labels(rows);
  io::read_span(in, labels.data(), labels.size(), context);
  split.y.assign(labels.begin(), labels.end());
  if (has_apps) {
    std::vector<std::int32_t> apps(rows);
    io::read_span(in, apps.data(), apps.size(), context);
    split.app_ids.assign(apps.begin(), apps.end());
  }
  return split;
}

bool header_matches(std::ifstream& in) {
  char magic[4] = {};
  std::uint32_t version = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  return in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0 &&
         version == kBundleFormatVersion;
}

}  // namespace

std::string bundle_path(const std::string& stem) { return stem + ".hmdb"; }

bool bundle_exists(const std::string& stem) {
  std::ifstream in(bundle_path(stem), std::ios::binary);
  if (!in) return false;
  return header_matches(in);
}

void save_bundle(const DatasetBundle& bundle, const std::string& stem) {
  const std::string path = bundle_path(stem);
  ensure_parent(path);
  // Write to a sibling temp file and rename into place, so an interrupted
  // save never leaves a half-written cache under the real name.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("save_bundle: cannot open " + tmp_path);
    out.write(kMagic, sizeof(kMagic));
    io::write_pod(out, kBundleFormatVersion);
    const std::uint32_t n_splits = 3;
    io::write_pod(out, n_splits);
    write_split(out, bundle.train);
    write_split(out, bundle.test);
    write_split(out, bundle.unknown);
    if (!out) throw IoError("save_bundle: write failed for " + tmp_path);
  }
  std::filesystem::rename(tmp_path, path);
}

DatasetBundle load_bundle(const std::string& name, const std::string& stem) {
  const std::string path = bundle_path(stem);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw LoadError(LoadErrorCode::kIo, path, "missing cache");
  // Typed header rejection: a non-bundle file, a future bundle version,
  // and a header-length truncation are three different operator actions
  // (wrong path / upgrade mismatch / torn write), so they get three
  // different codes — mirroring the .hmdf loader's taxonomy.
  {
    char magic[4] = {};
    std::uint32_t version = 0;
    in.read(magic, sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!in) {
      throw LoadError(LoadErrorCode::kTruncated, path,
                      "file shorter than the 8-byte bundle header");
    }
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      throw LoadError(LoadErrorCode::kBadMagic, path,
                      "bad magic (not a .hmdb bundle)");
    }
    if (version != kBundleFormatVersion) {
      throw LoadError(LoadErrorCode::kBadVersion, path,
                      "unsupported bundle version " + std::to_string(version) +
                          " (expected " +
                          std::to_string(kBundleFormatVersion) + ")");
    }
  }
  std::uint32_t n_splits = 0;
  io::read_pod(in, n_splits, "cache " + path);
  if (n_splits != 3) {
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "unexpected split count " + std::to_string(n_splits) +
                        " (expected 3)");
  }
  DatasetBundle bundle;
  bundle.name = name;
  bundle.train = read_split(in, path);
  bundle.test = read_split(in, path);
  bundle.unknown = read_split(in, path);
  return bundle;
}

}  // namespace hmd::data
