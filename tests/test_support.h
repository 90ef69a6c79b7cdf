#pragma once
// Shared fixtures: small dataset bundles built once per test binary (the
// simulators are deterministic, so every suite sees identical data), and
// a forest engine built from hand-made arrays.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/mapped_file.h"
#include "core/flat_forest.h"
#include "datasets/dvfs_dataset.h"
#include "datasets/hpc_dataset.h"

namespace hmd::test {

/// Scaled-down DVFS bundle (well-separated classes, mostly stump trees).
inline const data::DatasetBundle& small_dvfs() {
  static const data::DatasetBundle bundle = [] {
    data::DvfsDatasetConfig config;
    config.seed = 7;
    config.n_train = 180;
    config.n_test = 60;
    config.n_unknown = 40;
    return data::build_dvfs_dataset(config);
  }();
  return bundle;
}

/// Scaled-down HPC bundle (overlapping classes, deeper trees).
inline const data::DatasetBundle& small_hpc() {
  static const data::DatasetBundle bundle = [] {
    data::HpcDatasetConfig config;
    config.seed = 13;
    config.n_train = 400;
    config.n_test = 120;
    config.n_unknown = 80;
    return data::build_hpc_dataset(config);
  }();
  return bundle;
}

/// A forest engine over hand-made arrays: writes them in the engine
/// blob layout (FlatForestEngine::save_blob_v2) to a temp file, then
/// parses that back with from_buffer over ArtifactBuffer::read_file. The
/// buffer is heap-read, not mapped, so the engine serves the
/// "stream-fallback" kernel.
inline std::unique_ptr<core::FlatForestEngine> forest_from_arrays(
    std::uint64_t n_features,
    const std::vector<core::FlatForestEngine::Node>& nodes,
    const std::vector<double>& leaf_entropy,
    const std::vector<std::int32_t>& roots) {
  static int serial = 0;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("hmd_forest_" + std::to_string(::getpid()) + "_" +
       std::to_string(serial++) + ".blob");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    io::AlignedWriter writer(out);
    writer.write_pod(n_features);
    writer.write_pod(static_cast<std::uint64_t>(nodes.size()));
    writer.write_pod(static_cast<std::uint64_t>(roots.size()));
    writer.pad_to(64);
    writer.write_span(nodes.data(), nodes.size());
    writer.pad_to(64);
    writer.write_span(leaf_entropy.data(), leaf_entropy.size());
    writer.pad_to(64);
    writer.write_span(roots.data(), roots.size());
  }
  auto buffer = std::make_shared<const io::ArtifactBuffer>(
      io::ArtifactBuffer::read_file(path.string()));
  std::filesystem::remove(path);
  io::ByteReader in(buffer->data(), buffer->size(), path.string());
  return core::FlatForestEngine::from_buffer(in, buffer);
}

}  // namespace hmd::test
