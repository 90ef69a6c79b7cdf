#pragma once
// On-disk dataset-bundle cache.
//
// Format v2 (current): a single versioned little-endian binary file
// (`<stem>.hmdb`) holding the three splits back to back. Each split's
// feature block is the Matrix's contiguous row-major buffer, written and
// read with one stream operation — loading is a handful of freads into
// preallocated storage instead of a text parse.
//
//   magic "HMDB" | u32 version | u32 n_splits (=3)
//   per split: u64 rows | u64 cols | u8 has_app_ids
//              f64 X[rows*cols] | i32 y[rows] | i32 app_ids[rows]?
//
// A cache whose magic or version does not match is *invalid*, never
// misread: bundle_exists() returns false for it (so benches regenerate)
// and load_bundle() throws IoError.

#include <string>

#include "datasets/dataset_bundle.h"

namespace hmd::data {

/// Current binary cache version. Bump when the layout changes.
inline constexpr std::uint32_t kBundleFormatVersion = 2;

/// Path of the binary cache file for a stem.
std::string bundle_path(const std::string& stem);

/// True iff a cache file exists at the stem *and* carries the current
/// magic/version — stale caches look absent so callers rebuild them.
bool bundle_exists(const std::string& stem);

/// Write the bundle as versioned binary (creates parent directories).
void save_bundle(const DatasetBundle& bundle, const std::string& stem);

/// Load a binary bundle; throws IoError on missing file, bad magic,
/// version mismatch or truncation.
DatasetBundle load_bundle(const std::string& name, const std::string& stem);

}  // namespace hmd::data
