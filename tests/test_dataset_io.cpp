// Binary dataset-bundle cache: round-trip exactness and stale-cache
// rejection (bad magic / version mismatch / truncation).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "datasets/io.h"
#include "test_support.h"

namespace {

using namespace hmd;

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs sibling tests of this fixture in
    // separate processes, and a shared directory would let one test's
    // SetUp delete another's live files.
    dir_ = std::filesystem::path(
        "test_io_tmp_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    stem_ = (dir_ / "bundle").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Overwrite one byte of the cache file at `offset`.
  void corrupt_byte(std::uintmax_t offset, char value) {
    std::fstream f(data::bundle_path(stem_),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&value, 1);
  }

  std::filesystem::path dir_;
  std::string stem_;
};

void expect_split_equal(const ml::Dataset& a, const ml::Dataset& b) {
  EXPECT_TRUE(a.X == b.X);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.app_ids, b.app_ids);
}

TEST_F(DatasetIoTest, BinaryRoundTripIsExact) {
  const auto& bundle = test::small_dvfs();
  data::save_bundle(bundle, stem_);
  ASSERT_TRUE(data::bundle_exists(stem_));
  const auto loaded = data::load_bundle(bundle.name, stem_);
  EXPECT_EQ(loaded.name, bundle.name);
  expect_split_equal(loaded.train, bundle.train);
  expect_split_equal(loaded.test, bundle.test);
  expect_split_equal(loaded.unknown, bundle.unknown);
}

TEST_F(DatasetIoTest, MissingCacheLooksAbsentAndThrows) {
  EXPECT_FALSE(data::bundle_exists(stem_));
  EXPECT_THROW(data::load_bundle("DVFS", stem_), IoError);
}

TEST_F(DatasetIoTest, BadMagicIsRejectedNotMisread) {
  data::save_bundle(test::small_dvfs(), stem_);
  corrupt_byte(0, 'X');  // clobber the magic
  EXPECT_FALSE(data::bundle_exists(stem_));
  EXPECT_THROW(data::load_bundle("DVFS", stem_), IoError);
}

TEST_F(DatasetIoTest, VersionMismatchIsRejectedNotMisread) {
  data::save_bundle(test::small_dvfs(), stem_);
  // The u32 version field sits right after the 4-byte magic; a bumped or
  // stale version must make the cache look absent so benches regenerate.
  corrupt_byte(4, static_cast<char>(data::kBundleFormatVersion + 1));
  EXPECT_FALSE(data::bundle_exists(stem_));
  EXPECT_THROW(data::load_bundle("DVFS", stem_), IoError);
}

TEST_F(DatasetIoTest, TruncatedCacheThrows) {
  data::save_bundle(test::small_dvfs(), stem_);
  const auto path = data::bundle_path(stem_);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  // Header is intact, so the file still advertises itself...
  EXPECT_TRUE(data::bundle_exists(stem_));
  // ...but loading must fail loudly rather than return half a dataset.
  EXPECT_THROW(data::load_bundle("DVFS", stem_), IoError);
}

}  // namespace
