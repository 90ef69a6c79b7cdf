// Model artifact (.hmdf): a saved detector must reload as a serving-only
// detector — no ml::Bagging on the path — emitting bit-identical
// Detections and Estimates; corrupt, truncated, or version-mismatched
// artifacts must be rejected loudly, never misread. The zero-copy
// layout adds: mmap-loaded and buffer-read engines are bit-identical to
// each other and to the trained detector, and misaligned or out-of-range
// section offsets are rejected with a typed LoadError.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "test_support.h"

namespace {

using namespace hmd;

/// Load `path` and return the LoadError code it was rejected with;
/// fails the test if the load succeeds or throws something untyped.
LoadErrorCode rejection_code(const std::string& path) {
  try {
    core::load_model(path);
  } catch (const LoadError& error) {
    return error.code();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "untyped rejection: " << error.what();
    return LoadErrorCode::kIo;
  }
  ADD_FAILURE() << "corrupt artifact loaded cleanly: " << path;
  return LoadErrorCode::kIo;
}

class ModelArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs sibling tests of this fixture in
    // separate processes, and a shared directory would let one test's
    // SetUp delete another's live artifact mid-roundtrip.
    dir_ = std::filesystem::path(
        "test_model_tmp_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "detector.hmdf").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Overwrite one byte of the artifact at `offset`.
  void corrupt_byte(std::uintmax_t offset, char value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&value, 1);
  }

  /// Read a little-endian u64 at `offset` (section-table spelunking).
  std::uint64_t read_u64(std::uintmax_t offset) {
    std::ifstream f(path_, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    std::uint64_t value = 0;
    f.read(reinterpret_cast<char*>(&value), sizeof(value));
    return value;
  }

  /// Overwrite a little-endian u64 at `offset`.
  void write_u64(std::uintmax_t offset, std::uint64_t value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  /// Byte offset of section `index`'s table entry (0 config, 1 scaler,
  /// 2 engine): { u64 offset, u64 size, u64 xxh64 } from byte 16 — the
  /// tests never hard-code section positions, only the documented table.
  static std::uintmax_t entry_at(int index) {
    return 16 + static_cast<std::uintmax_t>(index) * 24;
  }
  std::uint64_t section_offset(int index) { return read_u64(entry_at(index)); }

  /// Re-seal the artifact after an edit: recompute each section's XXH64
  /// over the range its (possibly edited) table entry names, then the
  /// header hash over bytes [0, 88). This is what a writer who controls
  /// the file can always do, so it is exactly the case the checksums
  /// cannot stop and the structural checks must. An entry whose range
  /// lies outside the file keeps its stale hash.
  void reseal() {
    std::vector<char> bytes;
    {
      std::ifstream in(path_, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto u64_at = [&](std::uintmax_t at) {
      std::uint64_t value = 0;
      std::memcpy(&value, bytes.data() + at, sizeof(value));
      return value;
    };
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t offset = u64_at(entry_at(i));
      const std::uint64_t size = u64_at(entry_at(i) + 8);
      if (offset > bytes.size() || size > bytes.size() - offset) continue;
      const std::uint64_t hash = io::xxhash64(bytes.data() + offset, size);
      std::memcpy(bytes.data() + entry_at(i) + 16, &hash, sizeof(hash));
    }
    const std::uint64_t header_hash = io::xxhash64(bytes.data(), 88);
    std::memcpy(bytes.data() + 88, &header_hash, sizeof(header_hash));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  core::TrustedHmd train(core::ModelKind kind, int members = 25) {
    core::HmdConfig config;
    config.model = kind;
    config.n_members = members;
    config.seed = 9;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    return hmd;
  }

  std::filesystem::path dir_;
  std::string path_;
};

void expect_bit_identical_outputs(const core::TrustedHmd& trained,
                                  const core::TrustedHmd& served,
                                  const Matrix& x) {
  const auto want_d = trained.detect_batch(x);
  const auto got_d = served.detect_batch(x);
  const auto want_e = trained.estimate_batch(x);
  const auto got_e = served.estimate_batch(x);
  ASSERT_EQ(got_d.size(), want_d.size());
  ASSERT_EQ(got_e.size(), want_e.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    EXPECT_EQ(got_d[r].prediction, want_d[r].prediction);
    EXPECT_EQ(got_d[r].confidence, want_d[r].confidence);
    EXPECT_EQ(got_d[r].score, want_d[r].score);
    EXPECT_EQ(got_d[r].trusted, want_d[r].trusted);
    EXPECT_EQ(got_e[r].votes_malware, want_e[r].votes_malware);
    EXPECT_EQ(got_e[r].vote_entropy, want_e[r].vote_entropy);
    EXPECT_EQ(got_e[r].soft_entropy, want_e[r].soft_entropy);
    EXPECT_EQ(got_e[r].expected_entropy, want_e[r].expected_entropy);
    EXPECT_EQ(got_e[r].mutual_information, want_e[r].mutual_information);
    EXPECT_EQ(got_e[r].variation_ratio, want_e[r].variation_ratio);
    EXPECT_EQ(got_e[r].max_probability, want_e[r].max_probability);

    // Per-sample serving path too, not just batches.
    const auto one_want = trained.detect(x.row(r));
    const auto one_got = served.detect(x.row(r));
    EXPECT_EQ(one_got.prediction, one_want.prediction);
    EXPECT_EQ(one_got.score, one_want.score);
  }
}

TEST_F(ModelArtifactTest, RoundTripIsBitIdenticalForEveryModelKind) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    const core::TrustedHmd trained = train(kind);
    core::save_model(trained, path_);
    ASSERT_EQ(core::inspect_model(path_).version, core::kModelFormatVersion);

    const core::TrustedHmd served = core::load_model(path_);
    // The load path reconstructs the engine directly from the blob: no
    // reference ensemble (and no training objects) exist behind it.
    EXPECT_FALSE(served.has_ensemble());
    EXPECT_TRUE(served.uses_flat_engine());
    EXPECT_THROW(served.ensemble(), InvalidArgument);
    EXPECT_EQ(served.config().n_members, trained.config().n_members);
    EXPECT_EQ(served.config().model, trained.config().model);
    EXPECT_EQ(served.converged_fraction(), trained.converged_fraction());

    expect_bit_identical_outputs(trained, served, test::small_dvfs().test.X);
    expect_bit_identical_outputs(trained, served,
                                 test::small_dvfs().unknown.X);
  }
}

TEST_F(ModelArtifactTest, HpcBundleRoundTripsToo) {
  core::HmdConfig config;
  config.model = core::ModelKind::kBaggedLogistic;
  config.n_members = 15;
  core::TrustedHmd trained(config);
  trained.fit(test::small_hpc().train);
  core::save_model(trained, path_);
  const core::TrustedHmd served = core::load_model(path_);
  expect_bit_identical_outputs(trained, served, test::small_hpc().test.X);
}

TEST_F(ModelArtifactTest, ServingDetectorCannotBeRefit) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  core::TrustedHmd served = core::load_model(path_);
  EXPECT_THROW(served.fit(test::small_dvfs().train), InvalidArgument);
}

TEST_F(ModelArtifactTest, MissingArtifactLooksAbsentAndThrows) {
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kIo);
  EXPECT_THROW(core::inspect_model(path_), IoError);
}

TEST_F(ModelArtifactTest, BadMagicIsRejectedNotMisread) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  corrupt_byte(0, 'X');
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadMagic);
}

TEST_F(ModelArtifactTest, VersionMismatchIsRejectedNotMisread) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The u32 version sits right after the 4-byte magic; a future (or
  // corrupt) version must be rejected as such, never misread as the
  // current layout.
  corrupt_byte(4, static_cast<char>(core::kModelFormatVersion + 1));
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadVersion);
}

// The three structural-rejection tests below corrupt a checksummed
// artifact and then re-seal it, so the checksums pass and only the
// loader's structural checks stand between the bytes and a misparse.
// Unsealed, the same corruptions are caught earlier as
// LoadError{kChecksum} (test_fault_injection.cpp).

TEST_F(ModelArtifactTest, UnknownEngineTagIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The engine id is the u32 opening the engine section (table entry 2).
  corrupt_byte(section_offset(2), 0x7e);
  reseal();
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadStructure);
}

TEST_F(ModelArtifactTest, CorruptForestFeatureWidthIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The forest blob's u64 feature width follows the engine-id u32.
  // Zeroing its low byte makes the width implausible; the loader must
  // throw rather than hand the traversal an arena it could misindex.
  corrupt_byte(section_offset(2) + 4, 0);
  reseal();
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadStructure);
}

TEST_F(ModelArtifactTest, MisalignedSectionOffsetIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // Nudge the *config* section's table entry off its 64-byte boundary.
  // The config section is followed by alignment padding, so offset+4 and
  // its size stay comfortably in bounds — only the alignment check can
  // reject it, which is exactly what this test pins down.
  const std::uint64_t config_offset = section_offset(0);
  write_u64(entry_at(0), config_offset + 4);
  reseal();
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadStructure);
  write_u64(entry_at(0), config_offset);  // restore
  reseal();
  EXPECT_NO_THROW(core::load_model(path_));

  // An out-of-bounds offset (aligned or not) is equally rejected.
  write_u64(entry_at(2), std::uint64_t{1} << 40);
  reseal();
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kTruncated);
}

TEST_F(ModelArtifactTest, TruncatedSectionTableIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // Chop the file inside the header (16 + 3×24 + 8 = 96 bytes): the
  // prefix still advertises a v2 artifact, but parsing the table must
  // throw, never read past the mapping.
  for (const std::uintmax_t keep : {90, 60, 40, 17}) {
    std::filesystem::resize_file(path_, keep);
    EXPECT_EQ(rejection_code(path_), LoadErrorCode::kTruncated)
        << "kept " << keep;
  }
}

TEST_F(ModelArtifactTest, MmapAndStreamLoadsAreBitIdentical) {
  // The zero-copy acceptance gate: for every ModelKind at M ∈ {1, 5,
  // 100}, an mmap-loaded engine and a full-copy-loaded engine emit
  // outputs bit-identical to the trained detector (and therefore to each
  // other) on both bundles' feature distributions.
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    for (const int members : {1, 5, 100}) {
      SCOPED_TRACE(core::model_kind_name(kind) + " M=" +
                   std::to_string(members));
      const core::TrustedHmd trained = train(kind, members);
      core::save_model(trained, path_);

      const core::TrustedHmd mapped =
          core::load_model(path_, 0, core::LoadMode::kMmap);
      const core::TrustedHmd copied =
          core::load_model(path_, 0, core::LoadMode::kStream);
      EXPECT_TRUE(mapped.engine().zero_copy());
      EXPECT_FALSE(copied.engine().zero_copy());

      expect_bit_identical_outputs(trained, mapped,
                                   test::small_dvfs().test.X);
      expect_bit_identical_outputs(trained, copied,
                                   test::small_dvfs().test.X);
      expect_bit_identical_outputs(trained, mapped,
                                   test::small_dvfs().unknown.X);
    }
  }
}

TEST_F(ModelArtifactTest, MmapRoundTripsOnHpcBundleToo) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    for (const int members : {1, 5, 100}) {
      SCOPED_TRACE(core::model_kind_name(kind) + " M=" +
                   std::to_string(members));
      core::HmdConfig config;
      config.model = kind;
      config.n_members = members;
      config.seed = 9;
      core::TrustedHmd trained(config);
      trained.fit(test::small_hpc().train);
      core::save_model(trained, path_);
      const core::TrustedHmd mapped =
          core::load_model(path_, 0, core::LoadMode::kMmap);
      expect_bit_identical_outputs(trained, mapped, test::small_hpc().test.X);
    }
  }
}

TEST_F(ModelArtifactTest, MappedDetectorSurvivesRenamePublishedSwap) {
  // The hot-swap guarantee at the mapping level: a detector serving from
  // a mapped artifact keeps emitting the *old* model's outputs, bit for
  // bit, after save_model rename-publishes a different model over the
  // same path — the old inode stays alive under the mapping.
  const core::TrustedHmd first = train(core::ModelKind::kRandomForest, 25);
  core::save_model(first, path_);
  const core::TrustedHmd mapped =
      core::load_model(path_, 0, core::LoadMode::kMmap);
  ASSERT_TRUE(mapped.engine().zero_copy());

  core::save_model(train(core::ModelKind::kBaggedSvm, 7), path_);
  expect_bit_identical_outputs(first, mapped, test::small_dvfs().test.X);

  // And the path now serves the replacement.
  const core::TrustedHmd swapped =
      core::load_model(path_, 0, core::LoadMode::kMmap);
  EXPECT_EQ(swapped.config().model, core::ModelKind::kBaggedSvm);
  EXPECT_EQ(swapped.config().n_members, 7);
}

TEST_F(ModelArtifactTest, ServedDetectorRejectsWrongWidthInputs) {
  // A DVFS-trained forest (14 features) must refuse HPC rows (8
  // features) instead of reading out of bounds.
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  const core::TrustedHmd served = core::load_model(path_);
  EXPECT_THROW(served.detect_batch(test::small_hpc().test.X),
               InvalidArgument);
  EXPECT_THROW(served.detect(test::small_hpc().test.X.row(0)),
               InvalidArgument);
}

TEST_F(ModelArtifactTest, TruncatedArtifactThrowsEverywhere) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::save_model(train(kind, 10), path_);
    const auto full = std::filesystem::file_size(path_);
    // Chop the file at several depths: inside the engine blob, inside the
    // scaler/config, and just past the header. Every cut must throw.
    for (const auto keep :
         {full - 4, full / 2, full / 4, std::uintmax_t{16}}) {
      std::filesystem::resize_file(path_, keep);
      EXPECT_EQ(rejection_code(path_), LoadErrorCode::kTruncated)
          << "kept " << keep;
      core::save_model(train(kind, 10), path_);  // restore for next cut
    }
  }
}

}  // namespace
