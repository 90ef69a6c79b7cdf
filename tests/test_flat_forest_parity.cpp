// Golden parity suite: the flat struct-of-arrays engine (per-sample and
// batched, stump-specialised and general trees alike) must be bit-identical
// to the reference pointer-tree path — predictions, vote counts, summed
// probabilities, and every entropy — across both dataset bundles and
// ensemble sizes M in {1, 5, 100}. The batched deep-tree walk, which
// steps several rows at once, must also equal the per-sample walk at
// every batch length around its lane count and the tile length.
//
// The JitParity suite extends the contract one layer down: the same
// artifact loaded with the tree-to-native JIT forced on and forced off
// must produce bit-identical ScoreResults for every wrapper-suite
// OutputMask, every uncertainty mode, both bundles, M in {1, 5, 100}, a
// randomised deep-tree artifact, and NaN-bearing inputs (the JIT's
// compare encodings must descend right on NaN exactly like the
// interpreter). On targets without the JIT both loads fall back to the
// interpreted arena and the comparison is trivially green — the suite
// asserts behaviour, not that native code exists.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "core/uncertainty.h"
#include "jit/jit.h"
#include "test_support.h"

namespace {

using namespace hmd;

core::HmdConfig config_for(int members, int threads = 0) {
  core::HmdConfig config;
  config.model = core::ModelKind::kRandomForest;
  config.n_members = members;
  config.n_threads = threads;
  config.seed = 42;
  return config;
}

void expect_parity(const data::DatasetBundle& bundle, int members) {
  SCOPED_TRACE(bundle.name + " M=" + std::to_string(members));
  core::TrustedHmd hmd(config_for(members));
  hmd.fit(bundle.train);
  ASSERT_TRUE(hmd.uses_flat_engine());

  const core::UncertaintyEstimator reference(
      core::EnsembleView::of(hmd.ensemble()));

  const Matrix& x = bundle.test.X;
  const auto detections = hmd.detect_batch(x);
  const auto estimates = hmd.estimate_batch(x);
  ASSERT_EQ(detections.size(), x.rows());
  ASSERT_EQ(estimates.size(), x.rows());

  for (std::size_t r = 0; r < x.rows(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    const core::EnsembleStats ref = reference.reference_stats(x.row(r));
    const core::EnsembleStats flat = hmd.flat_forest().stats_one(x.row(r));

    // Per-sample flat engine vs member-by-member reference: bit-identical.
    EXPECT_EQ(flat.votes1, ref.votes1);
    EXPECT_EQ(flat.sum_p1, ref.sum_p1);
    EXPECT_EQ(flat.sum_entropy, ref.sum_entropy);

    // Batched vs per-sample: identical detections...
    const core::Detection one = hmd.detect(x.row(r));
    EXPECT_EQ(detections[r].prediction, one.prediction);
    EXPECT_EQ(detections[r].confidence, one.confidence);
    EXPECT_EQ(detections[r].score, one.score);
    EXPECT_EQ(detections[r].trusted, one.trusted);

    // ...and identical full estimates, entropy by entropy.
    const core::Estimate estimate = hmd.estimate(x.row(r));
    EXPECT_EQ(estimates[r].prediction, estimate.prediction);
    EXPECT_EQ(estimates[r].votes_malware, estimate.votes_malware);
    EXPECT_EQ(estimates[r].vote_entropy, estimate.vote_entropy);
    EXPECT_EQ(estimates[r].soft_entropy, estimate.soft_entropy);
    EXPECT_EQ(estimates[r].expected_entropy, estimate.expected_entropy);
    EXPECT_EQ(estimates[r].mutual_information, estimate.mutual_information);
    EXPECT_EQ(estimates[r].variation_ratio, estimate.variation_ratio);
    EXPECT_EQ(estimates[r].max_probability, estimate.max_probability);
    EXPECT_EQ(estimates[r].score, estimate.score);
    EXPECT_EQ(estimates[r].trusted, estimate.trusted);

    // Prediction / vote parity against the raw reference ensemble.
    EXPECT_EQ(estimates[r].votes_malware, ref.votes1);
    EXPECT_EQ(detections[r].prediction, 2 * ref.votes1 > members ? 1 : 0);
  }

  // Score sweep over every mode, flat batched vs reference per-sample.
  for (const auto mode :
       {core::UncertaintyMode::kVoteEntropy, core::UncertaintyMode::kSoftEntropy,
        core::UncertaintyMode::kExpectedEntropy,
        core::UncertaintyMode::kMutualInformation,
        core::UncertaintyMode::kVariationRatio,
        core::UncertaintyMode::kMaxProbability}) {
    const auto flat_scores = hmd.scores(x, mode);
    const auto ref_scores = reference.scores(x, mode);
    ASSERT_EQ(flat_scores.size(), ref_scores.size());
    for (std::size_t r = 0; r < flat_scores.size(); ++r) {
      EXPECT_EQ(flat_scores[r], ref_scores[r])
          << core::uncertainty_mode_name(mode) << " row " << r;
    }
  }
}

TEST(FlatForestParity, DvfsAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_parity(test::small_dvfs(), members);
  }
}

TEST(FlatForestParity, HpcAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_parity(test::small_hpc(), members);
  }
}

TEST(FlatForestParity, StumpSpecialisationCoversSeparableData) {
  // The DVFS classes are well separated, so most members compile to the
  // specialised stump path — the parity above must therefore have
  // exercised it. Guard against the specialisation silently disappearing.
  core::TrustedHmd hmd(config_for(100));
  hmd.fit(test::small_dvfs().train);
  EXPECT_GT(hmd.flat_forest().n_stumps(), 50u);
  EXPECT_EQ(hmd.flat_forest().n_trees(), 100u);
}

TEST(FlatForestParity, HpcGrowsGeneralTrees) {
  // Overlapping HPC classes must force at least some non-stump members,
  // so the general walk path is exercised by the HPC parity case.
  core::TrustedHmd hmd(config_for(100));
  hmd.fit(test::small_hpc().train);
  EXPECT_LT(hmd.flat_forest().n_stumps(), hmd.flat_forest().n_trees());
}

TEST(FlatForestParity, BatchIsDeterministicAcrossThreadCounts) {
  const auto& bundle = test::small_dvfs();
  core::TrustedHmd serial(config_for(40, 1));
  core::TrustedHmd threaded(config_for(40, 3));
  serial.fit(bundle.train);
  threaded.fit(bundle.train);
  const auto a = serial.estimate_batch(bundle.test.X);
  const auto b = threaded.estimate_batch(bundle.test.X);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].votes_malware, b[r].votes_malware);
    EXPECT_EQ(a[r].vote_entropy, b[r].vote_entropy);
    EXPECT_EQ(a[r].soft_entropy, b[r].soft_entropy);
  }
}

/// Restores the process-wide JIT policy on scope exit, so a failing test
/// cannot leak a forced policy into later suites.
struct PolicyGuard {
  jit::Policy saved = jit::policy();
  ~PolicyGuard() { jit::set_policy(saved); }
};

core::TrustedHmd load_with_policy(const std::string& path, jit::Policy p) {
  const PolicyGuard guard;
  jit::set_policy(p);
  return core::load_model(path, /*n_threads=*/1);
}

/// Every OutputMask the wrapper suite exercises: the three presets plus
/// each column bit on its own (a single-column request drives the
/// narrowest StatsMask through the kernel table).
const std::vector<api::OutputMask>& wrapper_masks() {
  static const std::vector<api::OutputMask> masks = [] {
    std::vector<api::OutputMask> out = {
        api::kPredictionOnly, api::kPredictionOnly | api::kOutTrusted,
        api::kDetectionOutputs, api::kEstimateOutputs};
    for (std::uint32_t bit = 0; bit < 11; ++bit) out.push_back(1u << bit);
    return out;
  }();
  return masks;
}

void expect_identical_results(const api::ScoreResult& jit,
                              const api::ScoreResult& arena) {
  ASSERT_EQ(jit.rows, arena.rows);
  EXPECT_EQ(jit.prediction, arena.prediction);
  EXPECT_EQ(jit.confidence, arena.confidence);
  EXPECT_EQ(jit.votes, arena.votes);
  EXPECT_EQ(jit.vote_entropy, arena.vote_entropy);
  EXPECT_EQ(jit.soft_entropy, arena.soft_entropy);
  EXPECT_EQ(jit.expected_entropy, arena.expected_entropy);
  EXPECT_EQ(jit.mutual_information, arena.mutual_information);
  EXPECT_EQ(jit.variation_ratio, arena.variation_ratio);
  EXPECT_EQ(jit.max_probability, arena.max_probability);
  EXPECT_EQ(jit.score, arena.score);
  EXPECT_EQ(jit.trusted, arena.trusted);
}

/// Round-trip one detector through an artifact, load it twice (JIT forced
/// on / forced off), and demand bit-identical score() columns for every
/// wrapper mask and every uncertainty mode over `x`.
void expect_jit_parity(const core::TrustedHmd& trained, const Matrix& x,
                       const std::string& tag) {
  // Per process: ctest -j runs each case alone and in JitSuite.All.
  const std::filesystem::path dir =
      "jit_parity_tmp_" + tag + "_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "model.hmdf").string();
  core::save_model(trained, path);

  const core::TrustedHmd jitted = load_with_policy(path, jit::Policy::kOn);
  const core::TrustedHmd arena = load_with_policy(path, jit::Policy::kOff);
  EXPECT_EQ(arena.engine().kernel_backend(), "arena");
  // The compile runs in the background; compare against installed native
  // kernels, never the arena with itself.
  jitted.flat_forest().wait_for_jit();
  if (jit::available()) {
    // Forced on, every forest compiles (stump-dominated ones included —
    // exactly the codegen paths kAuto would skip).
    ASSERT_EQ(jitted.engine().kernel_backend(), "jit");
    EXPECT_GT(jitted.flat_forest().jit_code_bytes(), 0u);
  }

  api::ScoreRequest request;
  request.x = &x;
  api::ScoreResult jit_result;
  api::ScoreResult arena_result;
  for (const api::OutputMask mask : wrapper_masks()) {
    SCOPED_TRACE(tag + " mask=" + std::to_string(mask));
    request.outputs = mask;
    request.mode.reset();
    jitted.score(request, jit_result);
    arena.score(request, arena_result);
    expect_identical_results(jit_result, arena_result);
  }
  request.outputs = api::kDetectionOutputs;
  for (const auto mode :
       {core::UncertaintyMode::kVoteEntropy, core::UncertaintyMode::kSoftEntropy,
        core::UncertaintyMode::kExpectedEntropy,
        core::UncertaintyMode::kMutualInformation,
        core::UncertaintyMode::kVariationRatio,
        core::UncertaintyMode::kMaxProbability}) {
    SCOPED_TRACE(tag + " mode=" + core::uncertainty_mode_name(mode));
    request.mode = mode;
    jitted.score(request, jit_result);
    arena.score(request, arena_result);
    expect_identical_results(jit_result, arena_result);
  }
  std::filesystem::remove_all(dir);
}

TEST(JitParity, DvfsAllEnsembleSizesAllMasks) {
  const auto& bundle = test::small_dvfs();
  for (const int members : {1, 5, 100}) {
    core::TrustedHmd hmd(config_for(members));
    hmd.fit(bundle.train);
    expect_jit_parity(hmd, bundle.test.X,
                      "dvfs_m" + std::to_string(members));
  }
}

TEST(JitParity, HpcAllEnsembleSizesAllMasks) {
  const auto& bundle = test::small_hpc();
  for (const int members : {1, 5, 100}) {
    core::TrustedHmd hmd(config_for(members));
    hmd.fit(bundle.train);
    expect_jit_parity(hmd, bundle.test.X, "hpc_m" + std::to_string(members));
  }
}

/// The randomised deep-tree recipe. Random labels force deep, irregular
/// trees (no stump specialisation), and every third input row carries
/// two NaN features.
constexpr std::size_t kRandomCols = 12;

double random_feature(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(-4.0, 4.0)(rng);
}

core::TrustedHmd random_deep_forest(std::mt19937_64& rng) {
  ml::Dataset train;
  const std::size_t n = 240;
  train.X = Matrix(n, kRandomCols);
  train.y.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < kRandomCols; ++c)
      train.X(r, c) = random_feature(rng);
    train.y[r] = static_cast<int>(rng() & 1);
  }
  core::TrustedHmd hmd(config_for(20));
  hmd.fit(train);
  return hmd;
}

Matrix nan_poisoned_rows(std::size_t rows, std::mt19937_64& rng) {
  Matrix x(rows, kRandomCols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kRandomCols; ++c) x(r, c) = random_feature(rng);
    if (r % 3 == 0) {  // poison a couple of features per third row
      x(r, r % kRandomCols) = std::numeric_limits<double>::quiet_NaN();
      x(r, (r + 5) % kRandomCols) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return x;
}

TEST(JitParity, RandomisedDeepTreesWithNaNInputs) {
  // NaN-poisoned inputs pin the compare encodings: cmpsd(LE) and
  // ucomisd/jb must both send NaN right, exactly like the interpreter's
  // !(x <= t).
  std::mt19937_64 rng(20210721);
  const core::TrustedHmd hmd = random_deep_forest(rng);
  EXPECT_LT(hmd.flat_forest().n_stumps(), hmd.flat_forest().n_trees());
  expect_jit_parity(hmd, nan_poisoned_rows(64, rng), "random_deep_nan");
}

TEST(FlatForestParity, InterleavedWalkMatchesStatsOneAtEveryTileLength) {
  // The deep-tree walk runs kWalkLanes rows at once and refills lanes
  // from the tile, so row counts below, at and just past the lane count
  // and the tile length each leave lanes and tile in a different phase.
  // The forest is the randomised deep one with a stump and a single-leaf
  // tree spliced between its members; every batch, under every StatsMask
  // shape, must equal the single-row walk bit for bit.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  std::mt19937_64 rng(20210721);
  const core::TrustedHmd deep = random_deep_forest(rng);
  const core::FlatForestEngine& trained = deep.flat_forest();
  using Node = core::FlatForestEngine::Node;
  std::vector<Node> nodes(trained.nodes_view().begin(),
                          trained.nodes_view().end());
  std::vector<double> entropy(trained.leaf_entropy_view().begin(),
                              trained.leaf_entropy_view().end());
  const auto base = static_cast<std::int32_t>(nodes.size());
  const auto add_leaf = [&](double p1) {
    nodes.push_back(Node{p1, -1, -1});
    entropy.push_back(core::binary_entropy(p1));
  };
  nodes.push_back(Node{0.25, 3, base + 1});  // stump on feature 3
  entropy.push_back(0.0);
  add_leaf(0.9);
  add_leaf(0.2);
  add_leaf(0.7);  // single-leaf tree at base + 3
  std::vector<std::int32_t> roots;
  for (std::size_t m = 0; m < trained.n_trees(); ++m) {
    roots.push_back(trained.roots_view()[m]);
    if (m == 0) roots.push_back(base);
    if (m == 1) roots.push_back(base + 3);
  }
  const auto forest =
      test::forest_from_arrays(kRandomCols, nodes, entropy, roots);
  EXPECT_EQ(forest->n_stumps(), trained.n_stumps() + 2);
  EXPECT_LT(forest->n_stumps(), forest->n_trees());
  EXPECT_EQ(forest->kernel_backend(), "stream-fallback");

  const core::StatsMask shapes[] = {
      core::kStatsVotes, core::kStatsVotes | core::kStatsPosterior,
      core::kStatsVotes | core::kStatsEntropy, core::kStatsAll};
  for (const std::size_t rows : {1, 2, 15, 16, 17, 100, 255, 256, 257, 513}) {
    const Matrix x = nan_poisoned_rows(rows, rng);
    std::vector<core::EnsembleStats> batch;
    for (const core::StatsMask mask : shapes) {
      SCOPED_TRACE("rows=" + std::to_string(rows) +
                   " mask=" + std::to_string(mask));
      forest->stats_batch(x, nullptr, batch, mask);
      ASSERT_EQ(batch.size(), rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const core::EnsembleStats one = forest->stats_one(x.row(r));
        EXPECT_EQ(batch[r].votes1, one.votes1) << "row " << r;
        if (mask & core::kStatsPosterior) {
          EXPECT_EQ(batch[r].sum_p1, one.sum_p1) << "row " << r;
        }
        if (mask & core::kStatsEntropy) {
          EXPECT_EQ(batch[r].sum_entropy, one.sum_entropy) << "row " << r;
        }
      }
    }
  }
}

TEST(FlatForestParity, EveryModelKindReportsAFlatEngineTruthfully) {
  // Since the pluggable-engine refactor no ModelKind falls back to the
  // per-member pointer path: trees compile to FlatForestEngine, linear
  // ensembles to FlatLinearEngine, and uses_flat_engine() must say so.
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::HmdConfig config = config_for(10);
    config.model = kind;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    EXPECT_TRUE(hmd.uses_flat_engine());
    EXPECT_EQ(hmd.engine().n_members(), 10u);
    const bool is_tree = kind == core::ModelKind::kRandomForest;
    EXPECT_EQ(hmd.engine().engine_id() == core::EngineId::kFlatForest,
              is_tree);
  }
}

}  // namespace
