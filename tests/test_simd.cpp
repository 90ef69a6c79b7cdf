// The simd/ subsystem's contracts (ctest label `simd`, CI also forces
// HMD_SIMD=scalar through the whole tier-1 suite):
//
//  - ISA ladder plumbing: parse/name round trips, overrides only ever
//    clamp DOWN, kernels(level) never hands out a table above what the
//    host can execute.
//  - The ≤2-ULP bound of exp_array/log_array against libm, with exact
//    special values (±0, ±inf, NaN, denormals) — randomized sweeps plus
//    a hand-picked boundary list.
//  - sigmoid_array's exact saturation thresholds (the same +40 / -745
//    bit patterns the exact tier produces) and the bounded-ULP interior;
//    binary_entropy_array's exact endpoints and bounded-ULP interior.
//  - Lane-for-lane bit parity across ISA levels: the scalar, AVX2 and
//    AVX-512 builds of the one shared kernel body must produce identical
//    bits (the -ffp-contract=off construction argument in simd/vmath.h),
//    which is what makes HMD_SIMD=scalar a *fallback* and not a
//    different numerical product.
//  - End to end: Accuracy::kFast through api::score() stays within the
//    contract band of kExact for all three ModelKinds, and kExact stays
//    bit-identical to a default-constructed request.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/hmd.h"
#include "simd/cpu.h"
#include "simd/vmath.h"
#include "test_support.h"

namespace {

using namespace hmd;

// Monotone bit-rank of a double (total order matching <), so ULP
// distance is rank subtraction — same mapping tools/loadgen.cpp uses to
// verify fast-tier responses.
std::uint64_t rank_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
}

std::uint64_t ulp_distance(double a, double b) {
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ab == bb) return 0;  // covers NaN-vs-same-NaN, ±inf, -0.0 vs -0.0
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t ra = rank_of(a);
  const std::uint64_t rb = rank_of(b);
  return ra > rb ? ra - rb : rb - ra;
}

// The boundary inputs every kernel sweep appends to its random set.
std::vector<double> boundary_inputs() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),       // smallest normal
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1.0, -1.0, 0.5, -0.5, 2.0, -2.0,
      // sigmoid saturation thresholds and their neighbourhoods
      40.0, std::nextafter(40.0, 0.0), std::nextafter(40.0, 100.0),
      -745.0, std::nextafter(-745.0, 0.0), std::nextafter(-745.0, -800.0),
      // exp overflow/underflow frontier
      709.78, 710.0, -745.13, -746.0, -708.0, 708.0,
  };
}

std::vector<double> random_inputs(double lo, double hi, int n,
                                  std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(dist(rng));
  return out;
}

// Log-uniform positive draws across many decades (for log_array).
std::vector<double> log_uniform_inputs(int n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> exponent(-300.0, 300.0);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(std::pow(10.0, exponent(rng)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ISA ladder

TEST(SimdIsaTest, NamesAndParseRoundTrip) {
  using simd::IsaLevel;
  EXPECT_STREQ(simd::isa_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(IsaLevel::kAvx512), "avx512");
  EXPECT_EQ(simd::parse_isa("scalar"), IsaLevel::kScalar);
  EXPECT_EQ(simd::parse_isa("off"), IsaLevel::kScalar);
  EXPECT_EQ(simd::parse_isa("avx2"), IsaLevel::kAvx2);
  EXPECT_EQ(simd::parse_isa("avx512"), IsaLevel::kAvx512);
  EXPECT_FALSE(simd::parse_isa("sse9").has_value());
  EXPECT_FALSE(simd::parse_isa("").has_value());
}

TEST(SimdIsaTest, OverridesOnlyClampDown) {
  const simd::IsaLevel detected = simd::detected_isa();
  EXPECT_LE(static_cast<int>(simd::active_isa()),
            static_cast<int>(detected));

  // Forcing scalar always works; forcing a level above the hardware
  // clamps to the hardware, never traps.
  simd::set_isa_override(simd::IsaLevel::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::IsaLevel::kScalar);
  simd::set_isa_override(simd::IsaLevel::kAvx512);
  EXPECT_LE(static_cast<int>(simd::active_isa()),
            static_cast<int>(detected));
  simd::set_isa_override(std::nullopt);
  EXPECT_LE(static_cast<int>(simd::active_isa()),
            static_cast<int>(detected));

  // The table handed out never exceeds the requested or detected level.
  for (const auto level : {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
                           simd::IsaLevel::kAvx512}) {
    const simd::VmathKernels& table = simd::kernels(level);
    EXPECT_LE(static_cast<int>(table.level), static_cast<int>(level));
    EXPECT_LE(static_cast<int>(table.level), static_cast<int>(detected));
    ASSERT_NE(table.exp_array, nullptr);
    ASSERT_NE(table.log_array, nullptr);
    ASSERT_NE(table.sigmoid_array, nullptr);
    ASSERT_NE(table.binary_entropy_array, nullptr);
  }
}

// ---------------------------------------------------------------------------
// ULP bounds vs libm

TEST(SimdUlpTest, ExpWithinTwoUlpOfLibmPlusExactSpecials) {
  std::vector<double> in = random_inputs(-760.0, 720.0, 20000, 101);
  const std::vector<double> extra = random_inputs(-5.0, 5.0, 20000, 102);
  in.insert(in.end(), extra.begin(), extra.end());
  const std::vector<double> edge = boundary_inputs();
  in.insert(in.end(), edge.begin(), edge.end());

  std::vector<double> out(in.size());
  simd::kernels().exp_array(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = std::exp(in[i]);
    ASSERT_LE(ulp_distance(out[i], want), 2u)
        << "exp(" << in[i] << ") = " << out[i] << ", libm " << want;
  }

  // Specials are exact, bit for bit.
  const double inf = std::numeric_limits<double>::infinity();
  double special_in[] = {0.0, -0.0, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()};
  double special_out[5];
  simd::kernels().exp_array(special_in, special_out, 5);
  EXPECT_EQ(special_out[0], 1.0);
  EXPECT_EQ(special_out[1], 1.0);
  EXPECT_EQ(special_out[2], inf);
  EXPECT_EQ(special_out[3], 0.0);
  EXPECT_TRUE(std::isnan(special_out[4]));
}

TEST(SimdUlpTest, LogWithinTwoUlpOfLibmPlusExactSpecials) {
  std::vector<double> in = log_uniform_inputs(30000, 201);
  const std::vector<double> near_one = random_inputs(0.5, 2.0, 10000, 202);
  in.insert(in.end(), near_one.begin(), near_one.end());
  // Denormals: log must pre-scale, not flush.
  for (int i = 1; i <= 64; ++i) {
    in.push_back(static_cast<double>(i) *
                 std::numeric_limits<double>::denorm_min());
  }
  std::vector<double> out(in.size());
  simd::kernels().log_array(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = std::log(in[i]);
    ASSERT_LE(ulp_distance(out[i], want), 2u)
        << "log(" << in[i] << ") = " << out[i] << ", libm " << want;
  }

  const double inf = std::numeric_limits<double>::infinity();
  double special_in[] = {0.0, -0.0, 1.0, inf, -1.0,
                         std::numeric_limits<double>::quiet_NaN()};
  double special_out[6];
  simd::kernels().log_array(special_in, special_out, 6);
  EXPECT_EQ(special_out[0], -inf);
  EXPECT_EQ(special_out[1], -inf);
  EXPECT_EQ(special_out[2], 0.0);
  EXPECT_EQ(special_out[3], inf);
  EXPECT_TRUE(std::isnan(special_out[4]));  // log of a negative
  EXPECT_TRUE(std::isnan(special_out[5]));
}

TEST(SimdUlpTest, SigmoidSaturatesExactlyAndInteriorIsBounded) {
  // The saturation thresholds must match the exact tier bit for bit:
  // t >= 40 -> exactly 1.0, t <= -745 -> exactly 0.0.
  double sat_in[] = {40.0, 41.0, 1000.0,
                     std::numeric_limits<double>::infinity(), -745.0,
                     -746.0, -1e6,
                     -std::numeric_limits<double>::infinity()};
  double sat_out[8];
  simd::kernels().sigmoid_array(sat_in, sat_out, 8);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sat_out[i], 1.0) << sat_in[i];
  for (int i = 4; i < 8; ++i) EXPECT_EQ(sat_out[i], 0.0) << sat_in[i];

  // Interior: 1/(1+exp(-t)) with the fast exp — the fast exp's 2 ULP
  // plus one rounding each for the add and the divide against the libm
  // reference evaluated the same way.
  std::vector<double> in = random_inputs(-745.0, 40.0, 30000, 301);
  const std::vector<double> narrow = random_inputs(-8.0, 8.0, 10000, 302);
  in.insert(in.end(), narrow.begin(), narrow.end());
  in.push_back(std::nextafter(40.0, 0.0));
  in.push_back(std::nextafter(-745.0, 0.0));
  std::vector<double> out(in.size());
  simd::kernels().sigmoid_array(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = 1.0 / (1.0 + std::exp(-in[i]));
    ASSERT_LE(ulp_distance(out[i], want), 4u)
        << "sigmoid(" << in[i] << ") = " << out[i] << ", reference "
        << want;
  }
}

TEST(SimdUlpTest, BinaryEntropyExactEndpointsAndBoundedInterior) {
  // Outside (0, 1) — including the endpoints themselves — H is exactly 0.
  double edge_in[] = {0.0, 1.0, -0.0, -0.5, 1.5,
                      std::numeric_limits<double>::infinity()};
  double edge_out[6];
  simd::kernels().binary_entropy_array(edge_in, edge_out, 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(edge_out[i], 0.0) << edge_in[i];

  std::vector<double> in = random_inputs(0.0, 1.0, 30000, 401);
  // The near-degenerate tails where -p log p cancellation would show.
  for (int i = 1; i <= 200; ++i) {
    in.push_back(std::ldexp(1.0, -i > -1022 ? -i : -1022));
    in.push_back(1.0 - std::ldexp(1.0, -(i % 52) - 1));
  }
  std::vector<double> out(in.size());
  simd::kernels().binary_entropy_array(in.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double p = in[i];
    const double want = (p > 0.0 && p < 1.0)
                            ? -p * std::log(p) - (1.0 - p) * std::log(1.0 - p)
                            : 0.0;
    ASSERT_LE(ulp_distance(out[i], want), 4u)
        << "H(" << p << ") = " << out[i] << ", reference " << want;
  }
}

// ---------------------------------------------------------------------------
// Cross-ISA bit parity

TEST(SimdParityTest, AllIsaLevelsProduceIdenticalBits) {
  std::vector<double> in = random_inputs(-760.0, 720.0, 50000, 501);
  const std::vector<double> unit = random_inputs(0.0, 1.0, 20000, 502);
  in.insert(in.end(), unit.begin(), unit.end());
  const std::vector<double> edge = boundary_inputs();
  in.insert(in.end(), edge.begin(), edge.end());

  const simd::VmathKernels& scalar = simd::kernels(simd::IsaLevel::kScalar);
  ASSERT_EQ(scalar.level, simd::IsaLevel::kScalar);

  using ArrayFn = simd::VmathKernels::ArrayFn;
  const auto fn_of = [](const simd::VmathKernels& t, int which) -> ArrayFn {
    switch (which) {
      case 0: return t.exp_array;
      case 1: return t.log_array;
      case 2: return t.sigmoid_array;
      default: return t.binary_entropy_array;
    }
  };
  const char* names[] = {"exp", "log", "sigmoid", "binary_entropy"};

  for (const auto level : {simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
    const simd::VmathKernels& vec = simd::kernels(level);
    if (vec.level == simd::IsaLevel::kScalar) continue;  // host too old
    for (int which = 0; which < 4; ++which) {
      SCOPED_TRACE(std::string(names[which]) + " scalar vs " +
                   simd::isa_name(vec.level));
      std::vector<double> a(in.size()), b(in.size());
      fn_of(scalar, which)(in.data(), a.data(), in.size());
      fn_of(vec, which)(in.data(), b.data(), in.size());
      // One memcmp proves lane-for-lane parity including NaN payloads
      // and signed zeros.
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            in.size() * sizeof(double)),
                0);
    }
  }
}

TEST(SimdParityTest, InPlaceAliasingMatchesOutOfPlace) {
  const std::vector<double> in = random_inputs(-40.0, 40.0, 4097, 601);
  const simd::VmathKernels& table = simd::kernels();
  std::vector<double> separate(in.size());
  table.sigmoid_array(in.data(), separate.data(), in.size());
  std::vector<double> aliased = in;
  table.sigmoid_array(aliased.data(), aliased.data(), aliased.size());
  EXPECT_EQ(std::memcmp(separate.data(), aliased.data(),
                        in.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// End to end through api::score()

constexpr std::uint64_t kEndToEndUlps = 8;
// Absolute slack for mutual-information cancellation (see tools/loadgen.cpp).
constexpr double kEndToEndAbs = 1e-12;

bool column_close(const std::vector<double>& got,
                  const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i] - want[i]) <= kEndToEndAbs) continue;
    if (ulp_distance(got[i], want[i]) > kEndToEndUlps) return false;
  }
  return true;
}

core::HmdConfig e2e_config(core::ModelKind kind) {
  core::HmdConfig config;
  config.model = kind;
  config.n_members = 16;
  config.n_threads = 1;
  config.seed = 42;
  return config;
}

TEST(SimdEndToEndTest, FastTierWithinContractBandForAllModelKinds) {
  const auto& bundle = test::small_dvfs();
  for (const auto kind :
       {core::ModelKind::kBaggedLogistic, core::ModelKind::kBaggedSvm,
        core::ModelKind::kRandomForest}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::TrustedHmd hmd(e2e_config(kind));
    hmd.fit(bundle.train);

    for (const auto mode :
         {core::UncertaintyMode::kVoteEntropy,
          core::UncertaintyMode::kSoftEntropy,
          core::UncertaintyMode::kMutualInformation,
          core::UncertaintyMode::kMaxProbability}) {
      SCOPED_TRACE(core::uncertainty_mode_name(mode));
      api::ScoreRequest request;
      request.x = &bundle.test.X;
      request.outputs = api::kEstimateOutputs;
      request.mode = mode;

      api::ScoreResult exact;
      request.accuracy = core::Accuracy::kExact;
      hmd.score(request, exact);

      api::ScoreResult fast;
      request.accuracy = core::Accuracy::kFast;
      hmd.score(request, fast);

      // Discrete columns: bit-identical (no trained detector sits on the
      // ULP knife edge of a decision boundary — the score.h contract).
      EXPECT_EQ(fast.prediction, exact.prediction);
      EXPECT_EQ(fast.votes, exact.votes);
      EXPECT_EQ(fast.trusted, exact.trusted);
      // Continuous columns: inside the fast-tier band.
      EXPECT_TRUE(column_close(fast.vote_entropy, exact.vote_entropy));
      EXPECT_TRUE(column_close(fast.soft_entropy, exact.soft_entropy));
      EXPECT_TRUE(
          column_close(fast.expected_entropy, exact.expected_entropy));
      EXPECT_TRUE(
          column_close(fast.mutual_information, exact.mutual_information));
      EXPECT_TRUE(
          column_close(fast.variation_ratio, exact.variation_ratio));
      EXPECT_TRUE(
          column_close(fast.max_probability, exact.max_probability));
      EXPECT_TRUE(column_close(fast.confidence, exact.confidence));
      EXPECT_TRUE(column_close(fast.score, exact.score));
    }
  }
}

TEST(SimdEndToEndTest, ExactTierIsTheDefaultAndBitIdentical) {
  const auto& bundle = test::small_dvfs();
  core::TrustedHmd hmd(e2e_config(core::ModelKind::kBaggedLogistic));
  hmd.fit(bundle.train);

  api::ScoreRequest request;  // accuracy left at its default
  request.x = &bundle.test.X;
  request.outputs = api::kEstimateOutputs;
  api::ScoreResult defaulted;
  hmd.score(request, defaulted);

  request.accuracy = core::Accuracy::kExact;
  api::ScoreResult explicit_exact;
  hmd.score(request, explicit_exact);

  EXPECT_EQ(defaulted.prediction, explicit_exact.prediction);
  EXPECT_EQ(defaulted.votes, explicit_exact.votes);
  EXPECT_EQ(defaulted.soft_entropy, explicit_exact.soft_entropy);
  EXPECT_EQ(defaulted.mutual_information,
            explicit_exact.mutual_information);
  EXPECT_EQ(defaulted.score, explicit_exact.score);
  EXPECT_EQ(defaulted.trusted, explicit_exact.trusted);
}

}  // namespace
