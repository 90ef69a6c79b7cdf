// The HMDW wire protocol (serve/wire.h): encode/parse round-trips for
// every OutputMask combination, the malformed-frame rejection sweep with
// its fatal/survivable split, and over-the-socket checks: a survivable
// error frame leaves the connection serving, answers to two keys
// pipelined on one connection match their requests by id, pipelined
// answers share send() calls, and a closing connection (fatal frame or
// peer EOF) answers what came before it, then reads nothing more.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "test_support.h"

namespace hmd {
namespace {

using serve::wire::ErrorCode;
using serve::wire::Frame;
using serve::wire::FrameType;
using serve::wire::WireError;

/// Parse expecting success; returns the consumed byte count.
std::size_t parse_ok(const std::vector<unsigned char>& bytes, Frame& frame,
                     std::size_t max_payload = 16u << 20) {
  return serve::wire::parse_frame(bytes.data(), bytes.size(), max_payload,
                                  frame);
}

/// Parse expecting a WireError; returns its code (kNone on no throw).
ErrorCode parse_code(const std::vector<unsigned char>& bytes,
                     std::size_t max_payload = 16u << 20) {
  Frame frame;
  try {
    serve::wire::parse_frame(bytes.data(), bytes.size(), max_payload, frame);
  } catch (const WireError& error) {
    return error.code();
  }
  return ErrorCode::kNone;
}

/// A deterministic ScoreResult with every column filled and distinct.
api::ScoreResult filled_result(std::size_t rows) {
  api::ScoreResult result;
  result.shape(serve::wire::kKnownOutputs, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double v = static_cast<double>(r);
    result.prediction[r] = static_cast<std::int32_t>(r % 2);
    result.confidence[r] = 0.5 + v;
    result.votes[r] = static_cast<std::int32_t>(3 + r);
    result.vote_entropy[r] = 0.01 + v;
    result.soft_entropy[r] = 0.02 + v;
    result.expected_entropy[r] = 0.03 + v;
    result.mutual_information[r] = 0.04 + v;
    result.variation_ratio[r] = 0.05 + v;
    result.max_probability[r] = 0.06 + v;
    result.score[r] = 0.07 + v;
    result.trusted[r] = r % 2 == 0 ? 1 : 0;
  }
  return result;
}

TEST(WireTest, RequestRoundTripCarriesEveryField) {
  const std::vector<double> features = {1.0, -2.5, 3.25, 0.0, 42.0, -0.125};
  std::vector<unsigned char> bytes;
  serve::wire::append_request(bytes, 7, "model_a", api::kDetectionOutputs,
                              core::UncertaintyMode::kMutualInformation,
                              features.data(), 2, 3);
  Frame frame;
  EXPECT_EQ(parse_ok(bytes, frame), bytes.size());
  ASSERT_EQ(frame.type, FrameType::kScoreRequest);
  EXPECT_EQ(frame.request.request_id, 7u);
  EXPECT_EQ(frame.request.model_key, "model_a");
  EXPECT_EQ(frame.request.outputs, api::kDetectionOutputs);
  ASSERT_TRUE(frame.request.mode.has_value());
  EXPECT_EQ(*frame.request.mode, core::UncertaintyMode::kMutualInformation);
  EXPECT_EQ(frame.request.rows, 2u);
  EXPECT_EQ(frame.request.cols, 3u);
  EXPECT_EQ(std::memcmp(frame.request.features, features.data(),
                        features.size() * sizeof(double)),
            0);

  // Unset mode round-trips as "model's configured mode".
  bytes.clear();
  serve::wire::append_request(bytes, 8, "m", api::kPredictionOnly,
                              std::nullopt, features.data(), 1, 6);
  EXPECT_EQ(parse_ok(bytes, frame), bytes.size());
  EXPECT_FALSE(frame.request.mode.has_value());
}

TEST(WireTest, ResultRoundTripEveryMaskCombination) {
  constexpr std::size_t kRows = 3;
  const api::ScoreResult source = filled_result(kRows);
  // All 2047 non-empty subsets of the 11 column bits.
  for (api::OutputMask mask = 1; mask <= serve::wire::kKnownOutputs; ++mask) {
    std::vector<unsigned char> bytes;
    serve::wire::append_result(bytes, mask, mask, source, 0, kRows);
    // Payload = u32 outputs + u32 rows prelude, then the packed columns.
    EXPECT_EQ(bytes.size(),
              serve::wire::kHeaderBytes + 8 +
                  serve::wire::result_payload_bytes(mask, kRows));
    Frame frame;
    ASSERT_EQ(parse_ok(bytes, frame), bytes.size()) << "mask=" << mask;
    ASSERT_EQ(frame.type, FrameType::kScoreResult);
    EXPECT_EQ(frame.result.request_id, mask);
    EXPECT_EQ(frame.result.outputs, mask);
    api::ScoreResult unpacked;
    serve::wire::unpack_result(frame.result, unpacked);
    ASSERT_EQ(unpacked.rows, kRows);
    // Selected columns byte-identical; unselected columns empty.
    const auto check = [&](api::OutputMask bit, const auto& got,
                           const auto& want) {
      if (mask & bit) {
        ASSERT_EQ(got.size(), kRows) << "mask=" << mask << " bit=" << bit;
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              kRows * sizeof(want[0])),
                  0)
            << "mask=" << mask << " bit=" << bit;
      } else {
        EXPECT_TRUE(got.empty()) << "mask=" << mask << " bit=" << bit;
      }
    };
    check(api::kOutPrediction, unpacked.prediction, source.prediction);
    check(api::kOutConfidence, unpacked.confidence, source.confidence);
    check(api::kOutVotes, unpacked.votes, source.votes);
    check(api::kOutVoteEntropy, unpacked.vote_entropy, source.vote_entropy);
    check(api::kOutSoftEntropy, unpacked.soft_entropy, source.soft_entropy);
    check(api::kOutExpectedEntropy, unpacked.expected_entropy,
          source.expected_entropy);
    check(api::kOutMutualInformation, unpacked.mutual_information,
          source.mutual_information);
    check(api::kOutVariationRatio, unpacked.variation_ratio,
          source.variation_ratio);
    check(api::kOutMaxProbability, unpacked.max_probability,
          source.max_probability);
    check(api::kOutScore, unpacked.score, source.score);
    check(api::kOutTrusted, unpacked.trusted, source.trusted);
  }
}

TEST(WireTest, AccuracyTierRoundTripsOnRequestsAndResults) {
  const double feature = 1.0;

  // Default append (no accuracy argument) writes byte 6 = 0 — the exact
  // tier, and the exact bytes a pre-tier client emitted.
  std::vector<unsigned char> bytes;
  serve::wire::append_request(bytes, 1, "m", api::kPredictionOnly,
                              std::nullopt, &feature, 1, 1);
  EXPECT_EQ(bytes[6], 0);
  Frame frame;
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  EXPECT_EQ(frame.request.accuracy, core::Accuracy::kExact);

  // Explicit fast tier rides header byte 6 both directions.
  bytes.clear();
  serve::wire::append_request(bytes, 2, "m", api::kPredictionOnly,
                              std::nullopt, &feature, 1, 1,
                              core::Accuracy::kFast);
  EXPECT_EQ(bytes[6], 1);
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  EXPECT_EQ(frame.request.accuracy, core::Accuracy::kFast);

  const api::ScoreResult source = filled_result(2);
  bytes.clear();
  serve::wire::append_result(bytes, 3, api::kDetectionOutputs, source, 0, 2,
                             core::Accuracy::kFast);
  EXPECT_EQ(bytes[6], 1);
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  ASSERT_EQ(frame.type, FrameType::kScoreResult);
  EXPECT_EQ(frame.result.accuracy, core::Accuracy::kFast);

  bytes.clear();
  serve::wire::append_result(bytes, 4, api::kDetectionOutputs, source, 0, 2);
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  EXPECT_EQ(frame.result.accuracy, core::Accuracy::kExact);
}

TEST(WireTest, ResultSliceExtractsTheRequestedRows) {
  const api::ScoreResult source = filled_result(10);
  std::vector<unsigned char> bytes;
  serve::wire::append_result(bytes, 1, api::kDetectionOutputs, source, 4, 3);
  Frame frame;
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  api::ScoreResult unpacked;
  serve::wire::unpack_result(frame.result, unpacked);
  ASSERT_EQ(unpacked.rows, 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(unpacked.prediction[r], source.prediction[4 + r]);
    EXPECT_EQ(unpacked.confidence[r], source.confidence[4 + r]);
    EXPECT_EQ(unpacked.score[r], source.score[4 + r]);
    EXPECT_EQ(unpacked.trusted[r], source.trusted[4 + r]);
  }
}

TEST(WireTest, ErrorFrameRoundTripAndDetailTruncation) {
  std::vector<unsigned char> bytes;
  serve::wire::append_error(bytes, 9, ErrorCode::kUnknownModel, "no such");
  Frame frame;
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.request_id, 9u);
  EXPECT_EQ(frame.error.code, ErrorCode::kUnknownModel);
  EXPECT_EQ(frame.error.detail, "no such");

  bytes.clear();
  serve::wire::append_error(bytes, 1, ErrorCode::kBadPayload,
                            std::string(5000, 'x'));
  ASSERT_EQ(parse_ok(bytes, frame), bytes.size());
  EXPECT_EQ(frame.error.detail.size(), 1024u);  // bounded error frames
}

TEST(WireTest, IncompleteFramesAskForMoreBytes) {
  const double feature = 1.0;
  std::vector<unsigned char> bytes;
  serve::wire::append_request(bytes, 1, "m", api::kPredictionOnly,
                              std::nullopt, &feature, 1, 1);
  Frame frame;
  for (const std::size_t cut :
       {0ul, 1ul, serve::wire::kHeaderBytes - 1, serve::wire::kHeaderBytes,
        bytes.size() - 1}) {
    const std::vector<unsigned char> prefix(bytes.begin(),
                                            bytes.begin() + cut);
    EXPECT_EQ(serve::wire::parse_frame(prefix.data(), prefix.size(),
                                       16u << 20, frame),
              0u)
        << "cut=" << cut;
  }
}

TEST(WireTest, MalformedFrameRejectionSweep) {
  const double feature = 1.0;
  std::vector<unsigned char> good;
  serve::wire::append_request(good, 3, "m", api::kPredictionOnly,
                              std::nullopt, &feature, 1, 1);

  // Fatal framing errors: the stream offset is untrustworthy afterwards.
  auto bad = good;
  bad[0] = 'X';
  EXPECT_EQ(parse_code(bad), ErrorCode::kBadMagic);
  EXPECT_TRUE(serve::wire::error_closes_connection(ErrorCode::kBadMagic));

  bad = good;
  bad[4] = 99;  // protocol version
  EXPECT_EQ(parse_code(bad), ErrorCode::kBadVersion);
  EXPECT_TRUE(serve::wire::error_closes_connection(ErrorCode::kBadVersion));

  bad = good;
  const std::uint32_t huge = 17u << 20;  // over the server cap passed below
  std::memcpy(bad.data() + 12, &huge, 4);
  EXPECT_EQ(parse_code(bad, 16u << 20), ErrorCode::kFrameTooLarge);
  EXPECT_TRUE(
      serve::wire::error_closes_connection(ErrorCode::kFrameTooLarge));

  // Survivable frame-level errors: boundary known, connection continues.
  const auto patch_u32 = [&](std::size_t offset, std::uint32_t value) {
    auto copy = good;
    std::memcpy(copy.data() + offset, &value, 4);
    return copy;
  };
  constexpr std::size_t kPayload = serve::wire::kHeaderBytes;

  bad = good;
  bad[5] = 7;  // unknown frame type
  EXPECT_EQ(parse_code(bad), ErrorCode::kBadFrameType);
  EXPECT_FALSE(
      serve::wire::error_closes_connection(ErrorCode::kBadFrameType));

  bad = good;
  bad[6] = 2;  // accuracy tier above kFast
  EXPECT_EQ(parse_code(bad), ErrorCode::kBadPayload);
  EXPECT_FALSE(serve::wire::error_closes_connection(ErrorCode::kBadPayload));

  bad = good;
  bad[7] = 1;  // the reserved byte must stay zero
  EXPECT_EQ(parse_code(bad), ErrorCode::kBadPayload);

  // Empty and unknown OutputMask bits.
  EXPECT_EQ(parse_code(patch_u32(kPayload + 0, 0)), ErrorCode::kMaskInvalid);
  EXPECT_EQ(parse_code(patch_u32(kPayload + 0, 1u << 15)),
            ErrorCode::kMaskInvalid);
  // Mode outside UncertaintyMode (and not the unset sentinel).
  EXPECT_EQ(parse_code(patch_u32(kPayload + 4, 6)), ErrorCode::kModeInvalid);
  // Row/col geometry: zero rows, zero cols, and row counts over the
  // protocol bound (which would also overflow the declared length).
  EXPECT_EQ(parse_code(patch_u32(kPayload + 8, 0)), ErrorCode::kBadPayload);
  EXPECT_EQ(parse_code(patch_u32(kPayload + 12, 0)), ErrorCode::kBadPayload);
  EXPECT_EQ(
      parse_code(patch_u32(kPayload + 8, serve::wire::kMaxRowsPerRequest + 1)),
      ErrorCode::kBadPayload);
  // rows*cols no longer matching the declared payload size.
  EXPECT_EQ(parse_code(patch_u32(kPayload + 8, 2)), ErrorCode::kBadPayload);
  // Key length zero / over bound / running past the payload.
  auto bad_key = good;
  const std::uint16_t zero_key = 0;
  std::memcpy(bad_key.data() + kPayload + 16, &zero_key, 2);
  EXPECT_EQ(parse_code(bad_key), ErrorCode::kBadPayload);
  const std::uint16_t long_key = 999;
  std::memcpy(bad_key.data() + kPayload + 16, &long_key, 2);
  EXPECT_EQ(parse_code(bad_key), ErrorCode::kBadPayload);

  // Each survivable rejection echoes the request id for the error frame.
  try {
    Frame frame;
    serve::wire::parse_frame(patch_u32(kPayload + 0, 0).data(), good.size(),
                             16u << 20, frame);
    FAIL() << "mask 0 parsed";
  } catch (const WireError& error) {
    EXPECT_EQ(error.request_id(), 3u);
    EXPECT_FALSE(error.fatal());
  }
}

TEST(WireTest, LoadErrorTaxonomyMapsIntoWireCodes) {
  EXPECT_EQ(serve::wire::error_code_for(LoadErrorCode::kChecksum),
            ErrorCode::kLoadChecksum);
  EXPECT_EQ(serve::wire::error_code_for(LoadErrorCode::kTruncated),
            ErrorCode::kLoadTruncated);
  EXPECT_EQ(serve::wire::error_code_for(LoadErrorCode::kBadMagic),
            ErrorCode::kLoadBadMagic);
  EXPECT_FALSE(
      serve::wire::error_closes_connection(ErrorCode::kLoadChecksum));
  EXPECT_STREQ(serve::wire::error_code_name(ErrorCode::kUnknownModel),
               "unknown-model");
}

// ---------------------------------------------------------------------------
/// Every column of `got`'s rows [0, n) bit-identical to `want`'s rows
/// [want_row, want_row + n); unselected columns must be empty in both.
void expect_rows_identical(const api::ScoreResult& got,
                           const api::ScoreResult& want, std::size_t want_row,
                           std::size_t n, const std::string& what) {
  const auto same = [&](const auto& a, const auto& b, const char* name) {
    if (b.empty()) {
      EXPECT_TRUE(a.empty()) << what << " column " << name;
      return;
    }
    ASSERT_EQ(a.size(), n) << what << " column " << name;
    ASSERT_LE(want_row + n, b.size()) << what << " column " << name;
    EXPECT_EQ(std::memcmp(a.data(), b.data() + want_row, n * sizeof(a[0])),
              0)
        << what << " column " << name;
  };
  same(got.prediction, want.prediction, "prediction");
  same(got.confidence, want.confidence, "confidence");
  same(got.votes, want.votes, "votes");
  same(got.vote_entropy, want.vote_entropy, "vote_entropy");
  same(got.soft_entropy, want.soft_entropy, "soft_entropy");
  same(got.expected_entropy, want.expected_entropy, "expected_entropy");
  same(got.mutual_information, want.mutual_information,
       "mutual_information");
  same(got.variation_ratio, want.variation_ratio, "variation_ratio");
  same(got.max_probability, want.max_probability, "max_probability");
  same(got.score, want.score, "score");
  same(got.trusted, want.trusted, "trusted");
}

// Over a real socket: a survivable error answers with a typed error frame
// and the same connection then serves a valid request; a fatal error
// answers and closes.

class WireSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs sibling cases in other processes of
    // the same binary, and a shared directory would be removed under them.
    dir_ = std::filesystem::path(
        "wire_tmp_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    core::HmdConfig config;
    config.n_members = 5;
    config.n_threads = 1;
    config.seed = 11;
    hmd_.emplace(config);
    hmd_->fit(test::small_dvfs().train);
    const std::string path = (dir_ / "m.hmdf").string();
    core::save_model(*hmd_, path);
    registry_.emplace(1);
    registry_->add("m", path);
    server_.emplace(*registry_, serve::ServerOptions{});
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    stop_server();
    server_.reset();
    registry_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Stop run() and join it; the server's stats are then safe to read.
  void stop_server() {
    if (!thread_.joinable()) return;
    server_->request_stop();
    thread_.join();
  }

  /// `rcvbuf` > 0 pins the client's receive buffer (set before connect,
  /// so the window is sized from it).
  int connect_client(int rcvbuf = 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static void send_all(int fd, const std::vector<unsigned char>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking-read exactly one frame (header, then payload).
  static Frame read_frame(int fd, std::vector<unsigned char>& storage) {
    storage.clear();
    const auto read_exact = [&](std::size_t want) {
      const std::size_t base = storage.size();
      storage.resize(base + want);
      std::size_t got = 0;
      while (got < want) {
        const ssize_t n = ::recv(fd, storage.data() + base + got,
                                 want - got, 0);
        ASSERT_GT(n, 0) << "connection closed mid-frame";
        got += static_cast<std::size_t>(n);
      }
    };
    Frame frame;
    read_exact(serve::wire::kHeaderBytes);
    std::uint32_t payload = 0;
    std::memcpy(&payload, storage.data() + 12, 4);
    read_exact(payload);
    EXPECT_EQ(serve::wire::parse_frame(storage.data(), storage.size(),
                                       64u << 20, frame),
              storage.size());
    return frame;
  }

  /// Direct score() of the fixture model on all of `x` — the oracle.
  api::ScoreResult direct_score(const Matrix& x, api::OutputMask outputs) {
    api::ScoreRequest direct;
    direct.x = &x;
    direct.outputs = outputs;
    api::ScoreResult want;
    hmd_->score(direct, want);
    return want;
  }

  std::filesystem::path dir_;
  std::optional<core::TrustedHmd> hmd_;
  std::optional<api::DetectorRegistry> registry_;
  std::optional<serve::ScoreServer> server_;
  std::thread thread_;
};

TEST_F(WireSocketTest, SurvivableErrorThenValidRequestOnSameConnection) {
  const Matrix& x = test::small_dvfs().test.X;
  const int fd = connect_client();

  // Unknown model key: typed error frame, connection survives.
  std::vector<unsigned char> bytes;
  serve::wire::append_request(bytes, 21, "nope", api::kDetectionOutputs,
                              std::nullopt, x.row_ptr(0), 1, x.cols());
  send_all(fd, bytes);
  std::vector<unsigned char> storage;
  Frame frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.request_id, 21u);
  EXPECT_EQ(frame.error.code, ErrorCode::kUnknownModel);

  // Wrong feature width for a known model: shape mismatch, survives too.
  bytes.clear();
  serve::wire::append_request(bytes, 22, "m", api::kDetectionOutputs,
                              std::nullopt, x.row_ptr(0), 1, x.cols() - 1);
  send_all(fd, bytes);
  frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.request_id, 22u);
  EXPECT_EQ(frame.error.code, ErrorCode::kShapeMismatch);

  // The same connection still serves, bit-identical to direct score().
  bytes.clear();
  serve::wire::append_request(bytes, 23, "m", api::kDetectionOutputs,
                              std::nullopt, x.row_ptr(0), 2, x.cols());
  send_all(fd, bytes);
  frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kScoreResult);
  EXPECT_EQ(frame.result.request_id, 23u);
  // An old-style request (header byte 6 = 0) is served on the exact tier
  // and the result echoes it — pre-tier clients see pre-tier bytes.
  EXPECT_EQ(frame.result.accuracy, core::Accuracy::kExact);
  api::ScoreResult got;
  serve::wire::unpack_result(frame.result, got);

  api::ScoreRequest direct;
  direct.x = &x;
  direct.outputs = api::kDetectionOutputs;
  api::ScoreResult want;
  hmd_->score(direct, want);
  ASSERT_EQ(got.rows, 2u);
  EXPECT_EQ(std::memcmp(got.prediction.data(), want.prediction.data(),
                        2 * sizeof(std::int32_t)),
            0);
  EXPECT_EQ(std::memcmp(got.score.data(), want.score.data(),
                        2 * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(got.trusted.data(), want.trusted.data(), 2), 0);
  ::close(fd);
}

// Unknown-model requests are rejected by the registry's cuckoo-filter
// front door (no shard lock, no load attempt) — but the wire contract
// must not move: every bogus key still gets the same typed survivable
// kUnknownModel error frame with its request id and detail string, and
// the connection keeps serving afterwards.
TEST_F(WireSocketTest, UnknownModelFloodKeepsTypedErrorAndConnection) {
  const Matrix& x = test::small_dvfs().test.X;
  const int fd = connect_client();
  std::vector<unsigned char> bytes;
  std::vector<unsigned char> storage;

  for (std::uint32_t i = 0; i < 64; ++i) {
    const std::string key = "bogus_" + std::to_string(i);
    bytes.clear();
    serve::wire::append_request(bytes, 1000 + i, key, api::kDetectionOutputs,
                                std::nullopt, x.row_ptr(0), 1, x.cols());
    send_all(fd, bytes);
    const Frame frame = read_frame(fd, storage);
    ASSERT_EQ(frame.type, FrameType::kError) << "key " << key;
    EXPECT_EQ(frame.error.request_id, 1000u + i);
    EXPECT_EQ(frame.error.code, ErrorCode::kUnknownModel);
    EXPECT_EQ(frame.error.detail, "unknown model key '" + key + "'");
  }
  const auto stats = registry_->fleet_stats();
  EXPECT_GE(stats.filter.rejected, 1u);  // front door actually engaged

  // The flood left the connection and the known model untouched.
  bytes.clear();
  serve::wire::append_request(bytes, 2000, "m", api::kDetectionOutputs,
                              std::nullopt, x.row_ptr(0), 1, x.cols());
  send_all(fd, bytes);
  const Frame frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kScoreResult);
  EXPECT_EQ(frame.result.request_id, 2000u);
  ::close(fd);
}

// A fast-tier request over the socket: the result frame echoes the tier,
// integer columns match the exact direct score() bitwise, and the double
// columns sit inside the vmath ULP band — the over-the-wire half of the
// accuracy contract in api/score.h.
TEST_F(WireSocketTest, FastTierEchoedAndWithinUlpOfExact) {
  const Matrix& x = test::small_dvfs().test.X;
  const std::size_t rows = 4;
  const int fd = connect_client();

  std::vector<unsigned char> bytes;
  serve::wire::append_request(bytes, 31, "m", api::kEstimateOutputs,
                              core::UncertaintyMode::kSoftEntropy,
                              x.row_ptr(0), rows, x.cols(),
                              core::Accuracy::kFast);
  send_all(fd, bytes);
  std::vector<unsigned char> storage;
  const Frame frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kScoreResult);
  EXPECT_EQ(frame.result.accuracy, core::Accuracy::kFast);
  api::ScoreResult got;
  serve::wire::unpack_result(frame.result, got);
  ASSERT_EQ(got.rows, rows);

  api::ScoreRequest direct;
  direct.x = &x;
  direct.outputs = api::kEstimateOutputs;
  direct.mode = core::UncertaintyMode::kSoftEntropy;
  api::ScoreResult want;  // exact-tier oracle
  hmd_->score(direct, want);

  const auto close_enough = [](double a, double b) {
    if (a == b) return true;
    if (std::abs(a - b) <= 1e-12) return true;
    const auto rank = [](double v) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
    };
    const std::uint64_t ra = rank(a), rb = rank(b);
    return (ra > rb ? ra - rb : rb - ra) <= 8;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(got.prediction[r], want.prediction[r]) << r;
    EXPECT_EQ(got.votes[r], want.votes[r]) << r;
    EXPECT_EQ(got.trusted[r], want.trusted[r]) << r;
    EXPECT_TRUE(close_enough(got.soft_entropy[r], want.soft_entropy[r]))
        << r << ": " << got.soft_entropy[r] << " vs "
        << want.soft_entropy[r];
    EXPECT_TRUE(close_enough(got.score[r], want.score[r])) << r;
    EXPECT_TRUE(close_enough(got.mutual_information[r],
                             want.mutual_information[r]))
        << r;
  }
  ::close(fd);
}

// Two keys pipelined on one connection land in different batcher queues,
// so their answers come back in flush order, not request order (the
// ordering contract in serve/wire.h). Matched by request id, every answer
// must be bit-identical to a direct score() of its own model on its own
// rows.
TEST_F(WireSocketTest, TwoKeysPipelinedAnswersMatchByRequestId) {
  core::HmdConfig config;
  config.model = core::ModelKind::kBaggedLogistic;
  config.n_members = 5;
  config.n_threads = 1;
  config.seed = 12;
  core::TrustedHmd lr(config);
  lr.fit(test::small_dvfs().train);
  const std::string lr_path = (dir_ / "lr.hmdf").string();
  core::save_model(lr, lr_path);
  registry_->add("lr", lr_path);

  const Matrix& x = test::small_dvfs().test.X;
  constexpr std::uint32_t kRequests = 16;
  constexpr std::size_t kRows = 3;
  ASSERT_GE(x.rows(), kRequests * kRows);
  const auto model_of = [&](std::uint32_t i) -> const core::TrustedHmd& {
    return i % 2 == 0 ? *hmd_ : lr;
  };

  const int fd = connect_client();
  std::vector<unsigned char> bytes;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    serve::wire::append_request(bytes, 100 + i, i % 2 == 0 ? "m" : "lr",
                                api::kEstimateOutputs, std::nullopt,
                                x.row_ptr(i * kRows), kRows, x.cols());
  }
  send_all(fd, bytes);  // one write: the whole pipeline is in flight

  std::vector<unsigned char> storage;
  std::vector<bool> answered(kRequests, false);
  for (std::uint32_t n = 0; n < kRequests; ++n) {
    const Frame frame = read_frame(fd, storage);
    ASSERT_EQ(frame.type, FrameType::kScoreResult);
    const std::uint32_t i = frame.result.request_id - 100;
    ASSERT_LT(i, kRequests);
    ASSERT_FALSE(answered[i]) << "request " << i << " answered twice";
    answered[i] = true;
    api::ScoreResult got;
    serve::wire::unpack_result(frame.result, got);

    Matrix slice(kRows, x.cols());
    for (std::size_t r = 0; r < kRows; ++r) {
      std::memcpy(slice.row_ptr(r), x.row_ptr(i * kRows + r),
                  x.cols() * sizeof(double));
    }
    api::ScoreRequest direct;
    direct.x = &slice;
    direct.outputs = api::kEstimateOutputs;
    api::ScoreResult want;
    model_of(i).score(direct, want);

    ASSERT_EQ(got.rows, kRows) << "request " << i;
    expect_rows_identical(got, want, 0, kRows,
                          "request " + std::to_string(i));
  }
  ::close(fd);
}

TEST_F(WireSocketTest, FatalErrorAnswersThenCloses) {
  const int fd = connect_client();
  std::vector<unsigned char> garbage(serve::wire::kHeaderBytes, 0);
  std::memcpy(garbage.data(), "NOPE", 4);
  send_all(fd, garbage);
  std::vector<unsigned char> storage;
  const Frame frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.code, ErrorCode::kBadMagic);
  // Orderly close follows the error frame.
  unsigned char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

// 3 connections each pipeline 48 requests for one key in one write. The
// answers to a wave's requests leave in one send() per connection, so
// there are fewer sends than results; each connection still gets every
// answer exactly once, in request order (one batcher queue), and
// bit-identical to a direct score().
TEST_F(WireSocketTest, PipelinedAnswersShareSends) {
  const Matrix& x = test::small_dvfs().test.X;
  constexpr int kConns = 3;
  constexpr std::uint32_t kRequests = 48;
  const api::ScoreResult want = direct_score(x, api::kEstimateOutputs);
  const auto row_of = [&](int k, std::uint32_t i) {
    return (static_cast<std::size_t>(k) * 7 + i) % x.rows();
  };

  std::vector<int> fds;
  for (int k = 0; k < kConns; ++k) {
    fds.push_back(connect_client());
    std::vector<unsigned char> bytes;
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      serve::wire::append_request(bytes, i, "m", api::kEstimateOutputs,
                                  std::nullopt, x.row_ptr(row_of(k, i)), 1,
                                  x.cols());
    }
    send_all(fds.back(), bytes);
  }
  std::vector<unsigned char> storage;
  for (int k = 0; k < kConns; ++k) {
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      const Frame frame = read_frame(fds[k], storage);
      ASSERT_EQ(frame.type, FrameType::kScoreResult);
      ASSERT_EQ(frame.result.request_id, i) << "connection " << k;
      api::ScoreResult got;
      serve::wire::unpack_result(frame.result, got);
      expect_rows_identical(got, want, row_of(k, i), 1,
                            "connection " + std::to_string(k) +
                                " request " + std::to_string(i));
    }
  }
  for (const int fd : fds) ::close(fd);

  stop_server();
  const serve::ServerStats& stats = server_->stats();
  EXPECT_EQ(stats.results_out, std::uint64_t{kConns} * kRequests);
  EXPECT_GT(stats.sends, 0u);
  EXPECT_LT(stats.sends, stats.results_out);
}

// A bad-magic header behind valid requests in the same write: the valid
// requests are answered first, then the fatal error frame, then the
// connection closes.
TEST_F(WireSocketTest, FatalFrameBehindValidRequestsAnswersThemFirst) {
  const Matrix& x = test::small_dvfs().test.X;
  constexpr std::uint32_t kRequests = 8;
  const api::ScoreResult want = direct_score(x, api::kDetectionOutputs);
  const int fd = connect_client();
  std::vector<unsigned char> bytes;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    serve::wire::append_request(bytes, 50 + i, "m", api::kDetectionOutputs,
                                std::nullopt, x.row_ptr(i), 1, x.cols());
  }
  const std::size_t bad = bytes.size();
  bytes.resize(bad + serve::wire::kHeaderBytes, 0);
  std::memcpy(bytes.data() + bad, "NOPE", 4);
  send_all(fd, bytes);

  std::vector<unsigned char> storage;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    const Frame frame = read_frame(fd, storage);
    ASSERT_EQ(frame.type, FrameType::kScoreResult) << "answer " << i;
    EXPECT_EQ(frame.result.request_id, 50 + i);
    api::ScoreResult got;
    serve::wire::unpack_result(frame.result, got);
    expect_rows_identical(got, want, i, 1, "request " + std::to_string(i));
  }
  const Frame frame = read_frame(fd, storage);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.code, ErrorCode::kBadMagic);
  unsigned char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

// A client that writes its requests and then half-closes (FIN) still
// gets every answer, then an orderly close.
TEST_F(WireSocketTest, RequestsBeforePeerShutdownAreAnswered) {
  const Matrix& x = test::small_dvfs().test.X;
  constexpr std::uint32_t kRequests = 12;
  constexpr std::size_t kRows = 2;
  ASSERT_GE(x.rows(), kRequests * kRows);
  const api::ScoreResult want = direct_score(x, api::kEstimateOutputs);
  const int fd = connect_client();
  std::vector<unsigned char> bytes;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    serve::wire::append_request(bytes, 70 + i, "m", api::kEstimateOutputs,
                                std::nullopt, x.row_ptr(i * kRows), kRows,
                                x.cols());
  }
  send_all(fd, bytes);
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  std::vector<unsigned char> storage;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    const Frame frame = read_frame(fd, storage);
    ASSERT_EQ(frame.type, FrameType::kScoreResult) << "answer " << i;
    EXPECT_EQ(frame.result.request_id, 70 + i);
    api::ScoreResult got;
    serve::wire::unpack_result(frame.result, got);
    expect_rows_identical(got, want, i * kRows, kRows,
                          "request " + std::to_string(i));
  }
  unsigned char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

// Once a connection is closing it reads nothing more, so a peer that
// keeps writing after a fatal frame cannot grow the server's input
// buffer: its sends block once the socket buffers fill. The client
// pipelines ~12 MB of answers without reading (several times the
// default 4 MB tcp_wmem cap on the server's send buffer), so the answers
// back up in the server; then a bad-magic header; then junk.
TEST_F(WireSocketTest, ClosingConnectionReadsNothingMore) {
  const Matrix& x = test::small_dvfs().test.X;
  constexpr std::size_t kRows = 64;
  Matrix tile(kRows, x.cols());
  for (std::size_t r = 0; r < kRows; ++r) {
    std::memcpy(tile.row_ptr(r), x.row_ptr(r % x.rows()),
                x.cols() * sizeof(double));
  }
  std::vector<unsigned char> answer;
  serve::wire::append_result(answer, 0, api::kEstimateOutputs,
                             filled_result(kRows), 0, kRows,
                             core::Accuracy::kExact);
  const std::size_t requests = (12u << 20) / answer.size() + 1;

  const int fd = connect_client(16 << 10);
  std::vector<unsigned char> bytes;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::wire::append_request(bytes, static_cast<std::uint32_t>(i), "m",
                                api::kEstimateOutputs, std::nullopt,
                                tile.row_ptr(0), kRows, x.cols());
  }
  const std::size_t bad = bytes.size();
  bytes.resize(bad + serve::wire::kHeaderBytes, 0);
  std::memcpy(bytes.data() + bad, "NOPE", 4);
  send_all(fd, bytes);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::vector<unsigned char> junk(64u << 10, 0xAB);
  constexpr std::size_t kLimit = 64u << 20;
  std::size_t written = 0;
  bool blocked = false;
  while (written < kLimit) {
    const ssize_t n = ::send(fd, junk.data(), junk.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "send failed: " << std::strerror(errno);
    // Blocked for good only if no buffer space frees up within 1 s.
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 1000) == 0) {
      blocked = true;
      break;
    }
  }
  EXPECT_TRUE(blocked) << "the server read " << written
                       << " junk bytes after the fatal frame";
  ::close(fd);

  // The server keeps serving other connections.
  const int fresh = connect_client();
  bytes.clear();
  serve::wire::append_request(bytes, 9, "m", api::kDetectionOutputs,
                              std::nullopt, x.row_ptr(0), 1, x.cols());
  send_all(fresh, bytes);
  std::vector<unsigned char> storage;
  const Frame frame = read_frame(fresh, storage);
  ASSERT_EQ(frame.type, FrameType::kScoreResult);
  EXPECT_EQ(frame.result.request_id, 9u);
  ::close(fresh);
}

}  // namespace
}  // namespace hmd
