#pragma once
// The `.hmdw` serving wire protocol and the micro-batcher contract — the
// byte-level agreement between tools/hmd_client (or any foreign client)
// and the socket front-end in serve/server.h.
//
// ## Frame layout
//
// Every message is one frame: a fixed 16-byte header followed by a typed
// payload. All integers and doubles are little-endian (the same framing
// discipline as the on-disk artefacts — common/binary_io.h static_asserts
// a little-endian host), packed with no padding and no alignment
// requirement: readers memcpy fields out of the byte stream.
//
//   offset  size  field
//        0     4  magic "HMDW"
//        4     1  protocol version (kProtocolVersion = 1)
//        5     1  frame type (FrameType: 1 request, 2 result, 3 error)
//        6     1  accuracy tier (core::Accuracy: 0 exact, 1 fast)
//        7     1  reserved, must be 0
//        8     4  request id (u32; results/errors echo the request's)
//       12     4  payload size in bytes (u32)
//       16     …  payload
//
// Byte 6 was reserved-must-be-0 before the accuracy tier existed, which
// is exactly what makes the extension compatible both ways: an old
// client's 0 *is* Accuracy::kExact, so it keeps receiving bit-identical
// responses from new servers, and a new client talking exact-tier frames
// is indistinguishable from an old one. On request frames the byte is
// the client's requested tier (values above 1 are a survivable
// kBadPayload — old servers reject a fast-tier request the same way, so
// a new client degrades loudly, not silently). On result frames it
// echoes the tier the server actually scored under. On error frames it
// is 0. See api/score.h for what the fast tier means numerically.
//
// ScoreRequest payload (client -> server):
//
//        0     4  OutputMask (api/score.h bits; must be a non-empty
//                 subset of kKnownOutputs)
//        4     4  uncertainty mode (core::UncertaintyMode value, or
//                 kModeUnset = 0xffffffff for the model's configured mode)
//        8     4  rows (u32, 1..kMaxRowsPerRequest)
//       12     4  cols (u32, 1..kMaxColsPerRequest; must equal the
//                 model's n_features() or the request is rejected)
//       16     2  model key length (u16, 1..kMaxKeyBytes)
//       18     …  model key (registry key, no NUL)
//        …     …  features: rows x cols f64, row-major
//
// ScoreResult payload (server -> client): the SoA ScoreResult columns the
// request selected, sliced to the request's rows and packed back to back
// in ascending OutputMask bit order — the scatter half of the batcher's
// scatter/gather (each client gets exactly its rows back out of the
// coalesced batch, bit-identical to a direct score() call on those rows):
//
//        0     4  OutputMask actually filled (== the request's)
//        4     4  rows
//        8     …  per selected bit, `rows` elements:
//                 prediction  i32    confidence        f64
//                 votes       i32    vote_entropy      f64
//                 soft_entropy f64   expected_entropy  f64
//                 mutual_information f64  variation_ratio f64
//                 max_probability f64     score         f64
//                 trusted     u8
//
// Error payload (server -> client):
//
//        0     4  ErrorCode (u32)
//        4     4  detail length (u32)
//        8     …  human-readable detail (no NUL)
//
// ## Error taxonomy and connection survival
//
// Errors echo the offending request id (0 when the header itself was
// unreadable). Two severities:
//
//  - *Fatal* (error_closes_connection() == true): bad magic, bad version,
//    or a declared payload over the server's frame cap. After any of
//    these the stream offset can no longer be trusted, so the server
//    sends the error frame and closes. kBadMagic on the first frame is
//    the "not speaking HMDW at all" rejection.
//  - *Survivable*: everything else — malformed payload geometry, unknown
//    mask bits / mode, unknown model key, feature width not matching the
//    model. The header was sound, so the frame boundary is known: the
//    server consumes the frame, answers with a typed error, and the
//    connection keeps serving subsequent requests (asserted by
//    tests/test_wire.cpp).
//
// Registry load failures map the LoadError taxonomy (common/error.h) into
// the kLoad* range via error_code_for(), so a client can distinguish "you
// named no such model" from "the artifact is quarantined with a checksum
// failure" without parsing strings.
//
// ## Batching semantics (the micro-batcher contract, serve/batcher.h)
//
// The server may coalesce frames from many connections into one engine
// batch. This is invisible in the results: the OutputMask contract
// (api/score.h) guarantees every selected column is bit-identical for
// any mask, and per-row results are independent of which rows share a
// batch (asserted across thread widths by the determinism suite), so a
// response is bit-identical to a direct score() on the request's rows no
// matter how it was batched. Requests for the same model but different
// uncertainty *modes* are never merged (kOutScore / kOutTrusted depend
// on the mode); masks within a queue are merged by union.
//
// Every answer (result or error frame) carries the request id of the
// frame it answers, and that id is the only reliable way to match them.
// Order is kept only among one connection's requests that share a
// (model, mode, accuracy) batcher queue. Requests for different queues —
// different keys on one pipelined connection, say — come back in flush
// order, and a request rejected before queueing (unknown key, bad shape)
// is answered at once, ahead of queued work. Ordering across connections
// is unspecified. tools/loadgen.cpp matches answers by id.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/score.h"
#include "common/error.h"
#include "core/uncertainty.h"

namespace hmd::serve::wire {

inline constexpr char kMagic[4] = {'H', 'M', 'D', 'W'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;

/// Sentinel for "score under the model's configured mode".
inline constexpr std::uint32_t kModeUnset = 0xffffffffu;

/// Every OutputMask bit this protocol version knows how to pack.
inline constexpr api::OutputMask kKnownOutputs =
    (api::kOutTrusted << 1) - 1;  // all 11 column bits

inline constexpr std::uint32_t kMaxRowsPerRequest = 1u << 20;
inline constexpr std::uint32_t kMaxColsPerRequest = 1u << 16;
inline constexpr std::uint32_t kMaxKeyBytes = 256;
/// Hard protocol bound on payload size; servers typically cap lower
/// (ServerOptions::max_frame_bytes).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kScoreRequest = 1,
  kScoreResult = 2,
  kError = 3,
};

enum class ErrorCode : std::uint32_t {
  kNone = 0,
  // Framing errors — the byte stream is poisoned, connection closes.
  kBadMagic = 1,
  kBadVersion = 2,
  kFrameTooLarge = 3,
  // Frame-level errors — boundary known, connection survives.
  kBadFrameType = 8,
  kBadPayload = 9,      ///< geometry/length mismatch inside the payload
  kMaskInvalid = 10,    ///< empty or unknown OutputMask bits
  kModeInvalid = 11,    ///< mode value outside UncertaintyMode
  kUnknownModel = 16,   ///< key not in the registry
  kShapeMismatch = 17,  ///< cols != model n_features(), or queue conflict
  // LoadError taxonomy mirror (common/error.h), offset by 100: the model
  // exists but its artifact could not be served.
  kLoadBadMagic = 100,
  kLoadBadVersion = 101,
  kLoadChecksum = 102,
  kLoadTruncated = 103,
  kLoadBadStructure = 104,
  kLoadIo = 105,
  kLoadMmapFailed = 106,
};

const char* error_code_name(ErrorCode code);

/// Map a load failure into its wire mirror.
ErrorCode error_code_for(LoadErrorCode code);

/// True when the error leaves the stream offset untrustworthy — the
/// sender emits the error frame and then closes the connection.
bool error_closes_connection(ErrorCode code);

/// A malformed frame, thrown by parse_frame(). Carries the wire error
/// code to answer with and the request id to echo (0 if unknown).
class WireError : public HmdError {
 public:
  WireError(ErrorCode code, std::uint32_t request_id, std::string detail)
      : HmdError("wire error [" + std::string(error_code_name(code)) +
                 "]: " + detail),
        code_(code),
        request_id_(request_id),
        detail_(std::move(detail)) {}

  ErrorCode code() const { return code_; }
  std::uint32_t request_id() const { return request_id_; }
  const std::string& detail() const { return detail_; }
  bool fatal() const { return error_closes_connection(code_); }

 private:
  ErrorCode code_;
  std::uint32_t request_id_;
  std::string detail_;
};

/// Parsed request frame. Views point into the parse buffer and are valid
/// only until it is mutated or compacted.
struct RequestView {
  std::uint32_t request_id = 0;
  std::string_view model_key;
  api::OutputMask outputs = 0;
  std::optional<core::UncertaintyMode> mode;
  /// Requested serving tier (header byte 6; 0 from old clients = exact).
  core::Accuracy accuracy = core::Accuracy::kExact;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  /// rows*cols little-endian f64, row-major, unaligned.
  const unsigned char* features = nullptr;
};

/// Parsed result frame (client side). `columns` is the packed column
/// block documented above.
struct ResultView {
  std::uint32_t request_id = 0;
  api::OutputMask outputs = 0;
  /// Tier the server actually scored under (echoed in header byte 6).
  core::Accuracy accuracy = core::Accuracy::kExact;
  std::uint32_t rows = 0;
  const unsigned char* columns = nullptr;
};

struct ErrorView {
  std::uint32_t request_id = 0;
  ErrorCode code = ErrorCode::kNone;
  std::string_view detail;
};

struct Frame {
  FrameType type = FrameType::kScoreRequest;
  RequestView request;
  ResultView result;
  ErrorView error;
};

/// Parse one frame from data[0..size). Returns the frame's total byte
/// length (header + payload) and fills `out`; returns 0 when more bytes
/// are needed. Throws WireError on malformed input — fatal() tells the
/// caller whether the stream can continue (for survivable errors the
/// declared frame length at bytes [12,16) is valid and the whole frame
/// is present, so the caller can skip it).
std::size_t parse_frame(const unsigned char* data, std::size_t size,
                        std::size_t max_payload, Frame& out);

/// Byte size of a packed result payload for `outputs` over `rows`.
std::size_t result_payload_bytes(api::OutputMask outputs, std::size_t rows);

// Encoders append one complete frame to `out` (which may already hold
// queued frames — the server's per-connection write buffer).

void append_request(std::vector<unsigned char>& out, std::uint32_t request_id,
                    std::string_view model_key, api::OutputMask outputs,
                    std::optional<core::UncertaintyMode> mode,
                    const double* features, std::size_t rows,
                    std::size_t cols,
                    core::Accuracy accuracy = core::Accuracy::kExact);

/// Pack rows [row_offset, row_offset + rows) of `result`'s selected
/// columns — the scatter step: `result` may be a coalesced multi-client
/// batch, and this slices one client's rows back out of it. `accuracy`
/// is the tier the rows were scored under, echoed in header byte 6.
void append_result(std::vector<unsigned char>& out, std::uint32_t request_id,
                   api::OutputMask outputs, const api::ScoreResult& result,
                   std::size_t row_offset, std::size_t rows,
                   core::Accuracy accuracy = core::Accuracy::kExact);

void append_error(std::vector<unsigned char>& out, std::uint32_t request_id,
                  ErrorCode code, std::string_view detail);

/// Unpack a result frame into a ScoreResult (shape() + column memcpy) —
/// the client-side mirror of append_result with row_offset 0.
void unpack_result(const ResultView& view, api::ScoreResult& out);

}  // namespace hmd::serve::wire
