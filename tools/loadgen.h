#pragma once
// Wire-protocol load generator behind tools/hmd_client: N concurrent
// connections driven open-loop (paced request rate) or closed-loop
// (fixed pipeline depth per connection), request rows cycled
// deterministically from a source matrix, per-request latency sampled,
// and — when `expected` is set — every response byte checked against a
// precomputed direct score() of the same rows (bit-parity: valid because
// per-row results are independent of batching, see the contract in
// serve/wire.h).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/score.h"
#include "common/matrix.h"
#include "core/uncertainty.h"

namespace hmd::serve {

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string model_key;
  api::OutputMask outputs = api::kDetectionOutputs;
  std::optional<core::UncertaintyMode> mode;
  /// Serving tier stamped on every request (wire header byte 6). The
  /// server must echo it on each result or the run fails verification.
  core::Accuracy accuracy = core::Accuracy::kExact;

  /// Rows are taken from here in contiguous chunks, wrapping to row 0
  /// when a chunk would run off the end. Must outlive run_load().
  const Matrix* source = nullptr;
  std::size_t rows_per_request = 8;

  int connections = 1;
  /// Closed loop: outstanding requests per connection.
  int pipeline = 1;
  /// Open loop: total target request rate across all connections; 0
  /// selects closed-loop mode.
  double open_loop_rps = 0.0;
  std::uint64_t total_requests = 1000;

  /// Full-source direct *exact-tier* score() under the same
  /// outputs/mode; responses are compared against the matching row
  /// slices. Exact-tier runs compare bit-for-bit. Fast-tier runs keep
  /// integer columns bitwise but allow double columns the vmath
  /// kernels' ULP band against the exact oracle (tolerance constants in
  /// loadgen.cpp) — the end-to-end check of the accuracy contract in
  /// api/score.h.
  const api::ScoreResult* expected = nullptr;
};

struct LoadGenReport {
  std::uint64_t requests_sent = 0;
  std::uint64_t results_ok = 0;
  std::uint64_t wire_errors = 0;  ///< error frames received
  std::uint64_t rows = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double rows_per_sec = 0.0;
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double max_us = 0.0, mean_us = 0.0;
  bool parity_ok = true;       ///< vacuously true without `expected`
  std::string parity_detail;   ///< first mismatch, for the report
  std::string last_error;      ///< detail of the last error frame
};

/// Drive the configured load to completion and report. Throws IoError on
/// connect failure or a mid-run protocol breakdown (malformed server
/// frame, unexpected close, stall).
LoadGenReport run_load(const LoadGenOptions& options);

}  // namespace hmd::serve
