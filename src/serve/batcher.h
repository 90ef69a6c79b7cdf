#pragma once
// The adaptive micro-batcher: coalesces small client requests into
// engine-sized tiles. The engines' batch kernels hit 12M+ items/s on
// 256-row tiles but a socket client sends a handful of rows per frame —
// scoring those one frame at a time pays the full score() dispatch,
// result shaping, and per-batch engine setup per handful. The batcher
// gathers rows from many connections into one Matrix per (model, mode,
// accuracy) queue, runs one score(), and scatters each client's rows back
// out of the coalesced SoA ScoreResult.
//
// Flush triggers (any of):
//   - rows: a queue reaching max_batch_rows flushes inside enqueue();
//   - deadline: a queue's oldest request older than max_delay_us —
//     flush_due(now) (the server times its epoll wait to next_deadline());
//   - idle: the server saw no ready sockets, so nothing more is coming —
//     flush_all(). Under light load this path flushes every request
//     immediately after its socket drains: batch-1 latency when there is
//     nothing to coalesce, bigger tiles as concurrency rises, with
//     max_delay_us bounding the wait either way.
//
// Queues are keyed by (model key, uncertainty mode, accuracy tier):
// kOutScore/kOutTrusted depend on the mode, and the two accuracy tiers
// (api/score.h) carry different numeric contracts, so requests differing
// in either never share a score() call — coalescing an exact request
// into a fast batch would silently break its bit-parity guarantee.
// Differing OutputMasks within a queue are merged by union — safe
// because the mask contract (api/score.h) makes every selected column
// bit-identical for any mask. Per-model queues are the
// isolation boundary: a cold or broken model stalls or fails only its own
// queue's requests (errors are delivered per request through the error
// sink), never another model's.
//
// Correctness of scatter/gather rests on per-row determinism: a row's
// scores do not depend on its batch-mates (asserted across thread widths
// by the determinism suite), so a response sliced out of a coalesced
// batch is bit-identical to a direct score() on the request's rows —
// asserted per mask by tests/test_batcher.cpp and end-to-end by
// `hmd_client --verify` in tests/serve_socket_smoke.sh.
//
// Single-threaded, like the event loop that drives it. Completion sinks
// run synchronously inside enqueue()/flush_*(). Each queue's row buffer,
// item list, and ScoreResult are reused across flushes, but a flush is
// not allocation-free: encoding its answers through wire::append_result
// makes 3 heap allocations per batch, on top of score()'s own (ROADMAP
// item 8).

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "serve/wire.h"

namespace hmd::serve {

struct BatcherOptions {
  /// Flush a queue once it holds this many rows. 256 matches the engines'
  /// internal tile (FlatForestEngine::kTileRows); 1 disables coalescing
  /// entirely (every request is scored as its own batch).
  std::size_t max_batch_rows = 256;
  /// Upper bound on how long a queued request may wait for batch-mates.
  std::int64_t max_delay_us = 200;
};

/// One client request inside a batch: which connection/request to answer,
/// which rows of the coalesced batch are its, under which mask.
struct BatchItem {
  std::uint64_t conn_id = 0;
  std::uint32_t request_id = 0;
  api::OutputMask outputs = 0;
  /// Tier the item's queue scores under (echoed in the result frame).
  core::Accuracy accuracy = core::Accuracy::kExact;
  std::size_t row_begin = 0;
  std::uint32_t rows = 0;
};

struct BatcherStats {
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;  ///< score() calls issued
  std::uint64_t flushed_rows_cap = 0;
  std::uint64_t flushed_deadline = 0;
  std::uint64_t flushed_idle = 0;
  std::uint64_t errors = 0;  ///< requests answered through the error sink
  std::uint64_t max_batch_rows_seen = 0;
};

class MicroBatcher {
 public:
  using Clock = std::chrono::steady_clock;
  /// Called once per request of a flushed batch. `result` holds the whole
  /// coalesced batch; the receiver scatters rows [item.row_begin,
  /// item.row_begin + item.rows) under item.outputs (wire::append_result
  /// does exactly this slice).
  using ResultSink =
      std::function<void(const BatchItem&, const api::ScoreResult& result)>;
  /// Called once per request that cannot be scored (unknown model, load
  /// failure, shape conflict).
  using ErrorSink = std::function<void(
      const BatchItem&, wire::ErrorCode code, const std::string& detail)>;

  MicroBatcher(api::DetectorRegistry& registry, BatcherOptions options,
               ResultSink on_result, ErrorSink on_error);

  /// Queue one request's rows (copied out of the frame buffer; the caller
  /// may release it on return). May flush — and thus invoke sinks —
  /// before returning, when the queue reaches max_batch_rows. Unknown
  /// keys and intra-queue shape conflicts are answered through the error
  /// sink immediately, without poisoning the queue.
  void enqueue(std::uint64_t conn_id, std::uint32_t request_id,
               std::string_view model_key, api::OutputMask outputs,
               std::optional<core::UncertaintyMode> mode,
               const unsigned char* features_le, std::uint32_t rows,
               std::uint32_t cols,
               core::Accuracy accuracy = core::Accuracy::kExact);

  /// Earliest (oldest enqueue + max_delay_us) over non-empty queues; the
  /// server sleeps no longer than this.
  std::optional<Clock::time_point> next_deadline() const;

  /// Flush every queue whose deadline has passed.
  void flush_due(Clock::time_point now);

  /// Flush everything (the idle-socket trigger, and shutdown drain).
  void flush_all();

  std::size_t pending_rows() const { return pending_rows_; }
  const BatcherStats& stats() const { return stats_; }

 private:
  enum class FlushWhy { kRowsCap, kDeadline, kIdle };

  struct Queue {
    std::string model_key;
    std::optional<core::UncertaintyMode> mode;
    core::Accuracy accuracy = core::Accuracy::kExact;
    std::size_t cols = 0;  ///< fixed by the first request while non-empty
    std::vector<double> rows_data;  ///< row-major gather buffer, reused
    std::vector<BatchItem> items;
    Clock::time_point oldest{};
    api::ScoreResult result;  ///< reused scratch for this queue's flushes
  };
  /// int key: mode value, -1 for "model's configured mode". The trailing
  /// int is the accuracy tier — tiers never coalesce.
  using QueueKey = std::tuple<std::string, int, int>;

  void flush_queue(Queue& q, FlushWhy why);
  void fail_queue(Queue& q, wire::ErrorCode code, const std::string& detail);

  api::DetectorRegistry& registry_;
  BatcherOptions options_;
  ResultSink on_result_;
  ErrorSink on_error_;
  std::map<QueueKey, Queue> queues_;
  std::size_t pending_rows_ = 0;
  BatcherStats stats_;
};

}  // namespace hmd::serve
