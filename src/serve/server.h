#pragma once
// The socket serving front-end: a single-threaded epoll loop (IPv4 TCP)
// accepting HMDW wire-protocol connections (serve/wire.h), feeding
// requests through the adaptive micro-batcher (serve/batcher.h) into the
// DetectorRegistry + score() spine, and scattering results back per
// connection. Registry refresh() — the hot-swap poll — rides a timerfd
// inside the same loop, so artifact swaps land on wall-clock cadence
// regardless of traffic. A swap stalls the loop only for the artifact's
// map, verify and parse: a JIT-eligible forest compiles on the
// background JIT worker while its arena kernels already answer.
//
// run() owns the calling thread until request_stop(), which is safe from
// other threads and from signal handlers (an eventfd wakes the loop).
// Connections are plain blocking-free sockets with per-connection read
// and write buffers; a response that does not fit in the socket buffer
// turns on EPOLLOUT backpressure, and a connection whose unsent backlog
// exceeds max_write_backlog is dropped (slow reader).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/detector_registry.h"
#include "serve/batcher.h"
#include "serve/event_loop.h"
#include "serve/wire.h"

namespace hmd::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the real one via port()
  BatcherOptions batcher;
  /// Registry refresh() cadence in milliseconds; 0 disables the timer.
  int refresh_ms = 0;
  /// Per-frame payload cap (a declared length above this is fatal).
  std::size_t max_frame_bytes = 16u << 20;
  /// Unsent-response backlog that gets a connection dropped.
  std::size_t max_write_backlog = 64u << 20;
  int backlog = 128;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_in = 0;
  /// requests_in split by tier (header byte 6; old clients count exact).
  std::uint64_t requests_exact = 0;
  std::uint64_t requests_fast = 0;
  std::uint64_t results_out = 0;
  std::uint64_t errors_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t models_reloaded = 0;
};

class ScoreServer {
 public:
  /// Called after each timer-driven refresh() with the keys it reloaded
  /// (may be empty) — the host logs hot-swaps and health transitions.
  using RefreshHook = std::function<void(const std::vector<std::string>&)>;

  /// Binds and listens immediately (throws IoError on failure), but
  /// accepts no connections until run().
  ScoreServer(api::DetectorRegistry& registry, ServerOptions options);
  ~ScoreServer();
  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  std::uint16_t port() const { return port_; }

  void set_refresh_hook(RefreshHook hook) { refresh_hook_ = std::move(hook); }

  /// Serve until request_stop(). The adaptive flush policy: drain every
  /// ready socket, and when a zero-timeout poll reports nothing ready,
  /// flush all pending batches (idle trigger) — batch-1 latency when the
  /// server is idle, engine-sized tiles as concurrency rises, with the
  /// batcher's rows-cap and deadline triggers bounding batch size and
  /// wait inbetween.
  void run();

  /// Stop run() soon. Safe from any thread and from async signal
  /// handlers (atomic store + eventfd write only).
  void request_stop();

  const ServerStats& stats() const { return stats_; }
  const BatcherStats& batcher_stats() const { return batcher_.stats(); }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    bool dead = false;
    bool closing = false;  ///< fatal wire error: close once out drains
    bool want_write = false;
    std::vector<unsigned char> in;
    std::size_t parsed = 0;
    std::vector<unsigned char> out;
    std::size_t out_sent = 0;
  };

  void handle_accept();
  void handle_conn(std::uint64_t id, std::uint32_t events);
  void read_conn(Connection& c);
  void parse_frames(Connection& c);
  void on_request(Connection& c, const wire::RequestView& request);
  void flush_out(Connection& c);
  void close_conn(Connection& c);
  void on_refresh_tick();

  api::DetectorRegistry& registry_;
  ServerOptions options_;
  EventLoop loop_;
  MicroBatcher batcher_;
  RefreshHook refresh_hook_;
  int listen_fd_ = -1;
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::map<std::uint64_t, std::shared_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  ServerStats stats_;
};

}  // namespace hmd::serve
