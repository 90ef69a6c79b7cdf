#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hmd::serve {

namespace {

IoError errno_error(const std::string& what) {
  return IoError("serve: " + what + ": " + std::strerror(errno));
}

}  // namespace

ScoreServer::ScoreServer(api::DetectorRegistry& registry,
                         ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      batcher_(
          registry_, options_.batcher,
          [this](const BatchItem& item, const api::ScoreResult& result) {
            auto it = conns_.find(item.conn_id);
            if (it == conns_.end() || it->second->dead) return;
            Connection& c = *it->second;
            wire::append_result(c.out, item.request_id, item.outputs,
                                result, item.row_begin, item.rows,
                                item.accuracy);
            ++stats_.results_out;
            --c.in_flight;
            c.dirty = true;
          },
          [this](const BatchItem& item, wire::ErrorCode code,
                 const std::string& detail) {
            auto it = conns_.find(item.conn_id);
            if (it == conns_.end() || it->second->dead) return;
            Connection& c = *it->second;
            wire::append_error(c.out, item.request_id, code, detail);
            ++stats_.errors_out;
            --c.in_flight;
            c.dirty = true;
          }) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw errno_error("socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("serve: not an IPv4 listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const IoError err = errno_error("cannot listen on " + options_.host +
                                    ":" + std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw err;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    const IoError err = errno_error("getsockname failed");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw err;
  }
  port_ = ntohs(addr.sin_port);

  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    const IoError err = errno_error("eventfd failed");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw err;
  }
}

ScoreServer::~ScoreServer() {
  for (auto& [id, conn] : conns_) {
    if (!conn->dead) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void ScoreServer::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r =
      ::write(stop_fd_, &one, sizeof(one));  // async-signal-safe wakeup
}

void ScoreServer::on_refresh_tick() {
  const std::vector<std::string> reloaded = registry_.refresh();
  ++stats_.refreshes;
  stats_.models_reloaded += reloaded.size();
  if (refresh_hook_) refresh_hook_(reloaded);
}

void ScoreServer::run() {
  loop_.add(listen_fd_, EPOLLIN, [this](std::uint32_t) { handle_accept(); });
  loop_.add(stop_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t drain = 0;
    [[maybe_unused]] const ssize_t r =
        ::read(stop_fd_, &drain, sizeof(drain));
  });
  if (options_.refresh_ms > 0) {
    loop_.add_timer_ms(options_.refresh_ms, [this] { on_refresh_tick(); });
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    // With work pending, only slurp what is already readable (timeout 0):
    // an empty wave means the sockets went idle and the batches should go
    // out now rather than wait out the deadline.
    const int timeout_ms = batcher_.pending_rows() > 0 ? 0 : -1;
    const int dispatched = loop_.poll_once(timeout_ms);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (dispatched == 0 && batcher_.pending_rows() > 0) {
      batcher_.flush_all();
    }
    batcher_.flush_due(MicroBatcher::Clock::now());
    send_dirty_and_reap();
  }
  batcher_.flush_all();  // answer whatever is still queued before exit
  send_dirty_and_reap();
  loop_.remove(listen_fd_);
  loop_.remove(stop_fd_);
}

void ScoreServer::send_dirty_and_reap() {
  // The wave's one send per connection: every answer the wave appended
  // leaves in one send(); a connection closed mid-dispatch, or closed by
  // this send, is reaped here.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = *it->second;
    if (c.dirty) {
      c.dirty = false;
      flush_out(c);
    }
    if (c.dead) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ScoreServer::handle_accept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays registered
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->events = EPOLLIN;
    conns_[conn->id] = conn;
    ++stats_.connections_accepted;
    const std::uint64_t id = conn->id;
    loop_.add(fd, conn->events,
              [this, id](std::uint32_t events) { handle_conn(id, events); });
  }
}

void ScoreServer::handle_conn(std::uint64_t id, std::uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const std::shared_ptr<Connection> conn = it->second;  // keep alive
  if (conn->dead) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(*conn);
    return;
  }
  if ((events & EPOLLIN) && !conn->closing) {
    read_conn(*conn);
    if (conn->dead) return;
  }
  if (events & EPOLLOUT) flush_out(*conn);
}

void ScoreServer::read_conn(Connection& c) {
  // At most kReadBudget bytes per wave; epoll is level-triggered, so the
  // rest is reported next wave. A peer writing as fast as the loop reads
  // cannot keep it here, and a fatal frame is parsed (and reading
  // stopped) before more than the budget piles up behind it.
  constexpr std::size_t kReadBudget = 1u << 20;
  unsigned char buf[64 * 1024];
  std::size_t got = 0;
  bool peer_done = false;
  while (got < kReadBudget) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {  // orderly EOF: answer what came before it, then close
      peer_done = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(c);
    return;
  }
  if (got > 0) parse_frames(c);
  if (peer_done) {
    c.closing = true;
    c.dirty = true;
  }
}

void ScoreServer::parse_frames(Connection& c) {
  c.dirty = true;
  while (!c.closing) {
    const unsigned char* p = c.in.data() + c.parsed;
    const std::size_t avail = c.in.size() - c.parsed;
    wire::Frame frame;
    std::size_t consumed = 0;
    try {
      consumed = wire::parse_frame(p, avail, options_.max_frame_bytes,
                                   frame);
    } catch (const wire::WireError& e) {
      if (e.fatal()) {
        // Stream poisoned: answer the requests queued before the bad
        // frame, then this error, then close.
        wire::append_error(c.farewell, e.request_id(), e.code(), e.detail());
        ++stats_.errors_out;
        c.closing = true;
        break;
      }
      wire::append_error(c.out, e.request_id(), e.code(), e.detail());
      ++stats_.errors_out;
      // Survivable: the declared frame is fully buffered — skip it.
      std::uint32_t payload = 0;
      std::memcpy(&payload, p + 12, sizeof(payload));
      c.parsed += wire::kHeaderBytes + payload;
      continue;
    }
    if (consumed == 0) break;  // incomplete frame: wait for more bytes
    c.parsed += consumed;
    if (frame.type == wire::FrameType::kScoreRequest) {
      on_request(c, frame.request);
    } else {
      // Clients must not send result/error frames upstream.
      wire::append_error(c.out, frame.type == wire::FrameType::kScoreResult
                                    ? frame.result.request_id
                                    : frame.error.request_id,
                         wire::ErrorCode::kBadFrameType,
                         "unexpected server-to-client frame type");
      ++stats_.errors_out;
    }
  }
  // Compact the consumed prefix; cheap when the buffer drained fully.
  if (c.parsed == c.in.size()) {
    c.in.clear();
    c.parsed = 0;
  } else if (c.parsed >= (1u << 20)) {
    c.in.erase(c.in.begin(),
               c.in.begin() + static_cast<std::ptrdiff_t>(c.parsed));
    c.parsed = 0;
  }
}

void ScoreServer::on_request(Connection& c, const wire::RequestView& req) {
  ++stats_.requests_in;
  if (req.accuracy == core::Accuracy::kFast) {
    ++stats_.requests_fast;
  } else {
    ++stats_.requests_exact;
  }
  ++c.in_flight;
  // May flush, appending answers for this and other connections; they
  // are sent at the end of the wave.
  batcher_.enqueue(c.id, req.request_id, req.model_key, req.outputs,
                   req.mode, req.features, req.rows, req.cols,
                   req.accuracy);
}

void ScoreServer::flush_out(Connection& c) {
  if (c.dead) return;
  const bool last_answer_queued = c.closing && c.in_flight == 0;
  if (last_answer_queued && !c.farewell.empty()) {
    c.out.insert(c.out.end(), c.farewell.begin(), c.farewell.end());
    c.farewell.clear();
  }
  while (c.out_sent < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_sent, c.out.size() - c.out_sent,
               MSG_NOSIGNAL);
    if (n > 0) {
      c.out_sent += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      ++stats_.sends;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (c.out.size() - c.out_sent > options_.max_write_backlog) {
        close_conn(c);  // slow reader: drop rather than buffer unbounded
        return;
      }
      c.want_write = true;
      watch(c);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(c);
    return;
  }
  c.out.clear();
  c.out_sent = 0;
  if (last_answer_queued) {
    close_conn(c);
    return;
  }
  c.want_write = false;
  watch(c);
}

void ScoreServer::watch(Connection& c) {
  // A closing connection reads nothing more (its input is finished or
  // poisoned), so its buffered input stays bounded by the socket's.
  const std::uint32_t events = (c.closing ? 0u : std::uint32_t{EPOLLIN}) |
                               (c.want_write ? std::uint32_t{EPOLLOUT} : 0u);
  if (events == c.events) return;
  c.events = events;
  loop_.modify(c.fd, events);
}

void ScoreServer::close_conn(Connection& c) {
  if (c.dead) return;
  c.dead = true;
  loop_.remove(c.fd);
  ::close(c.fd);
  ++stats_.connections_closed;
  // The map entry is reaped in run(); batcher items still pointing at
  // this id resolve to a dead connection and are dropped by the sinks.
}

}  // namespace hmd::serve
