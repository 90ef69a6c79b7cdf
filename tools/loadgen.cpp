#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "common/error.h"
#include "serve/wire.h"

namespace hmd::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct Outstanding {
  Clock::time_point sent_at;
  std::size_t row_start = 0;
  std::uint32_t rows = 0;
};

struct ClientConn {
  int fd = -1;
  std::vector<unsigned char> out;
  std::size_t out_sent = 0;
  std::vector<unsigned char> in;
  std::size_t parsed = 0;
  std::map<std::uint32_t, Outstanding> outstanding;
  std::uint32_t next_request_id = 1;
  std::uint64_t quota = 0;  ///< requests this connection must send
  std::uint64_t sent = 0;
  Clock::time_point next_due;  ///< open loop: earliest next send
};

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw IoError(std::string("loadgen: socket failed: ") +
                  std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw IoError("loadgen: not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw IoError("loadgen: cannot connect to " + host + ":" +
                  std::to_string(port) + ": " + detail);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Compare one response column slice against the expected full-matrix
/// column, bitwise (memcmp — NaN-safe, exactness is the contract).
template <typename T>
bool slice_matches(const std::vector<T>& got, const std::vector<T>& want,
                   std::size_t row_start, std::size_t rows) {
  if (got.size() != rows || want.size() < row_start + rows) return false;
  return std::memcmp(got.data(), want.data() + row_start,
                     rows * sizeof(T)) == 0;
}

// Fast-tier tolerance against the exact oracle. Each transcendental in
// the fast path is within 2 ULP (simd/vmath.h); a column value composes
// at most a couple of them plus exact arithmetic, so a small ULP budget
// covers it. The absolute floor covers mutual information, where the
// subtraction h(p̄) − H̄ can cancel: the absolute error stays at the
// operands' ULP scale (~1e-16 for entropies in [0, 1]) even when the
// tiny difference makes the *relative* error unbounded.
constexpr std::uint64_t kFastVerifyUlps = 8;
constexpr double kFastVerifyAbs = 1e-12;

/// Monotone bit-rank of a double: total order matching <, so ULP
/// distance is rank subtraction (works across ±0 and denormals).
std::uint64_t value_rank(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
}

bool value_close(double got, double want) {
  std::uint64_t gb, wb;
  std::memcpy(&gb, &got, sizeof(gb));
  std::memcpy(&wb, &want, sizeof(wb));
  if (gb == wb) return true;  // covers NaN == NaN bitwise, ±inf, -0.0
  if (std::abs(got - want) <= kFastVerifyAbs) return true;
  const std::uint64_t gr = value_rank(got);
  const std::uint64_t wr = value_rank(want);
  return (gr > wr ? gr - wr : wr - gr) <= kFastVerifyUlps;
}

bool slice_close(const std::vector<double>& got,
                 const std::vector<double>& want, std::size_t row_start,
                 std::size_t rows) {
  if (got.size() != rows || want.size() < row_start + rows) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!value_close(got[r], want[row_start + r])) return false;
  }
  return true;
}

bool verify_response(const api::ScoreResult& got,
                     const api::ScoreResult& want, api::OutputMask outputs,
                     core::Accuracy accuracy, std::size_t row_start,
                     std::size_t rows, std::string& detail) {
  using namespace api;
  // Double columns: bitwise on the exact tier, bounded-ULP on the fast
  // tier (the oracle is always exact-tier). Integer columns are bitwise
  // on both.
  const bool fast = accuracy == core::Accuracy::kFast;
  const auto dslice = [&](const std::vector<double>& g,
                          const std::vector<double>& w) {
    return fast ? slice_close(g, w, row_start, rows)
                : slice_matches(g, w, row_start, rows);
  };
  const auto check = [&](const char* name, auto ok) {
    if (!ok) detail = std::string("column ") + name + " differs";
    return static_cast<bool>(ok);
  };
  if (outputs & kOutPrediction &&
      !check("prediction",
             slice_matches(got.prediction, want.prediction, row_start, rows)))
    return false;
  if (outputs & kOutConfidence &&
      !check("confidence", dslice(got.confidence, want.confidence)))
    return false;
  if (outputs & kOutVotes &&
      !check("votes", slice_matches(got.votes, want.votes, row_start, rows)))
    return false;
  if (outputs & kOutVoteEntropy &&
      !check("vote_entropy", dslice(got.vote_entropy, want.vote_entropy)))
    return false;
  if (outputs & kOutSoftEntropy &&
      !check("soft_entropy", dslice(got.soft_entropy, want.soft_entropy)))
    return false;
  if (outputs & kOutExpectedEntropy &&
      !check("expected_entropy",
             dslice(got.expected_entropy, want.expected_entropy)))
    return false;
  if (outputs & kOutMutualInformation &&
      !check("mutual_information",
             dslice(got.mutual_information, want.mutual_information)))
    return false;
  if (outputs & kOutVariationRatio &&
      !check("variation_ratio",
             dslice(got.variation_ratio, want.variation_ratio)))
    return false;
  if (outputs & kOutMaxProbability &&
      !check("max_probability",
             dslice(got.max_probability, want.max_probability)))
    return false;
  if (outputs & kOutScore && !check("score", dslice(got.score, want.score)))
    return false;
  if (outputs & kOutTrusted &&
      !check("trusted",
             slice_matches(got.trusted, want.trusted, row_start, rows)))
    return false;
  return true;
}

}  // namespace

LoadGenReport run_load(const LoadGenOptions& options) {
  HMD_REQUIRE(options.source != nullptr, "loadgen: source matrix required");
  HMD_REQUIRE(options.connections >= 1, "loadgen: connections must be >= 1");
  HMD_REQUIRE(options.pipeline >= 1, "loadgen: pipeline must be >= 1");
  HMD_REQUIRE(options.rows_per_request >= 1 &&
                  options.rows_per_request <= options.source->rows(),
              "loadgen: rows_per_request must fit the source matrix");
  HMD_REQUIRE(options.total_requests >= 1, "loadgen: nothing to send");

  const Matrix& source = *options.source;
  const std::size_t cols = source.cols();
  const std::size_t req_rows = options.rows_per_request;

  std::vector<ClientConn> conns(
      static_cast<std::size_t>(options.connections));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = connect_to(options.host, options.port);
    conns[i].quota = options.total_requests /
                     static_cast<std::uint64_t>(conns.size());
    if (i < options.total_requests % conns.size()) ++conns[i].quota;
  }

  const bool open_loop = options.open_loop_rps > 0.0;
  const auto send_interval =
      open_loop ? std::chrono::nanoseconds(static_cast<std::int64_t>(
                      1e9 * static_cast<double>(conns.size()) /
                      options.open_loop_rps))
                : std::chrono::nanoseconds(0);

  LoadGenReport report;
  std::vector<double> latencies_us;
  latencies_us.reserve(options.total_requests);
  api::ScoreResult scratch;
  std::size_t row_cursor = 0;

  const auto start = Clock::now();
  if (open_loop) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // Stagger first sends so connections do not phase-lock.
      conns[i].next_due = start + send_interval * static_cast<int>(i) /
                                      static_cast<int>(conns.size());
    }
  }

  const auto enqueue_request = [&](ClientConn& c, Clock::time_point now) {
    if (row_cursor + req_rows > source.rows()) row_cursor = 0;
    const std::size_t row_start = row_cursor;
    row_cursor += req_rows;
    const std::uint32_t id = c.next_request_id++;
    wire::append_request(c.out, id, options.model_key, options.outputs,
                         options.mode, source.row_ptr(row_start), req_rows,
                         cols, options.accuracy);
    c.outstanding[id] =
        Outstanding{now, row_start, static_cast<std::uint32_t>(req_rows)};
    ++c.sent;
    ++report.requests_sent;
    if (open_loop) c.next_due += send_interval;
  };

  const auto want_send = [&](const ClientConn& c, Clock::time_point now) {
    if (c.sent >= c.quota) return false;
    if (open_loop) return now >= c.next_due;
    return c.outstanding.size() <
           static_cast<std::size_t>(options.pipeline);
  };

  const auto handle_frame = [&](ClientConn& c, const wire::Frame& frame) {
    const auto now = Clock::now();
    if (frame.type == wire::FrameType::kScoreResult) {
      const auto it = c.outstanding.find(frame.result.request_id);
      if (it == c.outstanding.end()) {
        throw IoError("loadgen: response to unknown request id " +
                      std::to_string(frame.result.request_id));
      }
      const Outstanding pending = it->second;
      c.outstanding.erase(it);
      if (frame.result.rows != pending.rows) {
        report.parity_ok = false;
        report.parity_detail = "response row count mismatch";
      }
      if (frame.result.accuracy != options.accuracy) {
        report.parity_ok = false;
        report.parity_detail =
            "server echoed accuracy tier " +
            std::to_string(static_cast<int>(frame.result.accuracy)) +
            ", requested " +
            std::to_string(static_cast<int>(options.accuracy));
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(now - pending.sent_at)
              .count());
      ++report.results_ok;
      report.rows += frame.result.rows;
      if (options.expected != nullptr && report.parity_ok) {
        wire::unpack_result(frame.result, scratch);
        std::string detail;
        if (!verify_response(scratch, *options.expected, options.outputs,
                             options.accuracy, pending.row_start,
                             pending.rows, detail)) {
          report.parity_ok = false;
          report.parity_detail =
              detail + " at rows [" + std::to_string(pending.row_start) +
              ", " + std::to_string(pending.row_start + pending.rows) + ")";
        }
      }
    } else if (frame.type == wire::FrameType::kError) {
      const auto it = c.outstanding.find(frame.error.request_id);
      if (it != c.outstanding.end()) c.outstanding.erase(it);
      ++report.wire_errors;
      report.last_error =
          std::string(wire::error_code_name(frame.error.code)) + ": " +
          std::string(frame.error.detail);
    } else {
      throw IoError("loadgen: server sent a request frame");
    }
  };

  const auto all_done = [&] {
    for (const ClientConn& c : conns) {
      if (c.sent < c.quota || !c.outstanding.empty()) return false;
    }
    return true;
  };

  std::vector<pollfd> fds(conns.size());
  auto last_progress = Clock::now();
  while (!all_done()) {
    const auto now = Clock::now();
    // Top up sends.
    for (ClientConn& c : conns) {
      while (want_send(c, now)) enqueue_request(c, now);
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (conns[i].out_sent < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    int timeout_ms = 100;  // progress watchdog granularity
    if (open_loop) {
      auto earliest = Clock::time_point::max();
      for (const ClientConn& c : conns) {
        if (c.sent < c.quota && c.next_due < earliest) {
          earliest = c.next_due;
        }
      }
      if (earliest != Clock::time_point::max()) {
        const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
            earliest - now);
        timeout_ms = std::clamp<int>(static_cast<int>(wait.count()), 0, 100);
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      throw IoError(std::string("loadgen: poll failed: ") +
                    std::strerror(errno));
    }

    bool progressed = false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      ClientConn& c = conns[i];
      if (c.out_sent < c.out.size()) {
        while (c.out_sent < c.out.size()) {
          const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                                   c.out.size() - c.out_sent, MSG_NOSIGNAL);
          if (n > 0) {
            c.out_sent += static_cast<std::size_t>(n);
            progressed = true;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          throw IoError("loadgen: send failed (server closed?)");
        }
        if (c.out_sent == c.out.size()) {
          c.out.clear();
          c.out_sent = 0;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        unsigned char buf[64 * 1024];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.insert(c.in.end(), buf, buf + n);
            progressed = true;
            continue;
          }
          if (n == 0) {
            throw IoError("loadgen: server closed the connection with " +
                          std::to_string(c.outstanding.size()) +
                          " request(s) outstanding" +
                          (report.last_error.empty()
                               ? std::string()
                               : " (last error frame: " + report.last_error +
                                     ")"));
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw IoError(std::string("loadgen: recv failed: ") +
                        std::strerror(errno));
        }
        while (true) {
          wire::Frame frame;
          const std::size_t consumed = wire::parse_frame(
              c.in.data() + c.parsed, c.in.size() - c.parsed,
              wire::kMaxPayloadBytes, frame);
          if (consumed == 0) break;
          c.parsed += consumed;
          handle_frame(c, frame);
          progressed = true;
        }
        if (c.parsed == c.in.size()) {
          c.in.clear();
          c.parsed = 0;
        }
      }
    }
    if (progressed) {
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress > std::chrono::seconds(30)) {
      throw IoError("loadgen: no progress for 30s (server stalled?)");
    }
  }
  const auto stop = Clock::now();

  for (ClientConn& c : conns) ::close(c.fd);

  report.seconds = std::chrono::duration<double>(stop - start).count();
  if (report.seconds > 0.0) {
    report.requests_per_sec =
        static_cast<double>(report.results_ok + report.wire_errors) /
        report.seconds;
    report.rows_per_sec =
        static_cast<double>(report.rows) / report.seconds;
  }
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    report.p50_us = percentile(latencies_us, 0.50);
    report.p90_us = percentile(latencies_us, 0.90);
    report.p99_us = percentile(latencies_us, 0.99);
    report.p999_us = percentile(latencies_us, 0.999);
    report.max_us = latencies_us.back();
    double sum = 0.0;
    for (const double v : latencies_us) sum += v;
    report.mean_us = sum / static_cast<double>(latencies_us.size());
  }
  return report;
}

}  // namespace hmd::serve
