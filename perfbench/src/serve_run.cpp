// The untraced end-to-end run: spawn `hmd_serve --listen` on the
// workload's fixtures, measure cold starts, then drive a closed-loop
// saturation phase and an open-loop fixed-rate phase over real sockets,
// verifying every response against a direct score() oracle of the
// artifact version in force. Prints one JSON object of raw measurements
// (the server's own summary lines included) for run.py to reduce.

#include "serve_run.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "jit/jit.h"
#include "serve/wire.h"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace wire = serve::wire;

// A failed request counts as exceeding every latency limit.
constexpr double kFailedLatencyUs = 1e12;
// A request unanswered this long is a timeout (and a failed run).
constexpr std::int64_t kTimeoutNs = 10'000'000'000ll;
// Share of --seconds given to the closed loop; the open loop has the
// rest. Throughput follows the host's slowdowns, which come and go over
// seconds, so it gets the longer share.
constexpr double kClosedShare = 2.0 / 3.0;
// Untimed closed-loop warm-up before the measured phases.
constexpr std::int64_t kWarmupNs = 2'000'000'000ll;
// Probes for a republished key are spaced at least this far apart. They
// are counted in the swap phase, never in the closed- or open-loop
// figures.
constexpr std::int64_t kProbeGapNs = 100'000;
// The stall canary sleeps to deadlines this far apart ...
constexpr std::int64_t kCanaryPeriodNs = 100'000;
// ... and a wake-up later than this past its deadline is a host stall.
// Its usual lateness on a 4-vCPU KVM guest is ~60 us (p999 ~190 us).
constexpr std::int64_t kStallNs = 300'000;
// The open-loop p50 is a median over windows of this length: the host's
// speed drifts within a run, and a window holds >= 100 samples.
constexpr std::int64_t kLatencyWindowNs = 250'000'000;

// ---------------------------------------------------------------------------
// Placement. The server and the client's main thread each get a CPU of
// their own; the client's helper threads (output reader, stall canary)
// share the rest. Left to the scheduler, the server moves across all the
// CPUs within a run, and the busy client and the server can meet on one
// (wake-affine placement of a loopback ping-pong, or a load balance
// around the sleeping helpers); each then runs at half speed: on a
// 4-vCPU KVM guest dvfs-stream read 430k rows/s with both on one CPU and
// 530-860k apart. Unpinned, over ten seeds its throughput and both
// workloads' p50s spread by 0.4 to 0.9 of their medians.

struct Placement {
  cpu_set_t server, client, helpers;
  std::string text;  ///< e.g. "server cpu 3, client cpu 2, helpers cpu 0-1"
};

std::string cpu_list(const cpu_set_t& set) {
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(c);
    if (last > c) out.append("-").append(std::to_string(last));
    c = last;
  }
  return out;
}

/// The two highest allowed CPUs go to the server and the client (CPU 0
/// takes most device interrupts); with fewer than two, nothing is pinned.
Placement plan_placement() {
  Placement p;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  p.server = p.client = p.helpers = allowed;
  if (cpus.size() < 2) {
    p.text = "unpinned, cpu " + cpu_list(allowed);
    return p;
  }
  CPU_ZERO(&p.server);
  CPU_ZERO(&p.client);
  CPU_SET(cpus[cpus.size() - 1], &p.server);
  CPU_SET(cpus[cpus.size() - 2], &p.client);
  if (cpus.size() > 2) {
    CPU_CLR(cpus[cpus.size() - 1], &p.helpers);
    CPU_CLR(cpus[cpus.size() - 2], &p.helpers);
  }
  p.text = "server cpu " + cpu_list(p.server) + ", client cpu " +
           cpu_list(p.client) + ", helpers cpu " + cpu_list(p.helpers);
  return p;
}

/// Pin the calling thread (threads it starts inherit the set).
void pin_this_thread(const cpu_set_t& set) {
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// ---------------------------------------------------------------------------
// The server process: spawned with stdout+stderr on a pipe that a reader
// thread drains into memory (the summary lines are parsed at the end).

class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const Placement& place) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    // The child inherits the spawning thread's CPU set.
    pin_this_thread(place.server);
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr,
                                 args.data(), environ);
    pin_this_thread(place.client);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      throw std::runtime_error("cannot spawn " + argv[0]);
    }
    reader_ = std::thread([this, fd = fds[0], helpers = place.helpers] {
      ::sched_setaffinity(0, sizeof(helpers), &helpers);
      read_output(fd);
    });
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (reader_.joinable()) reader_.join();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Block until the server prints its "listening on HOST:PORT" line.
  std::uint16_t wait_port() {
    std::unique_lock lock(mutex_);
    const std::string marker = "listening on ";
    const bool seen = cv_.wait_for(lock, std::chrono::seconds(120), [&] {
      return output_.find(marker) != std::string::npos || eof_;
    });
    const auto at = output_.find(marker);
    if (!seen || at == std::string::npos) {
      throw std::runtime_error("server did not start listening: " + output_);
    }
    const auto eol = output_.find('\n', at);
    const std::string spec = output_.substr(at + marker.size(),
                                            eol - at - marker.size());
    return static_cast<std::uint16_t>(std::stoi(spec.substr(spec.rfind(':') + 1)));
  }

  /// SIGTERM, wait for the exit (SIGKILL after 30 s) and return the exit
  /// code, or -1 when the server was killed or died on a signal.
  int stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = now_ns() + 30'000'000'000ll;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        reader_.join();
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    reader_.join();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string output() {
    std::lock_guard lock(mutex_);
    return output_;
  }

 private:
  void read_output(int fd) {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      std::lock_guard lock(mutex_);
      if (n <= 0) {
        eof_ = true;
        cv_.notify_all();
        break;
      }
      output_.append(buf, static_cast<std::size_t>(n));
      cv_.notify_all();
    }
    ::close(fd);
  }

  pid_t pid_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string output_;
  bool eof_ = false;
  std::thread reader_;  // declared last: uses the members above
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// utime + stime of `pid` in nanoseconds (/proc/<pid>/stat fields 14-15).
double cpu_ns(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1e9 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// VmHWM of `pid` in KiB (/proc/<pid>/status).
double vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host stalls. On a shared KVM guest the hypervisor deschedules the whole
// VM for 1-20 ms several times a second (all vCPUs together: a busy loop
// on each of two vCPUs sees the same gaps). A stall then delays every
// open-loop request in flight, and the backlog it leaves delays those due
// soon after, which is the host's time, not the server's. The canary is
// a thread of its own that only sleeps and reads the clock; it never
// touches a socket, so a slow server cannot mark a stall.

using Interval = std::pair<std::int64_t, std::int64_t>;

class StallCanary {
 public:
  explicit StallCanary(const cpu_set_t& cpus)
      : thread_([this, cpus] {
          ::sched_setaffinity(0, sizeof(cpus), &cpus);
          run();
        }) {}
  ~StallCanary() { join(); }

  StallCanary(const StallCanary&) = delete;
  StallCanary& operator=(const StallCanary&) = delete;

  /// Stop the thread; returns the stalls [deadline, wake-up) it saw.
  std::vector<Interval> stop() {
    join();
    if (error_) std::rethrow_exception(error_);
    return stalls_;
  }

 private:
  void join() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  void run() {
    try {
      std::int64_t due = now_ns() + kCanaryPeriodNs;
      while (!stop_.load(std::memory_order_relaxed)) {
        const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                          static_cast<long>(due % 1'000'000'000)};
        ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
        const std::int64_t woke = now_ns();
        if (woke - due > kStallNs) stalls_.emplace_back(due, woke);
        due = woke + kCanaryPeriodNs;
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  std::atomic<bool> stop_{false};
  // Written by the thread, read only after the join.
  std::vector<Interval> stalls_;
  std::exception_ptr error_;
  std::thread thread_;  // declared last: uses the members above
};

/// The intervals whose open-loop samples are the host's: each stall, plus
/// as long again after it for the backlog it left to drain (at the open
/// loop's load of a third of capacity or less, a backlog drains in less
/// than half the time the stall took).
/// Merged, so both ends are ascending.
std::vector<Interval> disturbed_intervals(const std::vector<Interval>& stalls) {
  std::vector<Interval> out;
  for (const auto& [start, end] : stalls) {
    const std::int64_t until = end + (end - start);
    if (!out.empty() && start <= out.back().second) {
      out.back().second = std::max(out.back().second, until);
    } else {
      out.emplace_back(start, until);
    }
  }
  return out;
}

/// True when [begin, end] overlaps one of the merged `intervals`.
bool overlaps(const std::vector<Interval>& intervals, std::int64_t begin,
              std::int64_t end) {
  const auto it = std::upper_bound(
      intervals.begin(), intervals.end(), begin,
      [](std::int64_t t, const Interval& i) { return t < i.second; });
  return it != intervals.end() && it->first <= end;
}

// ---------------------------------------------------------------------------
// The load client.

enum Phase : std::uint8_t { kSetup, kWarmup, kClosed, kOpen, kDrill, kPhases };
const char* const kPhaseNames[kPhases] = {"setup", "warmup", "closed", "open",
                                          "swap"};

struct Pending {
  std::int64_t due_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t key = 0;
  std::uint32_t row = 0;
  std::uint32_t epoch = 0;  ///< publishes of the swap key at send time
  bool confirmed = true;    ///< ... and whether the last one was confirmed
  bool probe = false;
  Phase phase = kSetup;
};

struct Conn {
  int fd = -1;
  std::vector<unsigned char> out;
  std::size_t out_off = 0;
  std::vector<unsigned char> in;
  std::size_t in_off = 0;
  std::map<std::uint32_t, Pending> pending;  ///< by request id (oldest first)
  std::uint32_t next_id = 1;
};

struct PhaseStats {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  std::int64_t t0 = 0, t1 = 0;  ///< measurement interval
  /// Closed loop: verified rows received within [t0, t1).
  double rows = 0.0;
  /// Open loop: (due time, latency from the due time) per request ...
  std::vector<std::pair<std::int64_t, double>> latency_us;
  /// ... and how late the generator sent it (send time - due time).
  std::vector<double> late_us;

  void start(std::int64_t begin, std::int64_t end) {
    t0 = begin;
    t1 = end;
  }
  bool within(std::int64_t t) const { return t >= t0 && t < t1; }
};

struct KeyOracle {
  std::string name;
  Family family = Family::kHpc;
  api::ScoreResult version[2];
  bool has_v2 = false;
};

class Client {
 public:
  Client(const Workload& w, const Fixtures& f, const std::string& models_dir,
         const std::string& staging_dir, std::uint64_t seed)
      : w_(w), f_(f), models_dir_(models_dir), staging_dir_(staging_dir),
        seed_(seed) {
    for (const auto& [family, path] : f.pools) pools_[family] = read_matrix(path);
    std::size_t min_rows = SIZE_MAX;
    for (const auto& [family, pool] : pools_) min_rows = std::min(min_rows, pool.rows());
    pool_rows_ = min_rows;
    // Oracles: the interpreted arena (JIT off) scoring the whole pool —
    // an independent path from the server's JIT kernels, bit-identical
    // by the JIT parity contract.
    jit::set_policy(jit::Policy::kOff);
    for (const FixtureKey& k : f.keys) {
      KeyOracle o;
      o.name = k.name;
      o.family = k.family;
      api::ScoreRequest request;
      request.x = &pools_.at(k.family);
      request.outputs = w.outputs;
      core::load_model(k.path, 1).score(request, o.version[0]);
      if (!k.path_v2.empty()) {
        core::load_model(k.path_v2, 1).score(request, o.version[1]);
        o.has_v2 = true;
      }
      oracles_.push_back(std::move(o));
    }
    for (std::size_t i = 0; i < f.keys.size(); ++i) {
      if (f.keys[i].name == w.swap_key) swap_key_ = static_cast<int>(i);
    }
    if (swap_key_ < 0 || !oracles_[swap_key_].has_v2) {
      throw std::runtime_error("swap key has no second version");
    }
    // Probe rows: request windows whose answers differ between versions.
    const KeyOracle& s = oracles_[swap_key_];
    for (std::uint32_t r = 0; r + w.rows_per_request <= pool_rows_; ++r) {
      if (!same_rows(s.version[0], r, s.version[1], r, w.outputs,
                     w.rows_per_request)) {
        probe_rows_.push_back(r);
      }
    }
    if (probe_rows_.empty()) {
      throw std::runtime_error("the two swap versions answer identically");
    }
  }

  ~Client() { disconnect(); }

  void connect(std::uint16_t port) {
    disconnect();
    for (int i = 0; i < w_.connections; ++i) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = connect_to(port);
    }
    probe_ = std::make_unique<Conn>();
    probe_->fd = connect_to(port);
  }

  void disconnect() {
    for (auto& c : conns_) ::close(c->fd);
    conns_.clear();
    if (probe_) ::close(probe_->fd);
    probe_.reset();
  }

  /// One request per served key on the first connection; returns when
  /// all are answered (the cold-start probe).
  void touch_every_key() {
    for (std::uint32_t k = 0; k < oracles_.size(); ++k) {
      send(*conns_[0], k, probe_rows_[k % probe_rows_.size()], now_ns(),
           kSetup, false);
    }
    drain();
  }

  /// Closed loop: keep `pipeline` requests outstanding per connection
  /// until `end_ns`, refilling each connection with one write.
  void closed_loop(Phase phase, std::int64_t end_ns) {
    RequestStream stream(w_, pool_rows_, mix_seed(seed_, 100 + phase));
    while (true) {
      const std::int64_t now = now_ns();
      if (now >= end_ns) break;
      for (auto& c : conns_) {
        while (c->pending.size() < static_cast<std::size_t>(w_.pipeline)) {
          std::uint32_t key = 0, row = 0;
          stream.next(key, row);
          enqueue(*c, key, row, now, phase, false);
        }
        flush_out(*c);
      }
      swap_tick(now);
      // Busy-poll: a client that sleeps here wakes through its vCPU for
      // each answer, and then the client, not the server, sets the rate.
      pump(0);
    }
  }

  /// Open loop: requests due at a fixed rate (w.open_rps) until `end_ns`,
  /// round-robin over the connections; each is timed from its due time.
  void open_loop(std::int64_t end_ns) {
    RequestStream stream(w_, pool_rows_, mix_seed(seed_, 200));
    const double gap_ns = 1e9 / w_.open_rps;
    std::int64_t sent = 0;
    const std::int64_t start = now_ns();
    std::int64_t due = start;
    std::size_t next_conn = 0;
    PhaseStats& s = stats_[kOpen];
    while (true) {
      std::int64_t now = now_ns();
      while (due <= now && due < end_ns) {
        std::uint32_t key = 0, row = 0;
        stream.next(key, row);
        send(*conns_[next_conn], key, row, due, kOpen, false);
        s.late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
        next_conn = (next_conn + 1) % conns_.size();
        ++sent;
        due = start + static_cast<std::int64_t>(static_cast<double>(sent) * gap_ns);
      }
      if (due >= end_ns) break;
      swap_tick(now);
      // Busy-poll rather than sleep until the next due time: a sleeping
      // client adds the wake-up of its own vCPU to every answer, and on a
      // shared VM that wake-up follows the host's placement (dvfs-stream's
      // p50 read 35 or 44 us from run to run; busy-polling, 21-24 us).
      pump(0);
    }
  }

  /// Wait until every outstanding request (probes included) is answered.
  void drain() {
    while (outstanding() > 0) pump(1'000'000);
  }

  /// Publish the swap key `count` times outside traffic, each time
  /// waiting for the first new-version answer.
  void swap_drill(int count) {
    for (int i = 0; i < count; ++i) {
      publish();
      if (!await_swap()) return;
      drain();
    }
  }

  PhaseStats& stats(Phase p) { return stats_[p]; }
  const std::vector<double>& swap_ms() const { return swap_ms_; }
  std::uint64_t unknown_sent() const { return unknown_sent_; }
  const std::map<std::string, std::uint64_t>& failures() const { return failures_; }
  std::uint64_t probes() const { return probes_sent_; }
  std::uint64_t reordered() const { return reordered_; }

 private:
  /// Probe until the open publish is answered by its new version; a
  /// publish the server never picks up within kTimeoutNs is a failure.
  bool await_swap() {
    while (!swap_confirmed_) {
      const std::int64_t now = now_ns();
      if (now - publish_ns_ > kTimeoutNs) {
        fail("swap_not_picked_up");
        ++stats_[kDrill].failed;
        swap_confirmed_ = true;
        return false;
      }
      swap_tick(now);
      pump(kProbeGapNs);
    }
    return true;
  }

  std::size_t outstanding() const {
    std::size_t n = probe_ ? probe_->pending.size() : 0;
    for (const auto& c : conns_) n += c->pending.size();
    return n;
  }

  void send(Conn& c, std::uint32_t key, std::uint32_t row, std::int64_t due,
            Phase phase, bool probe) {
    enqueue(c, key, row, due, phase, probe);
    flush_out(c);
  }

  /// Append a request to the connection's output; flush_out() writes it.
  void enqueue(Conn& c, std::uint32_t key, std::uint32_t row, std::int64_t due,
               Phase phase, bool probe) {
    Pending p;
    p.due_ns = due;
    p.id = c.next_id++;
    p.key = key;
    p.row = row;
    p.epoch = swap_epoch_;
    p.confirmed = swap_confirmed_;
    p.probe = probe;
    p.phase = phase;
    const std::string name =
        key == kUnknownKey ? unknown_key_name(row) : oracles_[key].name;
    const Matrix& pool =
        pools_.at(key == kUnknownKey ? Family::kHpc : oracles_[key].family);
    wire::append_request(c.out, p.id, name, w_.outputs, std::nullopt,
                         pool.row_ptr(row), w_.rows_per_request, pool.cols());
    c.pending.emplace(p.id, p);
    if (key == kUnknownKey) ++unknown_sent_;
    if (probe) ++probes_sent_;
    ++stats_[phase].sent;
  }

  void flush_out(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        throw std::runtime_error("send failed: the server closed a connection");
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  /// Poll every connection for up to `timeout_ns`, then read and verify
  /// whatever arrived.
  void pump(std::int64_t timeout_ns) {
    std::vector<Conn*> all;
    for (auto& c : conns_) all.push_back(c.get());
    if (probe_) all.push_back(probe_.get());
    pollfd fds[16];
    for (std::size_t i = 0; i < all.size(); ++i) {
      fds[i].fd = all[i]->fd;
      fds[i].events = POLLIN | (all[i]->out_off < all[i]->out.size() ? POLLOUT : 0);
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds, all.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      Conn& c = *all[i];
      if (fds[i].revents & POLLOUT) flush_out(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(c);
      if (!c.pending.empty() &&
          now_ns() - c.pending.begin()->second.due_ns > kTimeoutNs) {
        throw std::runtime_error("a request timed out (server stalled)");
      }
    }
  }

  void read_conn(Conn& c) {
    unsigned char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) throw std::runtime_error("the server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error("recv failed");
    }
    const std::int64_t now = now_ns();
    while (true) {
      wire::Frame frame;
      const std::size_t used = wire::parse_frame(
          c.in.data() + c.in_off, c.in.size() - c.in_off,
          wire::kMaxPayloadBytes, frame);
      if (used == 0) break;
      c.in_off += used;
      handle(c, frame, now);
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    }
  }

  void fail(const char* why) { ++failures_[why]; }

  void handle(Conn& c, const wire::Frame& frame, std::int64_t now) {
    const std::uint32_t id = frame.type == wire::FrameType::kScoreResult
                                 ? frame.result.request_id
                                 : frame.error.request_id;
    const auto it = c.pending.find(id);
    if (it == c.pending.end()) {
      throw std::runtime_error("response to an unknown request id");
    }
    // Answers for different keys leave their batcher queues in flush
    // order, so a connection may see them out of request order.
    if (it != c.pending.begin()) ++reordered_;
    const Pending p = it->second;
    c.pending.erase(it);
    const bool ok = verify(p, frame, now);
    if (!ok && p.probe) throw std::runtime_error("a swap probe failed");
    if (p.probe) {
      probe_outstanding_ = false;
      next_probe_ns_ = now + kProbeGapNs;
    }
    PhaseStats& s = stats_[p.phase];
    (ok ? s.ok : s.failed) += 1;
    if (ok && frame.type == wire::FrameType::kScoreResult && s.within(now)) {
      s.rows += frame.result.rows;
    }
    if (p.phase == kOpen && !p.probe) {
      s.latency_us.emplace_back(
          p.due_ns,
          ok ? static_cast<double>(now - p.due_ns) / 1e3 : kFailedLatencyUs);
    }
  }

  bool verify(const Pending& p, const wire::Frame& frame, std::int64_t now) {
    if (p.key == kUnknownKey) {
      if (frame.type == wire::FrameType::kError &&
          frame.error.code == wire::ErrorCode::kUnknownModel) {
        return true;
      }
      fail("unknown_key_not_refused");
      return false;
    }
    if (frame.type != wire::FrameType::kScoreResult) {
      fail("error_frame");
      return false;
    }
    if (frame.result.rows != w_.rows_per_request ||
        frame.result.outputs != w_.outputs ||
        frame.result.accuracy != core::Accuracy::kExact) {
      fail("bad_result_header");
      return false;
    }
    wire::unpack_result(frame.result, scratch_);
    const KeyOracle& o = oracles_[p.key];
    const bool v0 = same_rows(scratch_, 0, o.version[0], p.row, w_.outputs,
                              w_.rows_per_request);
    const bool v1 = o.has_v2 && same_rows(scratch_, 0, o.version[1], p.row,
                                          w_.outputs, w_.rows_per_request);
    if (static_cast<int>(p.key) != swap_key_) {
      if (!v0) fail("parity_mismatch");
      return v0;
    }
    // The swap key: version e % 2 is in force after publish e. A request
    // sent after the first new-version answer of publish e must get
    // version e (or a later one); one sent earlier may still get e - 1.
    const std::uint32_t lo = p.confirmed ? p.epoch : (p.epoch ? p.epoch - 1 : 0);
    const bool either = swap_epoch_ > lo;
    const bool want_v1 = (lo % 2) == 1;
    const bool ok = either ? (v0 || v1) : (want_v1 ? v1 : v0);
    if (!ok) {
      fail("parity_mismatch");
      return false;
    }
    // First answer computed by the new version of an open publish.
    const bool new_version = (swap_epoch_ % 2 == 1) ? v1 && !v0 : v0 && !v1;
    if (!swap_confirmed_ && p.epoch == swap_epoch_ && new_version) {
      swap_confirmed_ = true;
      swap_ms_.push_back(static_cast<double>(now - publish_ns_) / 1e6);
    }
    return true;
  }

  /// Stage the artifact of the version publish `epoch` installs.
  std::string stage(std::uint32_t epoch) {
    const FixtureKey& k = f_.keys[swap_key_];
    const std::string staged = staging_dir_ + "/" + k.name + ".hmdf";
    fs::copy_file(epoch % 2 ? k.path_v2 : k.path, staged,
                  fs::copy_options::overwrite_existing);
    return staged;
  }

  void publish() {
    const std::string staged = stage(swap_epoch_ + 1);
    const std::string target =
        models_dir_ + "/" + f_.keys[swap_key_].name + ".hmdf";
    publish_ns_ = now_ns();
    fs::rename(staged, target);
    ++swap_epoch_;
    swap_confirmed_ = false;
    next_probe_ns_ = publish_ns_;
  }

  /// Probe a republished key until its new version answers.
  void swap_tick(std::int64_t now) {
    if (!swap_confirmed_ && !probe_outstanding_ && now >= next_probe_ns_) {
      send(*probe_, static_cast<std::uint32_t>(swap_key_),
           probe_rows_[probe_cursor_++ % probe_rows_.size()], now, kDrill, true);
      probe_outstanding_ = true;
    }
  }

  const Workload& w_;
  const Fixtures& f_;
  std::string models_dir_, staging_dir_;
  std::uint64_t seed_;
  std::map<Family, Matrix> pools_;
  std::size_t pool_rows_ = 0;
  std::vector<KeyOracle> oracles_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<Conn> probe_;
  api::ScoreResult scratch_;
  PhaseStats stats_[kPhases];
  std::map<std::string, std::uint64_t> failures_;
  std::uint64_t unknown_sent_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t reordered_ = 0;

  int swap_key_ = -1;
  std::vector<std::uint32_t> probe_rows_;
  std::size_t probe_cursor_ = 0;
  std::uint32_t swap_epoch_ = 0;
  bool swap_confirmed_ = true;
  bool probe_outstanding_ = false;
  std::int64_t publish_ns_ = 0;
  std::int64_t next_probe_ns_ = 0;
  std::vector<double> swap_ms_;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string phase_json(const PhaseStats& s) {
  return Json()
      .integer("sent", static_cast<long long>(s.sent))
      .integer("ok", static_cast<long long>(s.ok))
      .integer("failed", static_cast<long long>(s.failed))
      .str();
}

/// Hard-link the version-1 artifacts into a fresh served directory.
void stage_models(const Fixtures& f, const std::string& models_dir) {
  fs::remove_all(models_dir);
  fs::create_directories(models_dir);
  for (const FixtureKey& k : f.keys) {
    fs::create_hard_link(k.path, models_dir + "/" + k.name + ".hmdf");
  }
}

}  // namespace

int serve_run(const ServeRunOptions& options) {
  const Workload& w = workload(options.workload);
  const Fixtures f = read_fixtures(options.fixtures);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const Placement place = plan_placement();
  pin_this_thread(place.client);

  const std::string models_dir = options.work_dir + "/models";
  const std::string staging_dir = options.work_dir + "/staging";
  fs::create_directories(staging_dir);
  stage_models(f, models_dir);

  std::vector<std::string> argv = {
      options.server, "--models=" + models_dir, "--listen=127.0.0.1:0",
      "--threads=1", "--jit=auto",
      // A publish is picked up within a millisecond of its rename.
      "--refresh-ms=1"};

  Client client(w, f, models_dir, staging_dir, options.seed);

  Json out;
  std::string cmdline;
  for (const std::string& a : argv) cmdline += (cmdline.empty() ? "" : " ") + a;
  out.text("server_cmd", cmdline).text("placement", place.text);

  // Set-up: spawn -> one verified answer for every served key, repeated.
  std::vector<double> setup_s;
  int bad_exits = 0;
  if (!options.skip_cold_starts) {
    for (int i = 0; i < w.cold_starts; ++i) {
      const std::int64_t t0 = now_ns();
      ServerProcess server(argv, place);
      client.connect(server.wait_port());
      client.touch_every_key();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      client.disconnect();
      if (server.stop() != 0) ++bad_exits;
    }
  }
  out.raw("setup_s", json_list(setup_s));

  // The measured server run.
  ServerProcess server(argv, place);
  client.connect(server.wait_port());
  const auto closed_ns =
      static_cast<std::int64_t>(options.seconds * kClosedShare * 1e9);
  const auto open_ns =
      static_cast<std::int64_t>(options.seconds * (1.0 - kClosedShare) * 1e9);
  std::int64_t t = now_ns();
  client.closed_loop(kWarmup, t + kWarmupNs);

  t = now_ns();
  PhaseStats& closed = client.stats(kClosed);
  closed.start(t, t + closed_ns);
  const double cpu0 = cpu_ns(server.pid());
  client.closed_loop(kClosed, closed.t1);
  const double cpu1 = cpu_ns(server.pid());
  client.drain();
  // Peak RSS over set-up, warm-up and saturation. Read before the open
  // loop: its backlog after a host stall (and so its buffer growth) is
  // set by the host, not by the server.
  const double hwm_kb = vm_hwm_kb(server.pid());

  t = now_ns();
  PhaseStats& open = client.stats(kOpen);
  open.start(t, t + open_ns);
  StallCanary canary(place.helpers);
  client.open_loop(open.t1);
  client.drain();
  const std::vector<Interval> stalls = canary.stop();
  if (w.swap_drill_count > 0) client.swap_drill(w.swap_drill_count);
  client.drain();
  client.disconnect();

  const int exit_code = server.stop();
  if (exit_code != 0) ++bad_exits;

  // Latency over every open-loop sample the host left alone: one whose
  // life [due, answer] overlaps a stall or the backlog after it is the
  // host's. Failed requests always count. p99 is over all kept samples;
  // p50 is the median over windows of each window's p50.
  const std::vector<Interval> disturbed = disturbed_intervals(stalls);
  const std::int64_t span = open.t1 - open.t0;
  const auto n_windows = static_cast<std::size_t>(
      std::max<std::int64_t>(1, span / kLatencyWindowNs));
  std::vector<std::vector<double>> by_window(n_windows);
  std::vector<double> latency;
  std::size_t excluded = 0;
  for (const auto& [due, us] : open.latency_us) {
    const auto done = due + static_cast<std::int64_t>(us * 1e3);
    if (us < kFailedLatencyUs && overlaps(disturbed, due, done)) {
      ++excluded;
      continue;
    }
    latency.push_back(us);
    const auto k = static_cast<std::size_t>(std::clamp<std::int64_t>(
        (due - open.t0) * static_cast<std::int64_t>(n_windows) / span, 0,
        static_cast<std::int64_t>(n_windows) - 1));
    by_window[k].push_back(us);
  }
  if (latency.empty()) {
    // The host never ran undisturbed: report every sample rather than
    // none (disturbed_share then reads 1).
    for (const auto& sample : open.latency_us) latency.push_back(sample.second);
    by_window.assign(1, latency);
  }
  std::sort(latency.begin(), latency.end());
  std::vector<double> p50;
  for (std::vector<double>& window : by_window) {
    if (window.empty()) continue;
    std::sort(window.begin(), window.end());
    p50.push_back(quantile(window, 0.50));
  }
  double stall_ns = 0.0;
  for (const auto& [start, end] : stalls) stall_ns += static_cast<double>(end - start);
  std::vector<double>& late = open.late_us;
  std::sort(late.begin(), late.end());
  const double closed_rows = closed.rows;
  std::uint64_t attempted = 0, failed = 0;
  std::string phases = "{";
  for (int p = 0; p < kPhases; ++p) {
    const PhaseStats& s = client.stats(static_cast<Phase>(p));
    attempted += s.sent;
    failed += s.failed;
    phases += std::string(p ? ", " : "") + "\"" + kPhaseNames[p] +
              "\": " + phase_json(s);
  }
  phases += "}";
  std::string failures = "{";
  for (const auto& [why, n] : client.failures()) {
    failures += std::string(failures.size() > 1 ? ", " : "") + "\"" + why +
                "\": " + std::to_string(n);
  }
  failures += "}";

  std::string hashes = "{";
  for (const FixtureKey& k : f.keys) {
    for (const std::string& path : {k.path, k.path_v2}) {
      if (path.empty()) continue;
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(file_xxh64(path)));
      hashes += std::string(hashes.size() > 1 ? ", " : "") + "\"" +
                fs::path(path).parent_path().filename().string() + "/" +
                fs::path(path).filename().string() + "\": \"" + buf + "\"";
    }
  }
  for (const auto& [family, path] : f.pools) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(file_xxh64(path)));
    hashes += std::string(hashes.size() > 1 ? ", " : "") + "\"" +
              fs::path(path).filename().string() + "\": \"" + buf + "\"";
  }
  hashes += "}";

  out.raw("phases", phases)
      .raw("failures", failures)
      .integer("attempted", static_cast<long long>(attempted))
      .integer("failed", static_cast<long long>(failed))
      .integer("bad_server_exits", bad_exits)
      .num("throughput_rows_per_s",
           closed_rows / (static_cast<double>(closed.t1 - closed.t0) / 1e9))
      .num("cpu_ns_per_row", closed_rows > 0 ? (cpu1 - cpu0) / closed_rows : 0.0)
      .num("latency_p50_us", median(p50))
      .num("latency_p99_us", quantile(latency, 0.99))
      .integer("latency_samples", static_cast<long long>(open.latency_us.size()))
      .num("late_p99_us", quantile(late, 0.99))
      .num("disturbed_share",
           open.latency_us.empty()
               ? 0.0
               : static_cast<double>(excluded) /
                     static_cast<double>(open.latency_us.size()))
      .integer("host_stalls", static_cast<long long>(stalls.size()))
      .num("host_stall_share",
           stall_ns / static_cast<double>(open.t1 - open.t0))
      .raw("swap_ms", json_list(client.swap_ms()))
      .integer("probes", static_cast<long long>(client.probes()))
      .integer("reordered", static_cast<long long>(client.reordered()))
      .integer("unknown_sent", static_cast<long long>(client.unknown_sent()))
      .num("peak_rss_kb", hwm_kb)
      .raw("fixtures_xxh64", hashes)
      .text("server_output", server.output());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
