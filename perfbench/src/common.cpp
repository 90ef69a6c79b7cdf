#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/checksum.h"

namespace perfbench {

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> table;

  Workload dvfs;
  dvfs.name = "dvfs-stream";
  dvfs.keys = {"dvfs"};
  dvfs.rows_per_request = 4;
  dvfs.outputs = api::kDetectionOutputs;
  dvfs.connections = 4;
  // 128 requests in flight: the server (not the client) sets the rate,
  // with most batches at the batcher's 256-row cap.
  dvfs.pipeline = 32;
  // About a fifth of the closed-loop capacity. At half of it, when the
  // host slowed the VM, the open loop saturated and its backlog never
  // drained.
  dvfs.open_rps = 30000;
  dvfs.swap_key = "dvfs";
  dvfs.swap_drill_count = 100;
  dvfs.cold_starts = 21;
  dvfs.replay_requests = 200000;
  // One key always fits a one-key budget: the residency leg must show
  // no reloads here.
  dvfs.residency_requests = 3000;
  table.push_back(dvfs);

  Workload hpc;
  hpc.name = "hpc-estimate";
  hpc.keys = {"hpc_rf", "hpc_lr"};
  // Two forest requests per LR request: with a 1:1 mix the median latency
  // sits exactly between the fast LR and the slow forest populations and
  // flips from run to run.
  hpc.rotation = {0, 0, 1};
  // Unknown keys exercise the registry's cuckoo-filter front door (fleet/)
  // on a served workload: each must get the typed kUnknownModel refusal.
  hpc.unknown_share = 0.02;
  hpc.rows_per_request = 64;
  hpc.outputs = api::kEstimateOutputs;
  hpc.connections = 4;
  hpc.pipeline = 2;
  // About a quarter of the closed-loop capacity: at half of it, queueing
  // amplified the host's minute-to-minute speed drift into a p50 that
  // moved by a fifth between runs.
  hpc.open_rps = 450;
  hpc.swap_key = "hpc_rf";
  hpc.swap_drill_count = 16;
  hpc.cold_starts = 5;
  hpc.replay_requests = 2000;
  // With room for one of the two keys, every key switch evicts the other
  // and reloads (load + JIT compile for the forest).
  hpc.residency_requests = 45;
  table.push_back(hpc);
  return table;
}

}  // namespace

const Workload& workload(const std::string& name) {
  static const std::vector<Workload> table = make_workloads();
  for (const Workload& w : table) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const FixtureKey& Fixtures::key(const std::string& name) const {
  for (const FixtureKey& k : keys) {
    if (k.name == name) return k;
  }
  throw std::runtime_error("fixture has no key '" + name + "'");
}

// Manifest lines: "key NAME FAMILY PATH PATH_V2|-",
// "pool FAMILY PATH". Paths are relative to the fixture directory.
Fixtures read_fixtures(const std::string& dir) {
  Fixtures f;
  f.dir = dir;
  std::ifstream in(dir + "/manifest.txt");
  if (!in) throw std::runtime_error("no fixture manifest in " + dir);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, family;
    fields >> kind;
    if (kind == "key") {
      FixtureKey k;
      std::string v2;
      fields >> k.name >> family >> k.path >> v2;
      k.family = family == "dvfs" ? Family::kDvfs : Family::kHpc;
      k.path = dir + "/" + k.path;
      if (v2 != "-") k.path_v2 = dir + "/" + v2;
      f.keys.push_back(k);
    } else if (kind == "pool") {
      std::string path;
      fields >> family >> path;
      f.pools[family == "dvfs" ? Family::kDvfs : Family::kHpc] =
          dir + "/" + path;
    }
  }
  if (f.keys.empty()) throw std::runtime_error("empty fixture manifest");
  return f;
}

void write_matrix(const std::string& path, const Matrix& m) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t shape[2] = {m.rows(), m.cols()};
  out.write(reinterpret_cast<const char*>(shape), sizeof(shape));
  out.write(reinterpret_cast<const char*>(m.storage().data()),
            static_cast<std::streamsize>(m.storage().size() * sizeof(double)));
  if (!out) throw std::runtime_error("cannot write " + path);
}

Matrix read_matrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t shape[2] = {0, 0};
  in.read(reinterpret_cast<char*>(shape), sizeof(shape));
  if (!in || shape[0] == 0 || shape[1] == 0 || shape[0] > (1u << 24) ||
      shape[1] > 4096) {
    throw std::runtime_error("bad row pool " + path);
  }
  std::vector<double> data(shape[0] * shape[1]);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size() * sizeof(double)));
  if (!in) throw std::runtime_error("short row pool " + path);
  return Matrix::from_storage(shape[0], shape[1], std::move(data));
}

std::uint64_t file_xxh64(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in || !bytes) throw std::runtime_error("cannot read " + path);
  const std::string data = bytes.str();
  return io::xxhash64(data.data(), data.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string unknown_key_name(std::uint32_t i) {
  return "ghost_" + std::to_string(i);
}

RequestStream::RequestStream(const Workload& w, std::size_t pool_rows,
                             std::uint64_t seed)
    : w_(w), rng_(seed) {
  if (pool_rows < w.rows_per_request) {
    throw std::runtime_error("row pool smaller than one request");
  }
  row_span_ = pool_rows - w.rows_per_request + 1;
}

void RequestStream::next(std::uint32_t& key, std::uint32_t& row) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  row = static_cast<std::uint32_t>(rng_() % row_span_);
  if (w_.unknown_share > 0.0 && unit(rng_) < w_.unknown_share) {
    key = kUnknownKey;
  } else {
    key = w_.rotation[count_ % w_.rotation.size()];
  }
  ++count_;
}

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000ll + ts.tv_nsec;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

namespace {

template <typename T>
bool same_slice(const std::vector<T>& a, std::size_t a_row,
                const std::vector<T>& b, std::size_t b_row, std::size_t rows) {
  return a.size() >= a_row + rows && b.size() >= b_row + rows &&
         std::memcmp(a.data() + a_row, b.data() + b_row, rows * sizeof(T)) ==
             0;
}

}  // namespace

bool same_rows(const api::ScoreResult& a, std::size_t a_row,
               const api::ScoreResult& b, std::size_t b_row,
               api::OutputMask outputs, std::size_t rows) {
  using namespace api;
  const auto same = [&](OutputMask bit, const auto& col_a, const auto& col_b) {
    return !(outputs & bit) || same_slice(col_a, a_row, col_b, b_row, rows);
  };
  return same(kOutPrediction, a.prediction, b.prediction) &&
         same(kOutConfidence, a.confidence, b.confidence) &&
         same(kOutVotes, a.votes, b.votes) &&
         same(kOutVoteEntropy, a.vote_entropy, b.vote_entropy) &&
         same(kOutSoftEntropy, a.soft_entropy, b.soft_entropy) &&
         same(kOutExpectedEntropy, a.expected_entropy, b.expected_entropy) &&
         same(kOutMutualInformation, a.mutual_information,
              b.mutual_information) &&
         same(kOutVariationRatio, a.variation_ratio, b.variation_ratio) &&
         same(kOutMaxProbability, a.max_probability, b.max_probability) &&
         same(kOutScore, a.score, b.score) &&
         same(kOutTrusted, a.trusted, b.trusted);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Appending piece by piece (rather than `"\"" + ...`) also keeps GCC 12's
// -Wrestrict false positive on string concatenation out of the build.
void Json::key(const std::string& name) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(name);
  body_ += "\": ";
}

Json& Json::num(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  key(name);
  body_ += buf;
  return *this;
}

Json& Json::integer(const std::string& name, long long value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::text(const std::string& name, const std::string& value) {
  key(name);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

Json& Json::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

}  // namespace perfbench
