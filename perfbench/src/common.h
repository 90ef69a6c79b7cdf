#pragma once
// Shared definitions of the benchmark tool: the workloads, the fixture
// manifest, and small helpers (clock, percentiles, JSON output).
//
// The workloads are chosen so each puts most of its time in a different
// layer of the serving stack, which makes a change to one layer move one
// workload and leave the others flat:
//   dvfs-stream   one tiny stump-dominated forest, 4-row requests: engine
//                 work is a few hundred ns, so wire, reactor and batcher
//                 (serve/) dominate.
//   hpc-estimate  a deep JIT-compiled forest and a bagged LR, 64-row
//                 full-estimate requests: stats_batch costs milliseconds,
//                 so core/ + jit/ + simd/ dominate. Its unknown keys go
//                 through the registry's filter front door (fleet/), and
//                 its traced run drives the residency tier's
//                 evict/reload-on-get path with a one-key budget.

#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "api/score.h"
#include "common/matrix.h"

namespace perfbench {

using namespace hmd;

enum class Family { kDvfs, kHpc };

struct Workload {
  std::string name;
  /// Served keys, in fixture-manifest order.
  std::vector<std::string> keys;
  /// Known-key requests name keys in this fixed, repeating order.
  std::vector<std::uint32_t> rotation = {0};
  /// Share of requests naming a key the server has never heard of.
  double unknown_share = 0.0;
  std::uint32_t rows_per_request = 4;
  api::OutputMask outputs = api::kDetectionOutputs;
  int connections = 4;
  /// Closed loop: outstanding requests per connection, enough to keep
  /// the server's queue from running dry.
  int pipeline = 1;
  /// Open-loop phase: fixed absolute request rate (requests/s), a fifth
  /// to a quarter of the closed-loop capacity measured on a 4-vCPU KVM host.
  double open_rps = 0.0;
  /// The key that is republished (alternating two trained versions) in
  /// a drill of swap_drill_count publishes after the traffic phases.
  std::string swap_key;
  int swap_drill_count = 0;
  int cold_starts = 5;  ///< set-up is the median of this many cold starts
  std::size_t replay_requests = 0;  ///< traced replay length
  /// Requests of the traced residency leg (one-key byte budget).
  std::size_t residency_requests = 0;
};

/// The workload table; throws on an unknown name.
const Workload& workload(const std::string& name);

// ---------------------------------------------------------------------------
// Fixtures: everything a run serves, built once per (workload, seed).

struct FixtureKey {
  std::string name;
  Family family = Family::kHpc;
  std::string path;     ///< version 1 artifact (served at start)
  std::string path_v2;  ///< version 2 (swap key only; empty otherwise)
};

struct Fixtures {
  std::string dir;
  std::vector<FixtureKey> keys;  ///< in the workload's key order
  std::map<Family, std::string> pools;  ///< request-row pool per family
  const FixtureKey& key(const std::string& name) const;
};

/// Build the fixtures for `w` under `seed` into `dir` (deterministic).
void build_fixtures(const Workload& w, std::uint64_t seed,
                    const std::string& dir);
Fixtures read_fixtures(const std::string& dir);

void write_matrix(const std::string& path, const Matrix& m);
Matrix read_matrix(const std::string& path);

/// XXH64 (seed 0) of a whole file.
std::uint64_t file_xxh64(const std::string& path);

// ---------------------------------------------------------------------------
// The request stream: which key and which pool rows each request names.

/// A request names key index `key` (into Fixtures::keys), or an unknown
/// key when key == kUnknownKey, and rows [row, row + rows_per_request).
inline constexpr std::uint32_t kUnknownKey = 0xffffffffu;

class RequestStream {
 public:
  RequestStream(const Workload& w, std::size_t pool_rows, std::uint64_t seed);
  void next(std::uint32_t& key, std::uint32_t& row);

 private:
  const Workload& w_;
  std::mt19937_64 rng_;
  std::size_t row_span_;
  std::uint64_t count_ = 0;
};

/// Deterministic per-purpose seed derivation.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Name of the i-th unknown key (never registered).
std::string unknown_key_name(std::uint32_t i);

// ---------------------------------------------------------------------------
// Helpers.

std::int64_t now_ns();

/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile(const std::vector<double>& sorted, double q);
double median(std::vector<double> values);

/// Compare rows [a_row, a_row + rows) of `a` with rows [b_row, b_row +
/// rows) of `b`, bit for bit, for every column in `outputs`.
bool same_rows(const api::ScoreResult& a, std::size_t a_row,
               const api::ScoreResult& b, std::size_t b_row,
               api::OutputMask outputs, std::size_t rows);

/// Minimal JSON object writer: `j.num("a", 1.5)` etc., then `j.str()`.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, long long value);
  Json& text(const std::string& key, const std::string& value);
  Json& raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);  ///< separator + quoted name + colon
  std::string body_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
