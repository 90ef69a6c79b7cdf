// hmd_train — the "train once" half of the train-once / serve-many split.
//
// Builds (or loads from cache) a dataset bundle, trains a detector, and
// serialises it as a versioned `.hmdf` model artifact
// (core/model_artifact.h). The artifact is then re-loaded and every
// score() column on the held-out split compared bitwise against the
// in-memory detector, so a freshly written file is never shipped
// unverified. Serving happens elsewhere (hmd_serve) with no
// training code on the path.
//
// usage: hmd_train [--dataset=dvfs|hpc] [--model=rf|lr|svm] [--members=N]
//                  [--threads=N] [--scale=F] [--seed=N] [--out=PATH]
//                  [--fleet=N --fleet-dir=DIR [--fleet-copy]]
//
// --fleet=N clones the verified artifact into DIR as N per-member keys
// (`<stem>_0000.hmdf` ...), the synthetic-fleet generator behind
// hmd_serve's fleet-scale knobs: one real training run, N registrable
// artifacts. Clones are hard links by default (byte-identical, near-zero
// disk); --fleet-copy forces independent byte copies (each clone its own
// inode — what an eviction/RSS drill wants).
//
// Exit codes: 0 success, 1 runtime failure (training / verification),
// 2 usage, 3 load or integrity error (a corrupt dataset cache or a
// just-written artifact that fails to reload). Fatal errors are reported
// as one structured line on stderr.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "api/score.h"
#include "common/args.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/hmd.h"
#include "core/model_artifact.h"

namespace {

using namespace hmd;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

[[noreturn]] void usage_error(const std::string& flag) {
  std::fprintf(stderr,
               "hmd_train: bad argument '%s'\n"
               "usage: hmd_train [--dataset=dvfs|hpc] [--model=rf|lr|svm] "
               "[--members=N] [--threads=N] [--scale=F] [--seed=N] "
               "[--out=PATH] [--fleet=N --fleet-dir=DIR [--fleet-copy]]\n",
               flag.c_str());
  std::exit(2);
}

struct TrainArgs {
  std::string dataset = "dvfs";
  core::ModelKind model = core::ModelKind::kRandomForest;
  bench::BenchOptions options;
  std::string out;
  int fleet = 0;  ///< synthetic-fleet clone count; 0 = off
  std::string fleet_dir;
  bool fleet_copy = false;  ///< byte copies instead of hard links
};

TrainArgs parse_args(int argc, char** argv) {
  TrainArgs args;
  args::Parser cli(argc, argv,
                   [](const std::string& bad) { usage_error(bad); });
  std::string model_name;
  std::uint64_t seed = 0;
  while (cli.next()) {
    if (cli.match_choice("--dataset", {"dvfs", "hpc"}, args.dataset)) continue;
    if (cli.match("--model", model_name)) {
      const auto kind = core::parse_model_kind(model_name);
      if (!kind) cli.reject();
      args.model = *kind;
      continue;
    }
    if (cli.match_int("--members", args.options.n_members, 1)) continue;
    if (cli.match_int("--threads", args.options.n_threads)) continue;
    if (cli.match_double("--scale", args.options.scale, 0.0, 16.0,
                         /*min_exclusive=*/true)) {
      continue;
    }
    if (cli.match_int("--seed", seed)) {
      args.options.dvfs_seed = seed;
      args.options.hpc_seed = seed;
      continue;
    }
    if (cli.match("--out", args.out)) continue;
    if (cli.match_int("--fleet", args.fleet, 1)) continue;
    if (cli.match("--fleet-dir", args.fleet_dir)) continue;
    if (cli.match_switch("--fleet-copy", args.fleet_copy)) continue;
    cli.reject();
  }
  if ((args.fleet > 0) != !args.fleet_dir.empty()) {
    usage_error("--fleet and --fleet-dir must be given together");
  }
  return args;
}

/// Clone the verified artifact into `dir` as `fleet` per-member keys.
/// One real training run fans out into a registrable synthetic fleet:
/// every clone is byte-identical to the verified original, so anything
/// served from a clone is served from verified bytes. Hard links keep
/// the fan-out near-free; --fleet-copy gives each clone its own inode
/// (and pages) for eviction / RSS drills.
std::size_t generate_fleet(const std::string& artifact,
                           const std::string& dir, int fleet, bool copy) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string stem = fs::path(artifact).stem().string();
  char suffix[32];
  std::size_t written = 0;
  for (int i = 0; i < fleet; ++i) {
    std::snprintf(suffix, sizeof(suffix), "_%04d.hmdf", i);
    const fs::path clone = fs::path(dir) / (stem + suffix);
    fs::remove(clone);  // re-runs must not trip on last time's fleet
    if (copy) {
      fs::copy_file(artifact, clone);
    } else {
      std::error_code ec;
      fs::create_hard_link(artifact, clone, ec);
      // Cross-device DIR (or a filesystem without links): degrade to a
      // byte copy rather than failing the fleet.
      if (ec) fs::copy_file(artifact, clone);
    }
    ++written;
  }
  return written;
}

int run(TrainArgs args) {
  const data::DatasetBundle bundle = args.dataset == "dvfs"
                                         ? bench::dvfs_bundle(args.options)
                                         : bench::hpc_bundle(args.options);
  if (args.out.empty()) {
    args.out = "models/" + bundle.name + "_" +
               core::model_kind_name(args.model) + "_M" +
               std::to_string(args.options.n_members) + ".hmdf";
  }

  core::HmdConfig config = bench::paper_config(args.options, args.model);
  core::TrustedHmd hmd(config);

  auto start = clock_type::now();
  hmd.fit(bundle.train);
  const double fit_ms = ms_since(start);
  std::printf("trained  %s x%d on %s (%zu samples): %.1f ms, "
              "converged %.0f%%, engine %s\n",
              core::model_kind_name(args.model).c_str(), config.n_members,
              bundle.name.c_str(), bundle.train.size(), fit_ms,
              100.0 * hmd.converged_fraction(), hmd.engine().name().c_str());

  start = clock_type::now();
  core::save_model(hmd, args.out);
  const double save_ms = ms_since(start);
  const auto bytes = std::filesystem::file_size(args.out);
  std::printf("saved    %s: %ju bytes in %.2f ms\n", args.out.c_str(),
              static_cast<std::uintmax_t>(bytes), save_ms);

  // Never ship an unverified artifact: reload and demand bit-identical
  // outputs on the held-out split — every column of a full-mask score(),
  // compared bytewise (all six uncertainty scores, confidence, trusted).
  start = clock_type::now();
  const core::TrustedHmd served = core::load_model(args.out, 1);
  const double load_ms = ms_since(start);
  api::ScoreRequest request;
  request.x = &bundle.test.X;
  request.outputs = api::kDetectionOutputs | api::kEstimateOutputs;
  api::ScoreResult want, got;
  hmd.score(request, want);
  served.score(request, got);
  std::vector<std::uint8_t> differs(want.rows, 0);
  const auto compare = [&](const auto& a, const auto& b) {
    for (std::size_t r = 0; r < want.rows; ++r) {
      if (std::memcmp(&a[r], &b[r], sizeof(a[r])) != 0) differs[r] = 1;
    }
  };
  compare(want.prediction, got.prediction);
  compare(want.confidence, got.confidence);
  compare(want.votes, got.votes);
  compare(want.vote_entropy, got.vote_entropy);
  compare(want.soft_entropy, got.soft_entropy);
  compare(want.expected_entropy, got.expected_entropy);
  compare(want.mutual_information, got.mutual_information);
  compare(want.variation_ratio, got.variation_ratio);
  compare(want.max_probability, got.max_probability);
  compare(want.score, got.score);
  compare(want.trusted, got.trusted);
  const auto mismatches = static_cast<std::size_t>(
      std::count(differs.begin(), differs.end(), std::uint8_t{1}));
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "hmd_train: artifact verification FAILED: %zu of %zu "
                 "rows differ from the in-memory detector\n",
                 mismatches, want.rows);
    return 1;
  }
  std::printf("verified %s: reloaded in %.2f ms (%.0fx faster than "
              "retraining), %zu/%zu rows bit-identical in every score() "
              "column\n",
              args.out.c_str(), load_ms, fit_ms / load_ms, want.rows,
              want.rows);

  if (args.fleet > 0) {
    start = clock_type::now();
    const std::size_t cloned = generate_fleet(args.out, args.fleet_dir,
                                              args.fleet, args.fleet_copy);
    std::printf("fleet    %zu %s of %s in %s: %.1f ms\n", cloned,
                args.fleet_copy ? "copy(ies)" : "hard link(s)",
                args.out.c_str(), args.fleet_dir.c_str(), ms_since(start));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  TrainArgs args = parse_args(argc, argv);
  fail::arm_from_env();
  try {
    return run(std::move(args));
  } catch (const LoadError& error) {
    // One structured line, machine-greppable: tool, class, code, path,
    // detail — what a supervisor needs to decide retry vs page.
    std::fprintf(stderr, "hmd_train: fatal load error [%s] %s: %s\n",
                 load_error_code_name(error.code()), error.path().c_str(),
                 error.detail().c_str());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hmd_train: fatal error: %s\n", error.what());
    return 1;
  }
}
