// hmd_serve — the "serve many" half of the train-once / serve-many split,
// as a multi-model socket server.
//
// A DetectorRegistry (api/detector_registry.h) maps model keys to `.hmdf`
// artifacts: --models=DIR registers every artifact in a directory (keyed
// by stem) and positional paths register individual files. Every key is
// loaded once at startup; the server then listens on --listen=HOST:PORT
// (required) with the socket front-end (serve/server.h): an epoll event
// loop speaking the HMDW wire protocol (serve/wire.h), coalescing client
// requests through the adaptive micro-batcher (serve/batcher.h; sized by
// --batch-rows / --batch-delay-us) into the score() spine. Clients pick
// their own OutputMask, uncertainty mode and accuracy tier per request
// (tools/hmd_client is the reference client and load generator). The
// server runs until SIGINT/SIGTERM, then drains and prints traffic,
// accuracy, batcher, served, health and fleet summaries.
//
// The registry re-stats artifacts every --refresh-ms milliseconds (a
// timerfd inside the event loop) and hot-swaps any that changed on disk:
// retrained models are picked up without a restart, hot-swap latency is
// independent of traffic, and snapshots held by in-flight batches stay
// valid. Publish a replacement with temp file + rename — the only safe
// way to swap an artifact other processes may be mmap-serving.
//
// --mmap picks how artifact bytes are materialised: on requires a
// mapping (v2 artifacts served in place — model residency = pages
// actually touched), off forces the full-copy read path. Without the
// flag the mode is auto: map, falling back to a full read if the
// mapping fails.
//
// Failure handling: the server degrades, it does not crash. A model whose
// artifact fails to load at startup is skipped with a warning; a model
// whose *replacement* fails mid-run keeps serving its last-good snapshot
// (the registry's retry/quarantine machinery, detector_registry.h) and
// every health-state transition is logged as a `health` line; shutdown
// prints a per-model health summary. Exit codes: 0 success, 1 runtime
// failure, 2 usage, 3 nothing servable / fatal load error.
// HMD_FAILPOINTS (common/failpoint.h) is honoured for fault-injection
// drills.
//
// Fleet-scale knobs: --residency-mb=N bounds how many artifact bytes stay
// resident (the registry evicts the coldest unleased models past the
// budget and transparently reloads them on next use; 0 = unbounded). The
// budget counts artifact bytes only, not native JIT code: an HPC RF with
// M=100 is a 6 MB artifact but 26.5 MB of compiled kernels, so a
// JIT-heavy fleet can hold several times its budget (counting that code
// is the code-cache step of ROADMAP item 2). --filter=off disables the
// cuckoo-filter front door that rejects unknown-model lookups without
// touching a shard lock. Shutdown prints
// `fleet`/`resident` summary lines with filter occupancy and eviction
// counters, and each `health` line carries the entry's eviction tally.
//
// Kernel knobs: --jit=on|off|auto sets the native-compilation policy for
// every engine loaded (jit/jit.h; the `serving` line shows it). A forest
// the policy accepts serves the interpreted arena at once and compiles
// on the background JIT worker; when the native kernels install, the
// next refresh tick logs `kernel   KEY arena -> jit (compile N ms)`.
// --simd=auto|scalar|avx2|avx512 caps the runtime ISA dispatch for the
// fast tier's vectorised kernels (simd/cpu.h; the flag beats the
// HMD_SIMD env var, and neither can raise the level above what CPUID
// detected).
//
// usage: hmd_serve --listen=HOST:PORT [--models=DIR] [model.hmdf ...]
//                  [--threads=N] [--refresh-ms=N] [--batch-rows=N]
//                  [--batch-delay-us=N] [--mmap[=on|off]]
//                  [--jit[=on|off|auto]] [--residency-mb=N]
//                  [--filter[=on|off]] [--simd=auto|scalar|avx2|avx512]

#include <csignal>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/detector_registry.h"
#include "common/args.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/hmd.h"
#include "jit/jit.h"
#include "serve/server.h"
#include "simd/cpu.h"

namespace {

using namespace hmd;
using clock_type = std::chrono::steady_clock;

[[noreturn]] void usage_error(const std::string& flag) {
  std::fprintf(
      stderr,
      "hmd_serve: bad argument '%s'\n"
      "usage: hmd_serve --listen=HOST:PORT [--models=DIR] [model.hmdf ...] "
      "[--threads=N] [--refresh-ms=N] [--batch-rows=N] [--batch-delay-us=N] "
      "[--mmap[=on|off]] [--jit[=on|off|auto]] [--residency-mb=N] "
      "[--filter[=on|off]] [--simd=auto|scalar|avx2|avx512]\n",
      flag.c_str());
  std::exit(2);
}

struct ServeArgs {
  std::string models_dir;
  std::vector<std::string> artifacts;
  serve::ServerOptions server;
  /// Registry load/inference width; <= 0 = all cores. Defaults to 1: a
  /// served batch is one 256-row tile, so wider pools only add idle
  /// workers to every loaded model.
  int n_threads = 1;
  core::LoadMode load_mode = core::LoadMode::kAuto;
  int residency_mb = 0;  ///< resident-artifact budget; 0 = unbounded
  bool filter = true;    ///< cuckoo-filter front door for unknown keys
};

ServeArgs parse_args(int argc, char** argv) {
  ServeArgs args;
  args.server.refresh_ms = 1000;
  args::Parser cli(argc, argv,
                   [](const std::string& bad) { usage_error(bad); });
  std::string listen;
  std::string toggle;
  while (cli.next()) {
    if (cli.match("--models", args.models_dir)) continue;
    if (cli.match("--listen", listen)) {
      const auto endpoint = args::parse_host_port(listen);
      if (!endpoint) cli.reject();
      args.server.host = endpoint->host;
      args.server.port = endpoint->port;
      continue;
    }
    if (cli.match_int("--threads", args.n_threads)) continue;
    if (cli.match_int("--refresh-ms", args.server.refresh_ms, 0)) continue;
    if (cli.match_int("--batch-rows", args.server.batcher.max_batch_rows, 1)) {
      continue;
    }
    if (cli.match_int("--batch-delay-us", args.server.batcher.max_delay_us,
                      0)) {
      continue;
    }
    if (cli.match_int("--residency-mb", args.residency_mb, 0)) continue;
    if (cli.match_toggle("--filter", toggle)) {
      if (toggle.empty() || toggle == "on") {
        args.filter = true;
      } else if (toggle == "off") {
        args.filter = false;
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match_toggle("--mmap", toggle)) {
      if (toggle.empty() || toggle == "on") {
        args.load_mode = core::LoadMode::kMmap;
      } else if (toggle == "off") {
        args.load_mode = core::LoadMode::kStream;
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match_toggle("--jit", toggle)) {
      // Process-wide policy for every engine loaded after this point:
      // bare --jit / --jit=on forces native compilation, off pins the
      // interpreted arena, auto restores the profitability heuristic.
      if (toggle.empty() || toggle == "on") {
        jit::set_policy(jit::Policy::kOn);
      } else if (toggle == "off") {
        jit::set_policy(jit::Policy::kOff);
      } else if (toggle == "auto") {
        jit::set_policy(jit::Policy::kAuto);
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match("--simd", toggle)) {
      // Cap the runtime ISA dispatch: "auto" restores pure detection,
      // anything else clamps down to the named level (never up — an
      // override cannot make the host execute instructions it lacks).
      if (toggle == "auto") {
        simd::set_isa_override(std::nullopt);
      } else if (const auto level = simd::parse_isa(toggle)) {
        simd::set_isa_override(*level);
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.is_option()) cli.reject();
    args.artifacts.push_back(std::string(cli.token()));
  }
  if (listen.empty()) usage_error("<missing --listen=HOST:PORT>");
  if (args.models_dir.empty() && args.artifacts.empty()) {
    usage_error("<missing --models=DIR or model.hmdf>");
  }
  return args;
}

void describe(const std::string& key, const core::TrustedHmd& hmd) {
  std::printf("model    %-24s %s x%d, engine %s (%zu KiB%s), kernel %s, "
              "threshold %.2f\n",
              key.c_str(), core::model_kind_name(hmd.config().model).c_str(),
              hmd.config().n_members, hmd.engine().name().c_str(),
              hmd.engine().memory_bytes() / 1024,
              hmd.engine().zero_copy() ? ", zero-copy" : "",
              hmd.engine().kernel_backend().c_str(),
              hmd.config().entropy_threshold);
}

/// What the serving log last reported for one key.
struct ReportedState {
  api::HealthState health = api::HealthState::kHealthy;
  std::string kernel;  ///< empty while nothing is loaded
};

/// Log every health-state and kernel-backend transition since the
/// previous call (and update `last`) — the serving log's record of
/// degradation, recovery, and native kernels arriving from the
/// background JIT compile.
void report_health_changes(api::DetectorRegistry& registry,
                           std::map<std::string, ReportedState>& last) {
  for (const api::ModelHealth& entry : registry.health()) {
    ReportedState& seen = last[entry.key];
    if (seen.health != entry.state) {
      if (entry.state == api::HealthState::kHealthy) {
        std::printf("health   %-24s %s -> healthy (recovered)\n",
                    entry.key.c_str(), api::health_state_name(seen.health));
      } else {
        std::printf("health   %-24s %s -> %s: %s\n", entry.key.c_str(),
                    api::health_state_name(seen.health),
                    api::health_state_name(entry.state),
                    entry.last_error.c_str());
      }
    }
    // A load or an eviction (kernel empty on either side) is not a
    // transition; a swap to another backend on the same snapshot — or a
    // hot-swap that went back to the arena — is.
    if (!seen.kernel.empty() && !entry.kernel_backend.empty() &&
        seen.kernel != entry.kernel_backend) {
      std::printf("kernel   %-24s %s -> %s", entry.key.c_str(),
                  seen.kernel.c_str(), entry.kernel_backend.c_str());
      const auto hmd = entry.kernel_backend == "jit"
                           ? registry.try_get(entry.key)
                           : nullptr;
      if (hmd != nullptr) {
        std::printf(" (compile %.1f ms)",
                    hmd->flat_forest().jit_compile_ms());
      }
      std::printf("\n");
    }
    seen.health = entry.state;
    seen.kernel = entry.kernel_backend;
  }
}

/// End-of-run fleet accounting: key/shard spread, filter occupancy and
/// front-door rejections, residency budget vs resident set and eviction
/// counters. One line each, machine-greppable like the other summaries.
void print_fleet_summary(const api::DetectorRegistry& registry) {
  const fleet::FleetStats stats = registry.fleet_stats();
  if (stats.filter.enabled) {
    std::printf(
        "fleet    %zu key(s) in %zu shard(s), filter %zu fingerprint(s) in "
        "%zu segment(s) (occupancy %.2f, fp-bound %.3f%%), %llu unknown-key "
        "reject(s)\n",
        stats.keys, stats.shards, stats.filter.keys, stats.filter.segments,
        stats.filter.occupancy, 100.0 * stats.filter.fp_bound,
        static_cast<unsigned long long>(stats.filter.rejected));
  } else {
    std::printf("fleet    %zu key(s) in %zu shard(s), filter off\n",
                stats.keys, stats.shards);
  }
  const fleet::ResidencyStats& res = stats.residency;
  if (res.budget_bytes > 0) {
    std::printf(
        "resident %zu/%zu KiB across %zu model(s), %llu admit(s), %llu "
        "eviction(s) (%zu KiB), %llu pinned skip(s)\n",
        res.resident_bytes / 1024, res.budget_bytes / 1024,
        res.resident_entries, static_cast<unsigned long long>(res.admits),
        static_cast<unsigned long long>(res.evictions),
        static_cast<std::size_t>(res.evicted_bytes / 1024),
        static_cast<unsigned long long>(res.pinned_skips));
  } else {
    std::printf("resident %zu KiB across %zu model(s), unbounded, %llu "
                "admit(s)\n",
                res.resident_bytes / 1024, res.resident_entries,
                static_cast<unsigned long long>(res.admits));
  }
}

serve::ScoreServer* g_server = nullptr;

void on_stop_signal(int) {
  // Async-signal-safe: request_stop is an atomic store + eventfd write.
  if (g_server != nullptr) g_server->request_stop();
}

/// Host the socket front-end over `registry` until SIGINT/SIGTERM.
int run_listen(const ServeArgs& args, api::DetectorRegistry& registry,
               std::size_t n_models) {
  const serve::ServerOptions& options = args.server;
  const char* load_mode_name = args.load_mode == core::LoadMode::kMmap ? "mmap"
                               : args.load_mode == core::LoadMode::kStream
                                   ? "stream"
                                   : "auto";
  serve::ScoreServer server(registry, options);
  std::map<std::string, ReportedState> health_seen;
  report_health_changes(registry, health_seen);
  server.set_refresh_hook(
      [&registry, &health_seen](const std::vector<std::string>& reloaded) {
        for (const std::string& key : reloaded) {
          std::printf("refresh  reloaded %s\n", key.c_str());
        }
        report_health_changes(registry, health_seen);
        std::fflush(stdout);
      });

  const char* jit_name = !jit::available()                    ? "unavailable"
                         : jit::policy() == jit::Policy::kOn  ? "on"
                         : jit::policy() == jit::Policy::kOff ? "off"
                                                              : "auto";
  std::printf("serving  %zu model(s), load=%s, jit=%s, refresh every %d ms, "
              "batch<=%zu rows, delay<=%lld us\n",
              n_models, load_mode_name, jit_name, options.refresh_ms,
              options.batcher.max_batch_rows,
              static_cast<long long>(options.batcher.max_delay_us));
  std::printf("listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // clients parse the port from this line

  g_server = &server;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  const auto start = clock_type::now();
  server.run();
  const double seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;

  const serve::ServerStats& stats = server.stats();
  const serve::BatcherStats& batcher = server.batcher_stats();
  std::printf("traffic  %llu request(s) -> %llu result(s), %llu error "
              "frame(s), %llu connection(s), %llu send(s)\n",
              static_cast<unsigned long long>(stats.requests_in),
              static_cast<unsigned long long>(stats.results_out),
              static_cast<unsigned long long>(stats.errors_out),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.sends));
  std::printf("accuracy %llu exact-tier, %llu fast-tier request(s), simd "
              "%s\n",
              static_cast<unsigned long long>(stats.requests_exact),
              static_cast<unsigned long long>(stats.requests_fast),
              simd::isa_name(simd::active_isa()));
  const double mean_rows =
      batcher.batches > 0 ? static_cast<double>(batcher.rows) /
                                static_cast<double>(batcher.batches)
                          : 0.0;
  std::printf("batcher  %llu row(s) in %llu batch(es), mean %.1f max %llu "
              "rows/batch (flush: rows-cap %llu, deadline %llu, idle "
              "%llu)\n",
              static_cast<unsigned long long>(batcher.rows),
              static_cast<unsigned long long>(batcher.batches), mean_rows,
              static_cast<unsigned long long>(batcher.max_batch_rows_seen),
              static_cast<unsigned long long>(batcher.flushed_rows_cap),
              static_cast<unsigned long long>(batcher.flushed_deadline),
              static_cast<unsigned long long>(batcher.flushed_idle));
  std::printf("served   %llu row(s) in %.3f s, %llu refresh(es), %llu "
              "hot-swap reload(s)\n",
              static_cast<unsigned long long>(batcher.rows), seconds,
              static_cast<unsigned long long>(stats.refreshes),
              static_cast<unsigned long long>(stats.models_reloaded));
  for (const api::ModelHealth& entry : registry.health()) {
    std::printf(
        "health   %-24s %s, kernel %s, loads ok=%llu failed=%llu "
        "retried=%llu evicted=%llu\n",
        entry.key.c_str(), api::health_state_name(entry.state),
        entry.kernel_backend.empty() ? "-" : entry.kernel_backend.c_str(),
        static_cast<unsigned long long>(entry.loads_ok),
        static_cast<unsigned long long>(entry.loads_failed),
        static_cast<unsigned long long>(entry.retries),
        static_cast<unsigned long long>(entry.evictions));
  }
  print_fleet_summary(registry);
  return 0;
}

int run(const ServeArgs& args) {
  fleet::FleetOptions fleet_options;
  fleet_options.filter = args.filter;
  fleet_options.residency_budget_bytes =
      static_cast<std::size_t>(args.residency_mb) * 1024 * 1024;
  api::DetectorRegistry registry(args.n_threads, args.load_mode,
                                 fleet_options);
  if (!args.models_dir.empty()) {
    const std::size_t found = registry.add_directory(args.models_dir);
    std::printf("registry scanned %s: %zu artifact(s)\n",
                args.models_dir.c_str(), found);
  }
  for (const std::string& path : args.artifacts) {
    const std::string key = std::filesystem::path(path).stem().string();
    if (registry.contains(key)) {
      // add() would silently re-point the key at the later path; make the
      // operator's collision visible instead of dropping a model.
      std::fprintf(stderr,
                   "hmd_serve: duplicate model key '%s' (from %s)\n",
                   key.c_str(), path.c_str());
      return 2;
    }
    registry.add(key, path);
  }

  // Load every registered artifact once, up front. One bad artifact must
  // not take down its healthy siblings: skip it with a warning, like
  // refresh() does.
  std::size_t n_served = 0;
  for (const std::string& key : registry.keys()) {
    try {
      describe(key, *registry.get(key));
      ++n_served;
    } catch (const HmdError& error) {
      std::fprintf(stderr, "hmd_serve: skipping %s: %s\n", key.c_str(),
                   error.what());
    }
  }
  if (n_served == 0) {
    // Nothing servable is a load/integrity outcome (3), not a runtime
    // crash (1): every registered artifact was rejected at load.
    std::fprintf(stderr, "hmd_serve: no models to serve\n");
    return 3;
  }
  return run_listen(args, registry, n_served);
}

}  // namespace

int main(int argc, char** argv) {
  const ServeArgs args = parse_args(argc, argv);
  if (const std::size_t armed = fail::arm_from_env()) {
    std::fprintf(stderr, "hmd_serve: %zu failpoint(s) armed from env\n",
                 armed);
  }
  try {
    return run(args);
  } catch (const LoadError& error) {
    // One structured line, machine-greppable: tool, class, code, path,
    // detail — what a supervisor needs to decide retry vs page.
    std::fprintf(stderr, "hmd_serve: fatal load error [%s] %s: %s\n",
                 load_error_code_name(error.code()), error.path().c_str(),
                 error.detail().c_str());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hmd_serve: fatal error: %s\n", error.what());
    return 1;
  }
}
