// hmd_client — reference client and load generator for the HMDW socket
// front-end (hmd_serve --listen, serve/wire.h).
//
// Connects N concurrent connections to a running server and drives
// scoring traffic built from the same dataset bundles the benches use,
// either closed-loop (--pipeline outstanding requests per connection,
// the default) or open-loop (--rate total requests/second across all
// connections). Per-request latency is sampled client-side and reported
// as p50/p90/p99/p99.9.
//
// --verify=ARTIFACT turns the run into a bit-parity check: the artifact
// is loaded locally, the whole source matrix is scored directly through
// score() under the same outputs/mode, and every response byte is
// compared against the matching row slice. Any mismatch — or any error
// frame — fails the run. This is the over-the-wire half of the serving
// contract in serve/wire.h: framing, batching, coalescing, and
// scatter-gather must be invisible in the bytes.
//
// --accuracy=fast stamps the fast tier (wire header byte 6) on every
// request. The --verify oracle is always scored exact-tier, so a
// fast-tier verify run checks the accuracy contract in api/score.h
// end to end: integer columns stay bitwise, double columns must land
// within the vmath kernels' ULP band of the exact values.
//
// Exit codes: 0 success, 1 parity mismatch / error frames / transport
// failure, 2 usage, 3 cannot load the --verify artifact.
//
// usage: hmd_client --connect=HOST:PORT --model=KEY [--dataset=dvfs|hpc]
//                   [--scale=F] [--threads=N] [--requests=N] [--rows=N]
//                   [--connections=N] [--pipeline=N] [--rate=RPS]
//                   [--outputs=prediction|detect|estimate] [--mode=NAME]
//                   [--accuracy=exact|fast] [--verify=ARTIFACT]

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "api/score.h"
#include "bench_common.h"
#include "common/args.h"
#include "common/error.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "core/uncertainty.h"
#include "loadgen.h"

namespace {

using namespace hmd;

[[noreturn]] void usage_error(const std::string& flag) {
  std::fprintf(
      stderr,
      "hmd_client: bad argument '%s'\n"
      "usage: hmd_client --connect=HOST:PORT --model=KEY "
      "[--dataset=dvfs|hpc] [--scale=F] [--threads=N] [--requests=N] "
      "[--rows=N] [--connections=N] [--pipeline=N] [--rate=RPS] "
      "[--outputs=prediction|detect|estimate] [--mode=NAME] "
      "[--accuracy=exact|fast] [--verify=ARTIFACT]\n",
      flag.c_str());
  std::exit(2);
}

struct ClientArgs {
  std::string connect;
  std::string model_key;
  std::string dataset = "dvfs";
  std::string verify_artifact;
  api::OutputMask outputs = api::kDetectionOutputs;
  std::string outputs_name = "detect";
  std::optional<core::UncertaintyMode> mode;
  core::Accuracy accuracy = core::Accuracy::kExact;
  std::string accuracy_name = "exact";
  std::uint64_t requests = 1000;
  std::size_t rows = 8;
  int connections = 1;
  int pipeline = 1;
  double rate = 0.0;
  bench::BenchOptions options;
};

std::optional<core::UncertaintyMode> parse_mode(const std::string& name) {
  for (int m = 0; m <= static_cast<int>(core::UncertaintyMode::kMaxProbability);
       ++m) {
    const auto mode = static_cast<core::UncertaintyMode>(m);
    if (name == core::uncertainty_mode_name(mode)) return mode;
  }
  return std::nullopt;
}

ClientArgs parse_args(int argc, char** argv) {
  ClientArgs args;
  args::Parser cli(argc, argv,
                   [](const std::string& bad) { usage_error(bad); });
  std::string mode_name;
  while (cli.next()) {
    if (cli.match("--connect", args.connect)) {
      if (!args::parse_host_port(args.connect, /*min_port=*/1)) cli.reject();
      continue;
    }
    if (cli.match("--model", args.model_key)) continue;
    if (cli.match_choice("--dataset", {"dvfs", "hpc"}, args.dataset)) continue;
    if (cli.match_double("--scale", args.options.scale, 0.0, 16.0,
                         /*min_exclusive=*/true)) {
      continue;
    }
    if (cli.match_int("--threads", args.options.n_threads)) continue;
    if (cli.match_int("--requests", args.requests, 1)) continue;
    if (cli.match_int("--rows", args.rows, 1)) continue;
    if (cli.match_int("--connections", args.connections, 1)) continue;
    if (cli.match_int("--pipeline", args.pipeline, 1)) continue;
    if (cli.match_double("--rate", args.rate, 0.0)) continue;
    if (cli.match_choice("--outputs", {"prediction", "detect", "estimate"},
                         args.outputs_name)) {
      args.outputs = args.outputs_name == "prediction"
                         ? (api::kPredictionOnly | api::kOutTrusted)
                     : args.outputs_name == "detect" ? api::kDetectionOutputs
                                                     : api::kEstimateOutputs;
      continue;
    }
    if (cli.match("--mode", mode_name)) {
      args.mode = parse_mode(mode_name);
      if (!args.mode) cli.reject();
      continue;
    }
    if (cli.match_choice("--accuracy", {"exact", "fast"},
                         args.accuracy_name)) {
      args.accuracy = args.accuracy_name == "fast" ? core::Accuracy::kFast
                                                   : core::Accuracy::kExact;
      continue;
    }
    if (cli.match("--verify", args.verify_artifact)) continue;
    cli.reject();
  }
  if (args.connect.empty()) usage_error("<missing --connect=HOST:PORT>");
  if (args.model_key.empty()) usage_error("<missing --model=KEY>");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const ClientArgs args = parse_args(argc, argv);

  serve::LoadGenOptions options;
  const auto endpoint = args::parse_host_port(args.connect, /*min_port=*/1);
  if (!endpoint) usage_error("--connect=" + args.connect);
  options.host = endpoint->host;
  options.port = endpoint->port;
  options.model_key = args.model_key;
  options.outputs = args.outputs;
  options.mode = args.mode;
  options.accuracy = args.accuracy;
  options.rows_per_request = args.rows;
  options.connections = args.connections;
  options.pipeline = args.pipeline;
  options.open_loop_rps = args.rate;
  options.total_requests = args.requests;

  const data::DatasetBundle bundle = args.dataset == "dvfs"
                                         ? bench::dvfs_bundle(args.options)
                                         : bench::hpc_bundle(args.options);
  options.source = &bundle.test.X;

  // Bit-parity oracle: direct score() of the whole source under the same
  // outputs/mode, computed single-threaded so the run is deterministic.
  api::ScoreResult expected;
  std::optional<core::TrustedHmd> oracle;
  if (!args.verify_artifact.empty()) {
    try {
      oracle.emplace(core::load_model(args.verify_artifact, /*n_threads=*/1));
    } catch (const LoadError& error) {
      std::fprintf(stderr, "hmd_client: cannot load %s: [%s] %s\n",
                   args.verify_artifact.c_str(),
                   load_error_code_name(error.code()),
                   error.detail().c_str());
      return 3;
    }
    api::ScoreRequest request;
    request.x = &bundle.test.X;
    request.outputs = args.outputs;
    request.mode = args.mode;
    oracle->score(request, expected);
    options.expected = &expected;
  }

  std::printf("client   %s:%u model=%s outputs=%s accuracy=%s rows/req=%zu "
              "conns=%d %s\n",
              options.host.c_str(), options.port, args.model_key.c_str(),
              args.outputs_name.c_str(), args.accuracy_name.c_str(),
              args.rows, args.connections,
              args.rate > 0.0
                  ? ("open-loop " + std::to_string(args.rate) + " rps").c_str()
                  : ("closed-loop pipeline=" + std::to_string(args.pipeline))
                        .c_str());
  std::fflush(stdout);

  serve::LoadGenReport report;
  try {
    report = serve::run_load(options);
  } catch (const HmdError& error) {
    std::fprintf(stderr, "hmd_client: transport failure: %s\n", error.what());
    return 1;
  }

  std::printf("traffic  %llu request(s) sent, %llu result(s), %llu error "
              "frame(s), %llu row(s) in %.3f s\n",
              static_cast<unsigned long long>(report.requests_sent),
              static_cast<unsigned long long>(report.results_ok),
              static_cast<unsigned long long>(report.wire_errors),
              static_cast<unsigned long long>(report.rows), report.seconds);
  std::printf("rate     %.0f req/s, %.0f rows/s\n", report.requests_per_sec,
              report.rows_per_sec);
  std::printf("latency  p50 %.1f us, p90 %.1f us, p99 %.1f us, p99.9 %.1f "
              "us, max %.1f us, mean %.1f us\n",
              report.p50_us, report.p90_us, report.p99_us, report.p999_us,
              report.max_us, report.mean_us);
  if (!report.last_error.empty()) {
    std::printf("error    last error frame: %s\n", report.last_error.c_str());
  }
  if (!args.verify_artifact.empty()) {
    const char* ok_text =
        args.accuracy == core::Accuracy::kFast
            ? "ok (within ULP tolerance of direct exact score())"
            : "ok (bit-identical to direct score())";
    std::printf("parity   %s\n",
                report.parity_ok ? ok_text : report.parity_detail.c_str());
  }

  const bool failed = report.wire_errors > 0 || !report.parity_ok ||
                      report.results_ok < report.requests_sent;
  return failed ? 1 : 0;
}
