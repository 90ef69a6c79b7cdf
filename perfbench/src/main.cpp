// perfbench — the measuring tool of the repository benchmark (run.py calls
// it).
//
//   perfbench host
//       one JSON object: compiler, build type, JIT policy, SIMD level.
//   perfbench fixtures --workload W --seed N --dir D
//       build W's fixtures for seed N into D (deterministic).
//   perfbench serve --workload W --seed N --seconds S --fixtures D
//                   --server PATH --work DIR [--no-cold-starts]
//       untraced end-to-end run against `hmd_serve --listen`.
//   perfbench replay --workload W --seed N --fixtures D
//       in-process traced replay (per-layer self times) + load stages.
//
// Every measuring command prints one JSON object on stdout.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "jit/jit.h"
#include "serve_run.h"
#include "simd/cpu.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench host | fixtures --workload W --seed N --dir D"
               " | serve|replay --workload W --seed N --seconds S "
               "--fixtures D --server PATH --work DIR [--no-cold-starts]\n");
  std::exit(2);
}

int host() {
  const char* policy = "auto";
  if (hmd::jit::policy() == hmd::jit::Policy::kOn) policy = "on";
  if (hmd::jit::policy() == hmd::jit::Policy::kOff) policy = "off";
  std::printf("%s\n",
              perfbench::Json()
                  .text("compiler", PERFBENCH_COMPILER)
                  .text("build_type", PERFBENCH_BUILD_TYPE)
                  .text("jit_policy", policy)
                  .text("jit_available", hmd::jit::available() ? "yes" : "no")
                  .text("simd", hmd::simd::isa_name(hmd::simd::active_isa()))
                  .str()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  perfbench::ServeRunOptions options;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-cold-starts") {
      options.skip_cold_starts = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--fixtures") options.fixtures = value;
    else if (flag == "--server") options.server = value;
    else if (flag == "--work") options.work_dir = value;
    else if (flag == "--dir") dir = value;
    else usage();
  }
  try {
    if (command == "host") return host();
    if (command == "fixtures") {
      perfbench::build_fixtures(perfbench::workload(options.workload),
                                options.seed, dir);
      return 0;
    }
    if (command == "serve") return perfbench::serve_run(options);
    if (command == "replay") return perfbench::replay(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  usage();
}
