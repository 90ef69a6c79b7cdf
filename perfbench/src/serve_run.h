#pragma once
// The two measuring entry points of the perfbench tool (see main.cpp).

#include <cstdint>
#include <string>

namespace perfbench {

struct ServeRunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string fixtures;  ///< fixture directory (built by `fixtures`)
  std::string server;    ///< path of the hmd_serve binary
  std::string work_dir;  ///< scratch: served model copies, staging
  bool skip_cold_starts = false;
};

/// Untraced end-to-end run against a real `hmd_serve --listen` process.
int serve_run(const ServeRunOptions& options);

/// In-process replay of the workload's request stream through the
/// server's layers, untraced and traced, plus artifact-load stages.
int replay(const ServeRunOptions& options);

}  // namespace perfbench
