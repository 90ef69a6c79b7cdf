#pragma once
// Deterministic fault-injection seam for the artifact / registry / serving
// tiers. A failpoint is a named site in library code; tests (and tools,
// via the HMD_FAILPOINTS environment variable) arm a site with an action —
// throw a typed LoadError, or sleep — optionally limited to the first N
// hits. Nothing is armed by default.
//
// Cost discipline: every instrumented site is the HMD_FAILPOINT macro,
// whose disarmed fast path is a single relaxed atomic load of a global
// counter (no lock, no map lookup, no string work). Sites live only on
// cold paths (artifact open, mmap, registry load, JIT compile) — never
// per-sample.
// Building with -DHMD_NO_FAILPOINTS compiles every site out entirely for
// deployments that want literal zero cost.
//
// Environment syntax (parsed by arm_from_env, called by the tools'
// main()):
//
//   HMD_FAILPOINTS="<name>=<action>[;<name>=<action>...]"
//   action := error:<code>[:<count>] | delay:<ms>[:<count>]
//   code   := io | truncated | checksum | bad-magic | bad-version |
//             bad-structure | mmap-failed
//
// e.g. HMD_FAILPOINTS="mmap.map=error:mmap-failed:1;registry.load=delay:50"
// makes the first mmap attempt fail (exercising the stream fallback) and
// every registry load 50 ms slow. A count of 0 / omitted count means
// "every hit".
//
// Instrumented sites: artifact.load (core::load_model entry),
// mmap.map (MappedFile::map), registry.load (DetectorRegistry's per-entry
// load attempt, before the loader runs), jit.tree (each tree boundary of
// a JIT compile; an error there declines the compile, a delay stretches
// it).

#include <atomic>
#include <cstddef>
#include <string>

#include "common/error.h"

namespace hmd::fail {

/// What an armed failpoint does when its site is hit.
struct Spec {
  enum class Action : std::uint8_t { kError, kDelay };
  Action action = Action::kError;
  /// For kError: the LoadError code to throw.
  LoadErrorCode code = LoadErrorCode::kIo;
  /// For kDelay: how long to sleep per hit.
  int delay_ms = 0;
  /// Fire this many times then auto-disarm; <= 0 means every hit.
  int count = 0;
};

/// Arm `name` with `spec` (replacing any previous arming).
void arm(const std::string& name, const Spec& spec);

/// Disarm one site / every site. Hit counters survive disarm (tests
/// assert on them after the run); arm() resets the site's counter.
void disarm(const std::string& name);
void disarm_all();

/// Times `name` actually fired (threw or slept) since it was last armed.
int hit_count(const std::string& name);

/// Parse HMD_FAILPOINTS (see header comment) and arm accordingly.
/// Returns the number of sites armed; malformed entries are skipped with
/// a one-line stderr warning rather than aborting the tool.
std::size_t arm_from_env(const char* env_var = "HMD_FAILPOINTS");

namespace detail {
extern std::atomic<int> n_armed;
/// Slow path: look `name` up and apply its action (may throw LoadError
/// carrying `context` as the path). No-op when the site is not armed.
void point(const char* name, const char* context);
}  // namespace detail

/// True when any site is armed (the macro's fast-path check).
inline bool armed_any() {
  return detail::n_armed.load(std::memory_order_relaxed) != 0;
}

}  // namespace hmd::fail

#if defined(HMD_NO_FAILPOINTS)
#define HMD_FAILPOINT(name, context) \
  do {                               \
  } while (false)
#else
#define HMD_FAILPOINT(name, context)                   \
  do {                                                 \
    if (::hmd::fail::armed_any()) {                    \
      ::hmd::fail::detail::point((name), (context));   \
    }                                                  \
  } while (false)
#endif
