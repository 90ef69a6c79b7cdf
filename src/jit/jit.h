#pragma once
// Tree-to-native JIT: compile a loaded FlatForestEngine's arena into
// straight-line x86-64 batch kernels with thresholds, leaf posteriors,
// entropies and votes baked in as RIP-relative constants.
//
// A compiled ForestProgram holds four entry points — one per StatsMask
// shape (posterior and/or entropy demanded; votes always) — sharing one
// sealed CodeBuffer. Each kernel has the engine's uniform batch-kernel
// signature: a column-major tile transposed at the fixed
// FlatForestEngine::kTileRows stride (so every feature column lives at a
// compile-time displacement), the live row count, and the three
// accumulator arrays. Masked-out accumulators are never touched by the
// corresponding shape's code — the generated kernel for a
// prediction-only request contains no posterior or entropy instructions
// at all.
//
// Codegen strategy (mirrors the interpreter so results stay
// bit-identical — asserted by the JitParity test suite):
//   depth<=1 trees  fused compare+blend straight-line sequence: one
//                   cmpsd(LE) mask + andpd/andnpd/orpd select per
//                   payload, all scalar-double and branch-free. NaN
//                   compares false and therefore selects the hi leaf,
//                   exactly like the interpreter's !(x <= t).
//   deeper trees    compare/branch chains: ucomisd threshold-vs-sample
//                   with jb taken iff t < x or unordered (NaN descends
//                   right), leaves accumulate their constants and jump
//                   to the row epilogue.
// Trees are emitted in ascending member order with a per-tree row loop,
// so per-sample accumulation order matches the interpreter exactly and
// IEEE addition makes every partial sum bit-identical.
//
// Emission runs in memory that tracks the code it produces. The buffer
// opens with the constant pool: every threshold, posterior and entropy
// is interned once, by bit pattern, and written there before any code,
// after which the dedup index is freed. Each constant load is then
// emitted with its final displacement. Branches are the only fixups,
// and they are patched as each tree is finished, so their bookkeeping
// is sized by the largest tree. The buffer grows by moving its pages
// (mremap on Linux), never by holding two copies. A compile's peak is
// therefore about 1.1x the code it emits.
//
// Availability and gating:
//   compile-time  x86-64 + POSIX mmap only; -DHMD_NO_JIT compiles the
//                 backend out entirely (available() is then false and
//                 compile_forest() returns nullptr).
//   run-time      a three-state Policy (HMD_JIT env var / the serving
//                 tools' --jit flag / set_policy()): kOff never
//                 compiles, kOn always does, and the default kAuto
//                 compiles only forests the generator predicts it can
//                 beat the interpreter on: deep-tree dominated, and
//                 small. Stump-dominated ensembles stay interpreted,
//                 because the compiler auto-vectorises the
//                 interpreter's stump loop across rows and scalar
//                 straight-line code cannot outrun it. Large deep
//                 forests stay interpreted too: the interpreter walks
//                 deep trees several rows at a time with prefetched
//                 node loads, which hides the misses of an arena
//                 larger than cache, while native code (~110 bytes per
//                 node) falls out of cache itself. Past ~16k nodes
//                 compiling is a regression (the crossover table sits
//                 next to should_compile). No policy compiles an arena
//                 past the generator's size cap (2^18 nodes), and
//                 compile_forest() also declines absurd inputs (feature
//                 displacement overflow, oversized arenas) so callers
//                 fall back to the interpreted arena with zero behavior
//                 change.
//
// Background compilation: an engine never compiles on the thread that
// builds it. FlatForestEngine serves its interpreted arena kernels from
// the moment it is constructed and, when should_compile() accepts the
// forest, queues it with compile_in_background(). One worker thread per
// process, started by the first job (so a process whose forests all
// stay interpreted, under kOff, -DHMD_NO_JIT, or kAuto with only stump
// or large forests, never spawns it), compiles the queue in FIFO order
// and publishes each sealed ForestProgram with one release store; the
// engine reads that pointer once per stats_batch call, so a batch runs
// wholly on one backend. Both backends are bit-identical, so the switch
// is invisible in the outputs. Cancelling a job (the engine's
// destructor does, on hot-swap, eviction or drop) removes it from the
// queue, or stops an in-flight compile at its next tree boundary and
// waits for exactly that; afterwards the worker never reads the forest
// again.
//
// Thread-safety: the policy flag is atomic; ForestProgram is immutable
// after compile_forest() returns, so concurrent kernel calls need no
// synchronisation; CompileJob's members are safe to call from any
// thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "jit/code_buffer.h"

#if defined(__x86_64__) && !defined(HMD_NO_JIT) && \
    (defined(__unix__) || defined(__APPLE__))
#define HMD_JIT_SUPPORTED 1
#else
#define HMD_JIT_SUPPORTED 0
#endif

namespace hmd::core {
class FlatForestEngine;
}  // namespace hmd::core

namespace hmd::jit {

/// Compiled into the build and running on a JIT-capable target?
bool available();

/// When to compile a loaded forest to native code.
enum class Policy {
  kAuto,  ///< compile when predicted profitable (small deep forests) — default
  kOn,    ///< compile every eligible forest (bench/parity forcing)
  kOff,   ///< never compile; interpreted arena everywhere
};

/// The process-wide policy. Defaults from the HMD_JIT environment
/// variable (on / off / auto; unset = auto) and is overridden by the
/// serving tools' --jit flag via set_policy(). Affects engines loaded
/// after the call, never ones already constructed. Atomic — safe to
/// read from concurrent loads.
Policy policy();
void set_policy(Policy p);

/// Should this forest be compiled under the current policy? False
/// whenever !available() or the arena exceeds the generator's size cap,
/// whatever the policy. Under kAuto this is the profitability
/// heuristic: compile only when per-row work is dominated by deep-tree
/// traversal (the interpreter already vectorises stump-table forests
/// better than scalar native code can) and the arena is small enough
/// that native code still beats the interpreter's interleaved walk.
bool should_compile(const core::FlatForestEngine& forest);

/// Native batch kernels for one forest. Index a kernel by StatsMask
/// shape: (posterior ? 1 : 0) | (entropy ? 2 : 0).
class ForestProgram {
 public:
  /// xt is the tile transposed at the fixed kTileRows stride; votes /
  /// sum_p1 / sum_entropy are dense accumulators of `tile` doubles. A
  /// shape that does not demand a field never dereferences its pointer.
  using KernelFn = void (*)(const double* xt, std::size_t tile,
                            double* votes, double* sum_p1,
                            double* sum_entropy);

  KernelFn kernel(unsigned shape) const { return kernels_[shape & 3]; }
  double compile_ms() const { return compile_ms_; }
  std::size_t code_bytes() const { return code_.size(); }

 private:
  friend std::unique_ptr<ForestProgram> compile_forest(
      const core::FlatForestEngine& forest, const std::atomic<bool>* cancel);

  CodeBuffer code_;
  KernelFn kernels_[4] = {nullptr, nullptr, nullptr, nullptr};
  double compile_ms_ = 0.0;
};

/// Compile `forest`'s arena into native kernels. Returns nullptr when
/// the JIT is unavailable, the forest exceeds the generator's limits,
/// emission fails for any reason, or `cancel` (polled at every tree
/// boundary; may be null) reads true — the caller keeps the interpreted
/// kernels. Does NOT consult policy(): that belongs to the caller.
std::unique_ptr<ForestProgram> compile_forest(
    const core::FlatForestEngine& forest,
    const std::atomic<bool>* cancel = nullptr);

/// One forest's compile on the background worker (see the file header).
/// Created by compile_in_background(); the forest must stay alive and
/// unmodified until cancel() returns.
class CompileJob {
 public:
  /// The installed native program: null while the job is queued or
  /// compiling, and for good once it was declined or cancelled. One
  /// acquire load — pairs with the worker's release store.
  const ForestProgram* program() const {
    return program_.load(std::memory_order_acquire);
  }

  /// Block until the job has finished: installed, declined or cancelled.
  void wait() const;

  /// Drop the job if it is still queued; if it is compiling, make it stop
  /// at the next tree boundary and wait for that. An installed program
  /// stays installed. On return the worker never touches the forest.
  void cancel();

 private:
  friend class CompileWorker;
  enum class State : std::uint8_t { kQueued, kRunning, kDone };

  explicit CompileJob(const core::FlatForestEngine& forest)
      : forest_(&forest) {}

  const core::FlatForestEngine* forest_;
  std::atomic<bool> cancel_{false};
  State state_ = State::kQueued;  ///< guarded by the worker's mutex
  std::unique_ptr<ForestProgram> owned_;  ///< written once, by the worker
  std::atomic<const ForestProgram*> program_{nullptr};
};

/// Queue `forest` on the process's background compile worker, starting
/// the worker on first use. The caller owns the job and must cancel() it
/// before the forest is destroyed.
std::shared_ptr<CompileJob> compile_in_background(
    const core::FlatForestEngine& forest);

}  // namespace hmd::jit
