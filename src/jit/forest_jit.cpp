#include "jit/jit.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/flat_forest.h"
#include "jit/x64_emitter.h"

namespace hmd::jit {

namespace {

Policy env_default_policy() {
  const char* env = std::getenv("HMD_JIT");
  if (env == nullptr) return Policy::kAuto;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off" || v == "0" || v == "false" || v == "no") return Policy::kOff;
  if (v == "on" || v == "1" || v == "true" || v == "yes") return Policy::kOn;
  return Policy::kAuto;
}

std::atomic<Policy>& policy_flag() {
  static std::atomic<Policy> flag{env_default_policy()};
  return flag;
}

}  // namespace

bool available() { return HMD_JIT_SUPPORTED != 0; }

Policy policy() { return policy_flag().load(std::memory_order_relaxed); }

void set_policy(Policy p) {
  policy_flag().store(p, std::memory_order_relaxed);
}

namespace {

/// The generator's size cap: past it a forest would emit tens of MB of
/// code per shape, so no policy compiles it and compile_forest declines.
constexpr std::size_t kMaxJitNodes = std::size_t{1} << 18;

/// kAuto's size cap. The interpreter walks deep trees kWalkLanes rows at
/// a time with the next node prefetched, so its arena misses overlap;
/// native code emits ~110 bytes per node (four shapes) and falls out of
/// cache instead. Per-row stats_batch, 64-row batches, HPC RF M=100,
/// arena vs native (Xeon, avx512, one pinned CPU; medians of 3 runs,
/// full mask):
///     7,704 nodes   4.4 vs  3.5 us     24,856 nodes  5.3 vs  5.5 us
///    11,780 nodes   4.7 vs  4.1 us     32,212 nodes  5.2 vs  6.3 us
///    16,516 nodes   4.8 vs  4.9 us     64,828 nodes  6.0 vs 10.4 us
///    19,926 nodes   4.9 vs  5.4 us    253,842 nodes  8.3 vs 26.6 us
/// Native code wins up to ~16k nodes; past that it is a loss.
constexpr std::size_t kAutoMaxNodes = std::size_t{1} << 14;

}  // namespace

bool should_compile(const core::FlatForestEngine& forest) {
  if (!available() || forest.n_nodes() > kMaxJitNodes) return false;
  switch (policy()) {
    case Policy::kOff:
      return false;
    case Policy::kOn:
      return true;
    case Policy::kAuto:
      break;
  }
  // Profitability: a stump costs the interpreter ~1 vectorised
  // compare+blend step per row, which scalar native code cannot outrun,
  // so deep-tree node work must dwarf the stump count; and the arena must
  // be small enough that native code still beats the interleaved walk.
  const std::size_t stump_trees = forest.n_stumps();
  const std::size_t stump_nodes = stump_trees * 3;  // upper bound
  const std::size_t deep_nodes =
      forest.n_nodes() > stump_nodes ? forest.n_nodes() - stump_nodes : 0;
  return deep_nodes >= 64 * stump_trees && forest.n_nodes() <= kAutoMaxNodes;
}

#if HMD_JIT_SUPPORTED

namespace {

using core::FlatForestEngine;
using Node = FlatForestEngine::Node;

/// The displacement cap keeps feature-column offsets inside a disp32.
constexpr std::int64_t kMaxDisp = 0x7FFFFFFF;

struct TreeCompiler {
  X64Emitter& e;
  std::span<const Node> nodes;
  std::span<const double> leaf_entropy;
  /// Pool slots interned once per forest (not per shape): node_slot[i] is
  /// nodes[i].threshold — the split threshold for internal nodes, the
  /// leaf posterior for leaves; ent_slot[i] is leaf_entropy[i]; one_slot
  /// is the 1.0 malware-vote increment. Hash-interning each constant four
  /// times (once per shape) dominated compile time on large forests.
  std::span<const std::uint32_t> node_slot;
  std::span<const std::uint32_t> ent_slot;
  std::uint32_t one_slot;
  std::uint32_t zero_slot;
  bool posterior;
  bool entropy;
  /// Nodes emitted so far across the whole kernel — a defensive bound so
  /// a pathological arena (possible only under the checksummed
  /// shallow-validation trust model) fails compilation instead of
  /// recursing forever.
  std::size_t budget;
  bool ok = true;

  /// acc[r9] += constant. Operand order matches the interpreter's
  /// `acc += c` (acc + c). A zero constant is skipped entirely: every
  /// accumulator is a sum of non-negative terms starting from +0.0, so
  /// adding +/-0.0 never changes its bit pattern — the skip is
  /// bit-identical to the interpreter's unconditional add, and on
  /// mostly-pure-leaf forests it shrinks the emitted code substantially.
  void emit_accumulate_const(Gpr acc_base, double c, std::uint32_t slot) {
    if (c == 0.0) return;
    e.movsd_load_const(0, slot);
    e.movsd_load_indexed(1, acc_base, 0);
    e.addsd(1, 0);
    e.movsd_store_indexed(1, acc_base, 0);
  }

  /// The three leaf accumulates, in the interpreter's order: vote,
  /// posterior, entropy. Shapes skip what they don't demand.
  void emit_leaf_payloads(std::size_t i) {
    const double p1 = nodes[i].threshold;
    emit_accumulate_const(kRdx, p1 > 0.5 ? 1.0 : 0.0, one_slot);
    if (posterior) emit_accumulate_const(kRcx, p1, node_slot[i]);
    if (entropy) emit_accumulate_const(kR8, leaf_entropy[i], ent_slot[i]);
  }

  /// acc[r9] += mask ? lo : hi, where xmm0 holds the (x <= t) mask
  /// (all-ones selects lo — NaN compares false and takes hi, matching
  /// the interpreter's !(x <= t) hi select). Bit-exact blend via
  /// andpd/andnpd/orpd; xmm0 is preserved for the next payload. Equal
  /// payloads need no blend at all — the select is a constant either
  /// way — and collapse to the (zero-skipping) constant accumulate.
  void emit_blend_accumulate(Gpr acc_base, double lo, double hi,
                             std::uint32_t lo_slot, std::uint32_t hi_slot) {
    std::uint64_t lo_bits = 0, hi_bits = 0;
    std::memcpy(&lo_bits, &lo, 8);
    std::memcpy(&hi_bits, &hi, 8);
    if (lo_bits == hi_bits) {
      emit_accumulate_const(acc_base, lo, lo_slot);
      return;
    }
    e.movapd(1, 0);
    e.movsd_load_const(2, lo_slot);
    e.movsd_load_const(3, hi_slot);
    e.andpd(2, 1);
    e.andnpd(1, 3);
    e.orpd(2, 1);
    e.movsd_load_indexed(4, acc_base, 0);
    e.addsd(4, 2);
    e.movsd_store_indexed(4, acc_base, 0);
  }

  std::int32_t feature_disp(std::int32_t feature) {
    const std::int64_t disp = std::int64_t{feature} *
                              static_cast<std::int64_t>(
                                  FlatForestEngine::kTileRows * sizeof(double));
    if (disp < 0 || disp > kMaxDisp) {
      ok = false;
      return 0;
    }
    return static_cast<std::int32_t>(disp);
  }

  /// Branch-free depth<=1 body: one compare-to-mask, then a blend per
  /// demanded payload. Falls through (no row-epilogue jump needed). The
  /// mask is only computed when at least one payload actually differs
  /// between the leaves; degenerate stumps reduce to constant adds.
  void emit_stump(std::size_t root_index) {
    const Node& root = nodes[root_index];
    const auto li = static_cast<std::size_t>(root.left);
    const Node& lo = nodes[li];
    const Node& hi = nodes[li + 1];
    struct Payload {
      Gpr base;
      double lo, hi;
      std::uint32_t lo_slot, hi_slot;
    };
    Payload payloads[3];
    std::size_t n = 0;
    payloads[n++] = {kRdx, lo.threshold > 0.5 ? 1.0 : 0.0,
                     hi.threshold > 0.5 ? 1.0 : 0.0,
                     lo.threshold > 0.5 ? one_slot : zero_slot,
                     hi.threshold > 0.5 ? one_slot : zero_slot};
    if (posterior) {
      payloads[n++] = {kRcx, lo.threshold, hi.threshold, node_slot[li],
                       node_slot[li + 1]};
    }
    if (entropy) {
      payloads[n++] = {kR8, leaf_entropy[li], leaf_entropy[li + 1],
                       ent_slot[li], ent_slot[li + 1]};
    }
    bool needs_mask = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t a = 0, b = 0;
      std::memcpy(&a, &payloads[i].lo, 8);
      std::memcpy(&b, &payloads[i].hi, 8);
      needs_mask = needs_mask || a != b;
    }
    if (needs_mask) {
      e.movsd_load_indexed(0, kRdi, feature_disp(root.feature));
      e.cmpsd_const(0, node_slot[root_index], /*imm=LE*/ 2);
    }
    for (std::size_t i = 0; i < n; ++i) {
      emit_blend_accumulate(payloads[i].base, payloads[i].lo, payloads[i].hi,
                            payloads[i].lo_slot, payloads[i].hi_slot);
    }
  }

  /// Is `left` a valid two-child slot (left and left+1 in the arena)?
  bool children_in_bounds(std::int32_t left) const {
    return left > 0 &&
           left < static_cast<std::int32_t>(nodes.size()) - 1;
  }

  /// Compare/branch chain for a general subtree. Every leaf jumps to the
  /// row epilogue.
  void emit_subtree(std::int32_t i, X64Emitter::Label row_next) {
    if (!ok || budget == 0) {
      ok = false;
      return;
    }
    --budget;
    const Node& node = nodes[static_cast<std::size_t>(i)];
    if (node.feature >= 0 && !children_in_bounds(node.left)) {
      ok = false;
      return;
    }
    if (node.feature < 0) {
      emit_leaf_payloads(static_cast<std::size_t>(i));
      e.jmp(row_next);
      return;
    }
    // ucomisd t, x sets CF iff t < x or unordered — exactly the
    // interpreter's "descend right" predicate !(x <= t), NaN included.
    e.movsd_load_const(0, node_slot[static_cast<std::size_t>(i)]);
    e.ucomisd_indexed(0, kRdi, feature_disp(node.feature));
    const X64Emitter::Label right = e.make_label();
    e.jb(right);
    emit_subtree(node.left, row_next);
    e.bind(right);
    emit_subtree(node.left + 1, row_next);
  }

  /// One tree: a row loop over the live tile, body chosen by shape.
  void emit_tree(std::int32_t root_index) {
    const Node& root = nodes[static_cast<std::size_t>(root_index)];
    if (root.feature < 0 && root.threshold == 0.0 &&
        leaf_entropy[static_cast<std::size_t>(root_index)] == 0.0) {
      // A single benign pure leaf contributes +0.0 to every accumulator
      // — nothing to emit (see emit_accumulate_const's zero-skip).
      return;
    }
    e.zero_r9();
    const X64Emitter::Label loop = e.make_label();
    const X64Emitter::Label done = e.make_label();
    const X64Emitter::Label row_next = e.make_label();
    e.bind(loop);
    e.cmp_r9_rsi();
    e.jae(done);
    if (root.feature >= 0 && !children_in_bounds(root.left)) {
      ok = false;
      return;
    }
    if (root.feature < 0) {
      // Single-leaf tree: unconditional constant accumulates.
      emit_leaf_payloads(static_cast<std::size_t>(root_index));
    } else if (nodes[static_cast<std::size_t>(root.left)].feature < 0 &&
               nodes[static_cast<std::size_t>(root.left) + 1].feature < 0) {
      emit_stump(static_cast<std::size_t>(root_index));
    } else {
      emit_subtree(root_index, row_next);
    }
    e.bind(row_next);
    e.inc_r9();
    e.jmp(loop);
    e.bind(done);
  }
};

}  // namespace

std::unique_ptr<ForestProgram> compile_forest(const FlatForestEngine& forest,
                                              const std::atomic<bool>* cancel) {
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  const auto nodes = forest.nodes_view();
  const auto roots = forest.roots_view();
  if (nodes.empty() || roots.empty() || nodes.size() > kMaxJitNodes)
    return nullptr;
  const auto t0 = std::chrono::steady_clock::now();

  auto program = std::unique_ptr<ForestProgram>(new ForestProgram());
  X64Emitter emitter(program->code_);
  // Intern every constant once up front, writing the pool at the head of
  // the buffer; the four shape passes then emit final RIP displacements
  // from the slot ids without touching the dedup hash again.
  const auto leaf_entropy = forest.leaf_entropy_view();
  const std::uint32_t one_slot = emitter.pool_const(1.0);
  const std::uint32_t zero_slot = emitter.pool_const(0.0);
  std::vector<std::uint32_t> node_slot(nodes.size());
  std::vector<std::uint32_t> ent_slot(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Poll every 4096 nodes: about a tree's worth of interning.
    if (i % 4096 == 0 && cancelled()) return nullptr;
    node_slot[i] = emitter.pool_const(nodes[i].threshold);
    ent_slot[i] = emitter.pool_const(leaf_entropy[i]);
  }
  emitter.end_pool();
  std::size_t entries[4] = {};
  for (unsigned shape = 0; shape < 4; ++shape) {
    entries[shape] = emitter.offset();
    TreeCompiler compiler{emitter,
                          nodes,
                          leaf_entropy,
                          node_slot,
                          ent_slot,
                          one_slot,
                          zero_slot,
                          /*posterior=*/(shape & 1) != 0,
                          /*entropy=*/(shape & 2) != 0,
                          /*budget=*/nodes.size() + 1};
    for (const std::int32_t root : roots) {
      // The tree boundary: the jit.tree failpoint (fault drills stretch a
      // compile with it) fires, then a cancelled compile stops here.
      HMD_FAILPOINT("jit.tree", "background jit compile");
      if (cancelled()) return nullptr;
      compiler.emit_tree(root);
      if (!compiler.ok || !emitter.resolve_labels()) return nullptr;
    }
    emitter.ret();
  }
  if (!program->code_.protect()) return nullptr;
  for (unsigned shape = 0; shape < 4; ++shape) {
    program->kernels_[shape] = reinterpret_cast<ForestProgram::KernelFn>(
        const_cast<void*>(program->code_.entry(entries[shape])));
  }
  program->compile_ms_ =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return program;
}

#else  // !HMD_JIT_SUPPORTED

std::unique_ptr<ForestProgram> compile_forest(const core::FlatForestEngine&,
                                              const std::atomic<bool>*) {
  return nullptr;
}

#endif

}  // namespace hmd::jit
