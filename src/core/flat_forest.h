#pragma once
// Flattened struct-of-arrays inference engine for tree ensembles.
//
// After fit(), every member tree of the bagging ensemble is re-packed into
// one contiguous arena of 16-byte node records (threshold double + packed
// feature / left-child indices), trees concatenated back to back. The
// traversal-hot fields of a node span a single 16-byte load, and children
// are allocated adjacently, so a traversal step is branch-free:
//
//   next = node.left + !(x[node.feature] <= node.threshold)
//
// (negated <=, so NaN descends right exactly like the reference tree).
//
// Leaves store the member's P(class 1) in the threshold slot and its
// precomputed binary entropy in a cold side array (touched once per walk),
// which makes the batched estimate path a pure accumulate — no log() on
// the hot path.
//
// stats_batch traverses *tree-major over sample tiles*: for each tile of
// rows, every tree is walked for all rows in the tile before moving to the
// next tree, so a tree's nodes stay cache-resident while they are reused.
// The tile is transposed to column-major scratch first, which turns the
// per-tree row loop into unit-stride loads. Trees of depth <= 1 (common on
// well-separated data, where most members are decision stumps) are
// compiled into a dedicated stump table evaluated as a branchless select —
// one compare + two blends per row that the compiler vectorises across
// rows. Deeper trees are walked kWalkLanes rows at a time: each lane
// takes one step per sweep and prefetches the node it will load next,
// so the misses of an arena larger than cache overlap instead of
// serialising; a lane that reaches its leaf accumulates it and takes
// the tile's next row. Lane state lives on the stack of each call.
// Trees still run in ascending member order and every row takes exactly
// one leaf per tree, so per-sample accumulation order is untouched and
// results stay bit-identical to the reference path.
// Tiles are distributed over a thread pool; each tile writes a disjoint
// output range, so results are deterministic for any worker count.
//
// The engine is an exact re-encoding of the pointer trees: predictions,
// vote counts and accumulated probabilities are bit-identical to the
// reference ml::Bagging path (asserted by the parity test suite).
//
// Serialisation: the arena, leaf entropies and roots are the whole model —
// save_blob_v2() writes them and from_buffer() rebuilds the engine (the
// stump table is re-derived from the arena), so a serving process
// reconstructs inference without any training objects.
//
// Storage is view-based: the hot-path arrays (node arena, leaf entropies,
// roots) are std::spans. A training-built engine points them at its own
// vectors; an engine built from a `.hmdf` ArtifactBuffer (from_buffer)
// points them straight into the mapped (or heap-read) file
// — zero copies, residency paid in page faults actually touched — and
// holds a shared_ptr keepalive so the mapping outlives the engine. The
// stump table is always re-derived at load; it is never serialised.
//
// Kernel dispatch: stats_batch lowers its StatsMask to one of four tile
// kernels, indexed by shape. The rows share one uniform signature — a
// tile transposed at the fixed kTileRows stride, the live row count, and
// dense vote/posterior/entropy accumulators — so a backend is just a set
// of four rows. The interpreted arena rows serve from the moment an
// engine is constructed. When the tree JIT is available and the policy
// accepts the forest (src/jit/jit.h; the default `auto` takes only deep
// forests small enough that native code beats the interleaved walk),
// construction also queues a background compile; once it seals, the
// native rows are installed with one atomic store, and every later
// stats_batch call runs them. Each call reads the installed program
// once, so a batch never mixes backends, and the two are bit-identical
// (asserted by the JitParity and JitConcurrency suites).
// kernel_backend() reports which rows are installed; everything above
// stats_batch (score() lowering, the StatsMask contract) is
// backend-blind.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/mapped_file.h"
#include "common/matrix.h"
#include "core/inference_engine.h"
#include "ml/bagging.h"

namespace hmd::io {
class ByteReader;
}  // namespace hmd::io

namespace hmd::jit {
class CompileJob;
class ForestProgram;
}  // namespace hmd::jit

namespace hmd::core {

class FlatForestEngine final : public InferenceEngine {
 public:
  /// Re-pack a trained tree ensemble. Returns nullptr when any member is
  /// not a DecisionTree (the caller should try another engine).
  static std::unique_ptr<FlatForestEngine> compile(
      const ml::Bagging& ensemble);

  /// Reconstruct an engine from a save_blob_v2() payload, viewing the
  /// arena / entropies / roots *in place* inside `keepalive`'s buffer (no
  /// copies; the engine pins the buffer). Throws LoadError on truncation
  /// or implausible geometry. The arena itself is not walked: the caller
  /// has already proven the bytes intact by their section checksum
  /// (model_artifact.h's verify-once-then-trust contract). The trailing
  /// bool is ignored; perfbench/ still passes it.
  static std::unique_ptr<FlatForestEngine> from_buffer(
      io::ByteReader& in,
      std::shared_ptr<const io::ArtifactBuffer> keepalive, bool = false);

  FlatForestEngine() = default;
  /// Cancels a queued or in-flight background compile first: waits at
  /// most for the one tree being emitted, and the compile never reads the
  /// arena after this returns.
  ~FlatForestEngine() override;
  FlatForestEngine(const FlatForestEngine&) = delete;
  FlatForestEngine& operator=(const FlatForestEngine&) = delete;

  std::string name() const override { return "flat_forest"; }
  EngineId engine_id() const override { return EngineId::kFlatForest; }
  std::size_t n_members() const override { return roots_.size(); }
  EnsembleStats stats_one(RowView x) const override;
  void stats_batch(const Matrix& x, ThreadPool* pool,
                   std::vector<EnsembleStats>& out,
                   StatsMask mask) const override;
  void save_blob_v2(io::AlignedWriter& out) const override;
  bool zero_copy() const override {
    return buffer_ != nullptr && buffer_->mapped();
  }
  std::size_t memory_bytes() const override {
    return nodes_.size() * (sizeof(Node) + sizeof(double)) +
           stumps_.size() * sizeof(Stump);
  }

  /// Which batch-kernel rows serve the next batch: "jit" once the
  /// background compile installed native code, else the interpreter
  /// ("arena" over a mapping, "stream-fallback" over owned bytes).
  std::string kernel_backend() const override;

  /// Block until this engine's background compile has installed, been
  /// declined or been cancelled; returns at once when none was queued.
  /// For tests and benches that must measure native kernels.
  void wait_for_jit() const;

  std::size_t n_trees() const { return roots_.size(); }
  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_stumps() const { return n_stumps_; }
  std::size_t n_features() const override { return n_features_; }

  /// Wall-clock cost of the background JIT compile and the sealed code
  /// size; both read 0 until the native program is installed.
  double jit_compile_ms() const;
  std::size_t jit_code_bytes() const;

  static constexpr std::size_t kTileRows = 256;

  /// One arena slot. feature < 0 marks a leaf; for leaves, threshold holds
  /// P(class 1). For internal nodes, left is the arena index of the left
  /// child and the right child sits at left + 1. Public so the tree JIT
  /// (src/jit) can walk the arena it compiles.
  struct alignas(16) Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t left = -1;
  };
  static_assert(sizeof(Node) == 16, "arena nodes are streamed raw");

  /// Read-only arena views for the JIT compiler (and the parity suite).
  std::span<const Node> nodes_view() const { return nodes_; }
  std::span<const double> leaf_entropy_view() const { return leaf_entropy_; }
  std::span<const std::int32_t> roots_view() const { return roots_; }

 private:
  /// Specialised encoding of a depth <= 1 tree: evaluated branchlessly as
  ///   hi = !(x[feature] <= threshold);  p1 = hi ? p_hi : p_lo
  /// A pure-leaf tree uses threshold = +inf so the select always takes the
  /// lo branch. Payloads are the exact leaf doubles from the arena, so the
  /// stump path is bit-identical to walking the same tree. The leaf's vote
  /// (p1 > 0.5) is precomputed as 0.0/1.0 so the whole evaluation — select,
  /// vote, and the three accumulates — stays in the FP domain and
  /// vectorises as one compare plus three blends and adds per row.
  struct Stump {
    std::int32_t feature = 0;
    double threshold = 0.0;
    double p_lo = 0.0, p_hi = 0.0;
    double e_lo = 0.0, e_hi = 0.0;
    double v_lo = 0.0, v_hi = 0.0;
  };

  /// Populate the stump table from the arena (used after compile and
  /// after load, so the specialisation never needs serialising).
  void derive_stumps();

  /// Point the hot-path spans at the engine-owned storage vectors (the
  /// training ownership mode).
  void adopt_storage();

  /// The uniform batch-kernel row signature. `xt` is the tile transposed
  /// at the fixed kTileRows stride (feature c's column starts at
  /// xt + c * kTileRows); `tile` is the live row count (<= kTileRows);
  /// the accumulators are zeroed by the caller, and a row whose StatsMask
  /// shape excludes a field receives nullptr for it and must not touch
  /// it. Rows are plain functions so the table is data, not virtual
  /// dispatch.
  using BatchKernelFn = void (*)(const FlatForestEngine& self,
                                 const double* xt, std::size_t tile,
                                 double* votes, double* sum_p1,
                                 double* sum_entropy);

  /// Rows a deep tree walks at once in arena_kernel: enough independent
  /// node loads in flight to cover an out-of-cache arena's misses.
  static constexpr std::size_t kWalkLanes = 16;

  /// Interpreted rows: the stump loop and the interleaved deep-tree
  /// walk, templated on shape.
  template <bool kNeedPosterior, bool kNeedEntropy>
  static void arena_kernel(const FlatForestEngine& self, const double* xt,
                           std::size_t tile, double* votes, double* sum_p1,
                           double* sum_entropy);

  /// Queue the background compile when the JIT policy accepts this
  /// forest. Called last by both construction paths (compile /
  /// from_buffer), once the arena is complete; the policy is
  /// read here, at queue time.
  void queue_jit_compile();

  /// The installed native program, or null while the arena rows serve.
  const jit::ForestProgram* native_program() const;

  // Hot-path views. Either into the storage vectors below (training) or
  // straight into buffer_'s artifact bytes (load).
  std::span<const Node> nodes_;
  /// Per-slot binary entropy of the leaf P(class 1); meaningful (and read)
  /// only at leaves, kept out of the Node record to halve traversal reads.
  std::span<const double> leaf_entropy_;
  std::span<const std::int32_t> roots_;

  // Owned backing (empty for zero-copy engines).
  std::vector<Node> nodes_storage_;
  std::vector<double> leaf_entropy_storage_;
  std::vector<std::int32_t> roots_storage_;
  /// Pins the mapped/read artifact bytes the spans view (null when the
  /// storage vectors back them).
  std::shared_ptr<const io::ArtifactBuffer> buffer_;

  /// stumps_[m] is valid iff is_stump_[m]; general trees walk the arena.
  /// Always owned — the specialisation is re-derived at every load.
  std::vector<Stump> stumps_;
  std::vector<std::uint8_t> is_stump_;
  std::size_t n_stumps_ = 0;

  /// This engine's background compile; null when none was queued (JIT
  /// unavailable, policy off, arena over the generator's size cap, or
  /// declined by the kAuto heuristic). Owns the native program once
  /// installed.
  std::shared_ptr<jit::CompileJob> jit_job_;
  /// Expected input width; every node's feature index is < this (checked
  /// at load, so a corrupt artifact can never drive out-of-bounds reads).
  std::size_t n_features_ = 0;
};

}  // namespace hmd::core
