#include "core/flat_forest.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/binary_io.h"
#include "common/error.h"
#include "core/thread_pool.h"
#include "core/uncertainty.h"
#include "jit/jit.h"
#include "ml/decision_tree.h"

namespace hmd::core {

FlatForestEngine::~FlatForestEngine() {
  if (jit_job_ != nullptr) jit_job_->cancel();
}

std::unique_ptr<FlatForestEngine> FlatForestEngine::compile(
    const ml::Bagging& ensemble) {
  HMD_REQUIRE(ensemble.fitted(),
              "FlatForestEngine::compile: ensemble not fitted");
  // Every member must be a decision tree; otherwise signal "not
  // compilable" and let the caller pick another engine.
  std::vector<const ml::DecisionTree*> trees;
  trees.reserve(ensemble.n_members());
  for (std::size_t m = 0; m < ensemble.n_members(); ++m) {
    const auto* tree =
        dynamic_cast<const ml::DecisionTree*>(&ensemble.member(m));
    if (tree == nullptr) return nullptr;
    trees.push_back(tree);
  }

  auto flat = std::make_unique<FlatForestEngine>();
  flat->n_features_ = ensemble.n_features();
  std::size_t total_nodes = 0;
  for (const auto* tree : trees) total_nodes += tree->nodes().size();
  flat->nodes_storage_.reserve(total_nodes);
  flat->leaf_entropy_storage_.reserve(total_nodes);
  flat->roots_storage_.reserve(trees.size());

  auto append_slot = [&flat]() {
    flat->nodes_storage_.emplace_back();
    flat->leaf_entropy_storage_.push_back(0.0);
    return static_cast<std::int32_t>(flat->nodes_storage_.size() - 1);
  };

  for (std::size_t m = 0; m < trees.size(); ++m) {
    const auto& nodes = trees[m]->nodes();
    const auto& feature_map = ensemble.feature_map(m);
    flat->roots_storage_.push_back(append_slot());

    // Breadth-first re-layout; both children of a node are allocated
    // together so right == left + 1 everywhere.
    std::deque<std::pair<std::int32_t, std::int32_t>> frontier;
    frontier.emplace_back(0, flat->roots_storage_.back());
    while (!frontier.empty()) {
      const auto [src, dst] = frontier.front();
      frontier.pop_front();
      const auto& node = nodes[static_cast<std::size_t>(src)];
      if (node.feature < 0) {
        flat->nodes_storage_[dst].feature = -1;
        flat->nodes_storage_[dst].threshold = node.p1;
        flat->leaf_entropy_storage_[dst] = binary_entropy(node.p1);
        continue;
      }
      const std::int32_t global_feature =
          feature_map.empty()
              ? node.feature
              : feature_map[static_cast<std::size_t>(node.feature)];
      flat->nodes_storage_[dst].feature = global_feature;
      flat->nodes_storage_[dst].threshold = node.threshold;
      const std::int32_t left = append_slot();
      append_slot();  // right child at left + 1
      flat->nodes_storage_[dst].left = left;
      frontier.emplace_back(node.left, left);
      frontier.emplace_back(node.right, left + 1);
    }
  }

  flat->adopt_storage();
  flat->derive_stumps();
  flat->queue_jit_compile();
  return flat;
}

void FlatForestEngine::adopt_storage() {
  nodes_ = nodes_storage_;
  leaf_entropy_ = leaf_entropy_storage_;
  roots_ = roots_storage_;
  buffer_ = nullptr;
}

void FlatForestEngine::derive_stumps() {
  stumps_.assign(roots_.size(), Stump{});
  is_stump_.assign(roots_.size(), 0);
  n_stumps_ = 0;
  for (std::size_t m = 0; m < roots_.size(); ++m) {
    const std::int32_t root = roots_[m];
    const Node& node = nodes_[static_cast<std::size_t>(root)];
    Stump& stump = stumps_[m];
    if (node.feature < 0) {  // single-leaf tree: select is constant
      stump.feature = 0;
      stump.threshold = std::numeric_limits<double>::infinity();
      stump.p_lo = stump.p_hi = node.threshold;
      stump.e_lo = stump.e_hi = leaf_entropy_[static_cast<std::size_t>(root)];
      stump.v_lo = stump.v_hi = node.threshold > 0.5 ? 1.0 : 0.0;
      is_stump_[m] = 1;
      ++n_stumps_;
      continue;
    }
    // Bounds guard rather than assumption: no load walks the arena, and
    // this is the only arena dereference that happens at load time —
    // keep it in-bounds even for impossible input.
    if (node.left <= 0 ||
        node.left >= static_cast<std::int32_t>(nodes_.size()) - 1) {
      continue;
    }
    const Node& lo = nodes_[static_cast<std::size_t>(node.left)];
    const Node& hi = nodes_[static_cast<std::size_t>(node.left) + 1];
    if (lo.feature < 0 && hi.feature < 0) {
      stump.feature = node.feature;
      stump.threshold = node.threshold;
      stump.p_lo = lo.threshold;
      stump.p_hi = hi.threshold;
      stump.e_lo = leaf_entropy_[static_cast<std::size_t>(node.left)];
      stump.e_hi = leaf_entropy_[static_cast<std::size_t>(node.left) + 1];
      stump.v_lo = lo.threshold > 0.5 ? 1.0 : 0.0;
      stump.v_hi = hi.threshold > 0.5 ? 1.0 : 0.0;
      is_stump_[m] = 1;
      ++n_stumps_;
    }
  }
}

void FlatForestEngine::save_blob_v2(io::AlignedWriter& out) const {
  // Counts first, then each array on a 64-byte file offset — the arena
  // and its side tables are served straight out of the mapping.
  out.write_pod(static_cast<std::uint64_t>(n_features_));
  out.write_pod(static_cast<std::uint64_t>(nodes_.size()));
  out.write_pod(static_cast<std::uint64_t>(roots_.size()));
  out.pad_to(64);
  out.write_span(nodes_.data(), nodes_.size());
  out.pad_to(64);
  out.write_span(leaf_entropy_.data(), leaf_entropy_.size());
  out.pad_to(64);
  out.write_span(roots_.data(), roots_.size());
}

namespace {

/// Geometry caps. 2^26 16-byte nodes is a 1 GiB model, far above any real
/// ensemble — a corrupt length field must throw, not build an absurd
/// view (ByteReader's bounds check would also catch it).
constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 26;
constexpr std::uint64_t kMaxFeatures = std::uint64_t{1} << 24;

}  // namespace

std::unique_ptr<FlatForestEngine> FlatForestEngine::from_buffer(
    io::ByteReader& in, std::shared_ptr<const io::ArtifactBuffer> keepalive,
    bool /*unused*/) {
  auto flat = std::make_unique<FlatForestEngine>();
  const auto n_features = in.read_pod<std::uint64_t>();
  const auto n_nodes = in.read_pod<std::uint64_t>();
  const auto n_roots = in.read_pod<std::uint64_t>();
  if (n_features == 0 || n_features > kMaxFeatures)
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "implausible flat-forest feature width " +
                        std::to_string(n_features));
  if (n_nodes == 0 || n_nodes > kMaxNodes || n_roots == 0 ||
      n_roots > n_nodes)
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "implausible flat-forest geometry");
  flat->n_features_ = static_cast<std::size_t>(n_features);
  // Views straight into the artifact bytes — the zero-copy path. The
  // buffer keepalive pins the mapping for the engine's lifetime.
  in.align_to(64);
  flat->nodes_ = {in.view_span<Node>(n_nodes),
                  static_cast<std::size_t>(n_nodes)};
  in.align_to(64);
  flat->leaf_entropy_ = {in.view_span<double>(n_nodes),
                         static_cast<std::size_t>(n_nodes)};
  in.align_to(64);
  flat->roots_ = {in.view_span<std::int32_t>(n_roots),
                  static_cast<std::size_t>(n_roots)};
  flat->buffer_ = std::move(keepalive);
  // The arena itself is not walked (its section checksum vouched for
  // it), but every root must lie inside it.
  for (const std::int32_t root : flat->roots_) {
    if (root < 0 || static_cast<std::uint64_t>(root) >= n_nodes)
      throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                      "out-of-arena root index");
  }
  flat->derive_stumps();
  flat->queue_jit_compile();
  return flat;
}

EnsembleStats FlatForestEngine::stats_one(RowView x) const {
  HMD_REQUIRE(x.size() == n_features_,
              "FlatForestEngine::stats_one: feature width mismatch");
  EnsembleStats stats;
  const Node* nodes = nodes_.data();
  const double* entropy = leaf_entropy_.data();
  for (const std::int32_t root : roots_) {
    std::int32_t i = root;
    Node node = nodes[i];
    while (node.feature >= 0) {
      // !(x <= t), not (x > t): matches the reference tree's `<= ? left :
      // right` step for NaN inputs too (both send NaN right).
      i = node.left + !(x[static_cast<std::size_t>(node.feature)] <=
                        node.threshold);
      node = nodes[i];
    }
    const double p1 = node.threshold;
    stats.votes1 += p1 > 0.5;
    stats.sum_p1 += p1;
    stats.sum_entropy += entropy[i];
  }
  return stats;
}

template <bool kNeedPosterior, bool kNeedEntropy>
void FlatForestEngine::arena_kernel(const FlatForestEngine& self,
                                    const double* xt, std::size_t tile,
                                    double* votes, double* sum_p1,
                                    double* sum_entropy) {
  const Node* nodes = self.nodes_.data();
  const double* entropy = self.leaf_entropy_.data();

  // Tree-major: each tree's nodes stay hot while the whole tile reuses
  // them. Trees run in ascending member order and every row takes
  // exactly one leaf per tree, so per-sample accumulation order matches
  // stats_one and the reference path exactly. Masked-out fields get no
  // accumulate: a prediction-only request runs the stump loop as one
  // compare plus a single blend and add per row.
  for (std::size_t m = 0; m < self.roots_.size(); ++m) {
    if (self.is_stump_[m]) {
      const Stump stump = self.stumps_[m];
      const double* column =
          xt + static_cast<std::size_t>(stump.feature) * kTileRows;
      for (std::size_t r = 0; r < tile; ++r) {
        const bool hi = !(column[r] <= stump.threshold);  // NaN goes hi
        votes[r] += hi ? stump.v_hi : stump.v_lo;
        if constexpr (kNeedPosterior) sum_p1[r] += hi ? stump.p_hi : stump.p_lo;
        if constexpr (kNeedEntropy) sum_entropy[r] += hi ? stump.e_hi : stump.e_lo;
      }
      continue;
    }
    // Deep tree: kWalkLanes lanes each walk one row, a step per lane per
    // sweep, and prefetch the node (and, when entropy is demanded, the
    // leaf-entropy slot) each will load next, so up to kWalkLanes arena
    // misses are in flight instead of one. A lane that reaches its leaf
    // accumulates it and takes the tile's next row; once the tile is
    // exhausted, the last live lane moves into the finished one's slot.
    const std::int32_t root = self.roots_[m];
    std::int32_t at[kWalkLanes] = {};
    std::uint32_t row[kWalkLanes] = {};
    std::size_t live = std::min(tile, kWalkLanes);
    for (std::size_t l = 0; l < live; ++l) {
      at[l] = root;
      row[l] = static_cast<std::uint32_t>(l);
    }
    std::size_t next_row = live;
    while (live > 0) {
      for (std::size_t l = 0; l < live;) {
        const std::int32_t i = at[l];
        const Node node = nodes[i];
        const std::size_t r = row[l];
        if (node.feature >= 0) {
          const std::int32_t child =
              node.left +
              !(xt[static_cast<std::size_t>(node.feature) * kTileRows + r] <=
                node.threshold);
          __builtin_prefetch(nodes + child);
          if constexpr (kNeedEntropy) __builtin_prefetch(entropy + child);
          at[l++] = child;
          continue;
        }
        const double p1 = node.threshold;
        votes[r] += p1 > 0.5 ? 1.0 : 0.0;
        if constexpr (kNeedPosterior) sum_p1[r] += p1;
        if constexpr (kNeedEntropy) sum_entropy[r] += entropy[i];
        if (next_row < tile) {  // refill: the lane starts the next row
          at[l] = root;
          row[l++] = static_cast<std::uint32_t>(next_row++);
        } else {  // retire: the last live lane takes this slot
          --live;
          at[l] = at[live];
          row[l] = row[live];
        }
      }
    }
  }
}

void FlatForestEngine::queue_jit_compile() {
  if (jit::should_compile(*this)) jit_job_ = jit::compile_in_background(*this);
}

const jit::ForestProgram* FlatForestEngine::native_program() const {
  return jit_job_ != nullptr ? jit_job_->program() : nullptr;
}

void FlatForestEngine::wait_for_jit() const {
  if (jit_job_ != nullptr) jit_job_->wait();
}

std::string FlatForestEngine::kernel_backend() const {
  if (native_program() != nullptr) return "jit";
  return zero_copy() ? "arena" : "stream-fallback";
}

double FlatForestEngine::jit_compile_ms() const {
  const jit::ForestProgram* program = native_program();
  return program != nullptr ? program->compile_ms() : 0.0;
}

std::size_t FlatForestEngine::jit_code_bytes() const {
  const jit::ForestProgram* program = native_program();
  return program != nullptr ? program->code_bytes() : 0;
}

void FlatForestEngine::stats_batch(const Matrix& x, ThreadPool* pool,
                                   std::vector<EnsembleStats>& out,
                                   StatsMask mask) const {
  HMD_REQUIRE(x.cols() == n_features_ || x.rows() == 0,
              "FlatForestEngine::stats_batch: feature width mismatch");
  out.assign(x.rows(), EnsembleStats{});
  const std::size_t n_tiles = (x.rows() + kTileRows - 1) / kTileRows;
  // Leaf posteriors/entropies are precomputed, so a masked-out field saves
  // only its blend + add — but on stump-heavy ensembles those are the bulk
  // of the per-row work, so the prediction-only specialisation is real.
  const bool posterior = (mask & kStatsPosterior) != 0;
  const bool entropy = (mask & kStatsEntropy) != 0;
  const unsigned shape = (posterior ? 1u : 0u) | (entropy ? 2u : 0u);
  static constexpr BatchKernelFn kArenaRows[4] = {
      &arena_kernel<false, false>, &arena_kernel<true, false>,
      &arena_kernel<false, true>, &arena_kernel<true, true>};
  const BatchKernelFn arena = kArenaRows[shape];
  // One acquire load per call: the whole batch runs on the arena or on
  // native code, even when the background compile installs mid-call.
  const jit::ForestProgram* program = native_program();
  const jit::ForestProgram::KernelFn native =
      program != nullptr ? program->kernel(shape) : nullptr;
  const std::size_t cols = x.cols();
  auto run_tiles = [&](std::size_t tile_begin, std::size_t tile_end) {
    // Per-worker scratch, reused across this worker's tiles: the
    // transposed tile at the fixed kTileRows stride (feature c's column
    // at xt + c * kTileRows — a compile-time displacement for the JIT
    // rows) plus the struct-of-arrays accumulators. Votes accumulate as
    // 0.0/1.0 doubles (exact for any ensemble size) so every kernel
    // stays in the FP domain end to end.
    std::vector<double> xt(cols * kTileRows);
    std::vector<double> votes(kTileRows);
    std::vector<double> sum_p1(posterior ? kTileRows : 0);
    std::vector<double> sum_entropy(entropy ? kTileRows : 0);
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t row_begin = t * kTileRows;
      const std::size_t row_end = std::min(x.rows(), row_begin + kTileRows);
      const std::size_t tile = row_end - row_begin;
      for (std::size_t r = 0; r < tile; ++r) {
        const double* row = x.row_ptr(row_begin + r);
        for (std::size_t c = 0; c < cols; ++c) xt[c * kTileRows + r] = row[c];
      }
      std::fill_n(votes.begin(), tile, 0.0);
      if (posterior) std::fill_n(sum_p1.begin(), tile, 0.0);
      if (entropy) std::fill_n(sum_entropy.begin(), tile, 0.0);
      double* p1 = posterior ? sum_p1.data() : nullptr;
      double* ent = entropy ? sum_entropy.data() : nullptr;
      if (native != nullptr) {
        native(xt.data(), tile, votes.data(), p1, ent);
      } else {
        arena(*this, xt.data(), tile, votes.data(), p1, ent);
      }
      EnsembleStats* dst = out.data() + row_begin;
      for (std::size_t r = 0; r < tile; ++r) {
        dst[r].votes1 = static_cast<std::int32_t>(votes[r]);
        if (posterior) dst[r].sum_p1 = sum_p1[r];
        if (entropy) dst[r].sum_entropy = sum_entropy[r];
      }
    }
  };
  if (pool != nullptr && n_tiles > 1) {
    pool->parallel_for(n_tiles, run_tiles);
  } else {
    run_tiles(0, n_tiles);
  }
}

}  // namespace hmd::core
