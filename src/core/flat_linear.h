#pragma once
// Flattened inference engine for bagged linear members (logistic
// regression and Platt-scaled linear SVM).
//
// compile() packs all M trained members into one contiguous M×d weight
// matrix plus bias / Platt coefficient vectors, and keeps a transposed
// (d×M) copy of the weights for the batch kernel. The engine owns the
// standardisation moments the members were trained under, so — like every
// InferenceEngine — it consumes raw feature rows.
//
// stats_batch is a blocked matrix product: for each tile of rows, each row
// is standardised once into scratch, then the member pre-activations
// z[m] = Σ_c w[m][c]·xs[c] are accumulated feature-major over the
// transposed weights — the compiler vectorises across members (lanes are
// members, each lane's additions stay in ascending feature order, so every
// z is bit-identical to the reference dot_row). The link function then
// runs per member in ascending order, reproducing the reference
// expressions verbatim:
//
//   LR :  p = 1 / (1 + exp(-(z + bias)))
//   SVM:  p = 1 / (1 + exp(-t)),  t = -(platt_a·(z + bias) + platt_b)
//
// Two exactness shortcuts keep the hot path cheap without breaking
// bit-parity (proofs in the .cpp):
//   t >= 40   ⇒ p == 1.0 exactly (exp(-t) < 2^-53 vanishes into 1 + ε)
//   t <= -745 ⇒ p == 0.0 exactly (exp(-t) overflows to +inf)
// and EnsembleStats fields the caller's StatsMask never reads are skipped
// entirely: a vote-entropy detection drops the per-member log() pair of
// binary_entropy, a prediction-only request additionally drops the
// posterior accumulate (the sigmoid itself still runs — votes need p).
//
// Under the fast tier (StatsMask bit kStatsFastMath, i.e.
// Accuracy::kFast), the per-member sigmoid/entropy loop is replaced by
// the runtime-ISA-dispatched array kernels of simd/vmath.h: one
// sigmoid_array pass over the tile's link arguments and (when selected)
// one binary_entropy_array pass over the probabilities, each within
// 2 ULP of the exact value with the same saturation shortcuts applied
// exactly. Accumulation stays in member order, so fast-tier results are
// deterministic too. The dispatch table is captured at engine
// construction (like the forest's JIT kernel table) and shared by every
// tile.
//
// Tiles are distributed over the thread pool; each tile writes a disjoint
// output range, so results are deterministic for any worker count.
//
// Storage is view-based, like FlatForestEngine: every hot-path array —
// including the feature-major transpose, which the `.hmdf` layout
// stores alongside the member-major weights precisely so the batch-kernel
// layout maps in place — is a std::span pointing either at engine-owned
// vectors (training) or straight into a `.hmdf` ArtifactBuffer
// (from_buffer), which the engine pins via shared_ptr.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mapped_file.h"
#include "common/matrix.h"
#include "core/inference_engine.h"
#include "ml/bagging.h"
#include "ml/preprocessing.h"
#include "simd/vmath.h"

namespace hmd::io {
class ByteReader;
}  // namespace hmd::io

namespace hmd::core {

class FlatLinearEngine final : public InferenceEngine {
 public:
  /// Which link function the members use. A compiled engine is
  /// homogeneous — mixed ensembles fall back to the reference path.
  enum class MemberKind : std::uint8_t { kLogistic = 0, kSvm = 1 };

  /// Pack a trained bagged LR / SVM ensemble. Returns nullptr when any
  /// member is not a linear model of a single kind, or when members were
  /// trained on feature subspaces (feature_fraction < 1) — the dense
  /// re-expansion would perturb accumulation order.
  static std::unique_ptr<FlatLinearEngine> compile(
      const ml::Bagging& ensemble, const ml::StandardScaler& scaler);

  /// Reconstruct from a save_blob_v2() payload, viewing every
  /// array — the M×d weight matrix, its feature-major transpose, the
  /// bias / Platt / moment vectors — in place inside `keepalive`'s
  /// buffer. No copies, no transpose rebuild at load.
  static std::unique_ptr<FlatLinearEngine> from_buffer(
      io::ByteReader& in,
      std::shared_ptr<const io::ArtifactBuffer> keepalive);

  std::string name() const override {
    return kind_ == MemberKind::kLogistic ? "flat_linear_lr"
                                          : "flat_linear_svm";
  }
  EngineId engine_id() const override { return EngineId::kFlatLinear; }
  std::size_t n_members() const override { return n_members_; }
  EnsembleStats stats_one(RowView x) const override;
  void stats_batch(const Matrix& x, ThreadPool* pool,
                   std::vector<EnsembleStats>& out,
                   StatsMask mask) const override;
  void save_blob_v2(io::AlignedWriter& out) const override;
  bool zero_copy() const override {
    return buffer_ != nullptr && buffer_->mapped();
  }
  std::size_t memory_bytes() const override {
    return (weights_.size() + weights_t_.size() + bias_.size() +
            platt_a_.size() + platt_b_.size() + means_.size() +
            scales_.size()) *
           sizeof(double);
  }

  MemberKind member_kind() const { return kind_; }
  std::size_t n_features() const override { return n_features_; }

  static constexpr std::size_t kTileRows = 256;

 private:
  /// Rebuild the feature-major weights_t_ copy from the member-major
  /// weights_ after compile (an artifact carries the transpose on disk
  /// and maps it instead).
  void rebuild_transpose();

  /// Point the hot-path spans at the engine-owned storage vectors.
  void adopt_storage();

  template <bool kNeedPosterior, bool kNeedEntropy>
  void tile_kernel(const Matrix& x, std::size_t row_begin,
                   std::size_t row_end, EnsembleStats* out,
                   bool fast) const;

  MemberKind kind_ = MemberKind::kLogistic;
  std::size_t n_members_ = 0;
  std::size_t n_features_ = 0;

  /// Fast-tier kernel table, resolved for the active ISA once at engine
  /// construction (the in-class initialiser covers every construction
  /// path: compile, from_buffer). Exact-tier requests never
  /// consult it.
  const simd::VmathKernels* vmath_ = &simd::kernels();

  // Hot-path views. Either into the storage vectors below (training) or
  // straight into buffer_'s artifact bytes (load).
  std::span<const double> weights_;    ///< member-major M×d (serialised)
  std::span<const double> weights_t_;  ///< feature-major d×M (batch kernel)
  std::span<const double> bias_;       ///< per-member intercept
  std::span<const double> platt_a_;    ///< SVM Platt slope (unused for LR)
  std::span<const double> platt_b_;    ///< SVM Platt offset (unused for LR)
  std::span<const double> means_;      ///< standardisation means
  std::span<const double> scales_;     ///< standardisation scales

  // Owned backing (empty for zero-copy engines).
  std::vector<double> weights_storage_;
  std::vector<double> weights_t_storage_;
  std::vector<double> bias_storage_;
  std::vector<double> platt_a_storage_;
  std::vector<double> platt_b_storage_;
  std::vector<double> means_storage_;
  std::vector<double> scales_storage_;
  /// Pins the mapped/read artifact bytes the spans view (null when the
  /// storage vectors back them).
  std::shared_ptr<const io::ArtifactBuffer> buffer_;
};

}  // namespace hmd::core
