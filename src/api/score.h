#pragma once
// The unified scoring API — one batched entry point for every consumer.
//
// A ScoreRequest names an input matrix and an OutputMask of the columns
// the caller wants; UntrustedHmd::score(request, result) fills exactly
// those columns of a struct-of-arrays ScoreResult and computes nothing
// else. The legacy surface (detect / detect_batch / estimate /
// estimate_batch / scores) is a set of thin compatibility wrappers over
// this spine with preset masks.
//
// ## The OutputMask contract
//
//  - Each kOut* bit selects one ScoreResult column. After score()
//    returns, a selected column has exactly x.rows() entries; an
//    unselected column is empty (size 0, capacity retained). Reading an
//    unselected column is a caller bug, not undefined behaviour — it is
//    just empty.
//  - Selected values are bit-identical to the full-surface results: the
//    same expressions as Detection / Estimate field for field, in the
//    same per-sample accumulation order, for any mask. Masking changes
//    what is computed, never the value of what is computed.
//  - kOutScore / kOutTrusted are evaluated under ScoreRequest::mode when
//    set, else under the detector's configured mode — per-request
//    selection of the uncertainty quantity a deployment consumes
//    (Nguyen et al., arXiv:2108.04081) without touching the detector.
//  - The mask drives work elimination end to end: score() derives the
//    minimal engine-level StatsMask (core/inference_engine.h), so a
//    kOutPrediction-only request under a vote-based mode skips the
//    posterior and entropy accumulates inside the engine kernels, and a
//    detection-shaped request under vote entropy never pays the
//    per-member entropy log() pair.
//  - ScoreResult's vectors (and its stats scratch) are resized, never
//    reallocated, once their capacity has grown to the batch size —
//    reuse one ScoreResult per serving loop. score() itself still
//    allocates: the engines build per-call tile scratch, 4 heap
//    allocations per call on an RF and 3 on an LR (ROADMAP item 8).
//
// ## The two-tier accuracy contract
//
// ScoreRequest::accuracy selects between two serving tiers
// (core::Accuracy):
//
//  - kExact (the default, and what every pre-existing caller gets):
//    every guarantee above holds verbatim — selected values are
//    bit-identical to the reference member-by-member path, libm
//    transcendentals included.
//  - kFast: transcendental evaluations (the linear engines' sigmoid,
//    every binary entropy) run on the vectorised bounded-ULP kernels in
//    simd/vmath.h. Contract: each such value is within 2 ULP of its
//    kExact counterpart; exactly-representable specials (saturated
//    sigmoids, H(0)=H(1)=0, vote-LUT entropies) are bit-identical.
//    Discrete columns (prediction, votes, trusted) can differ only when
//    the exact value they threshold sits inside the kernels' ULP band
//    of the decision boundary (0.5 for a member vote, entropy_threshold
//    for trusted) — a knife-edge no trained detector in the suite
//    produces. Results are still deterministic per row for a given
//    build and tier.
//
// score() lowers the tier into the engine StatsMask as the
// core::kStatsFastMath modifier; engines without hot-path
// transcendentals serve both tiers bit-identically.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "core/inference_engine.h"
#include "core/uncertainty.h"

namespace hmd::api {

/// One bit per ScoreResult column.
enum Output : std::uint32_t {
  kOutPrediction = 1u << 0,         ///< 0 = benign, 1 = malware
  kOutConfidence = 1u << 1,         ///< mean member P of the prediction
  kOutVotes = 1u << 2,              ///< members voting malware
  kOutVoteEntropy = 1u << 3,        ///< the paper's default score
  kOutSoftEntropy = 1u << 4,
  kOutExpectedEntropy = 1u << 5,
  kOutMutualInformation = 1u << 6,
  kOutVariationRatio = 1u << 7,
  kOutMaxProbability = 1u << 8,
  kOutScore = 1u << 9,              ///< score under the request's mode
  kOutTrusted = 1u << 10,           ///< score <= entropy_threshold
};
using OutputMask = std::uint32_t;

/// What detect_batch() consumes — the Detection struct, column for column.
inline constexpr OutputMask kDetectionOutputs =
    kOutPrediction | kOutConfidence | kOutScore | kOutTrusted;

/// What estimate_batch() consumes — the full Estimate family.
inline constexpr OutputMask kEstimateOutputs =
    kOutPrediction | kOutVotes | kOutVoteEntropy | kOutSoftEntropy |
    kOutExpectedEntropy | kOutMutualInformation | kOutVariationRatio |
    kOutMaxProbability | kOutScore | kOutTrusted;

/// The cheapest useful request: hard labels only. Under a vote-based
/// mode this reduces engine work to vote accumulation alone.
inline constexpr OutputMask kPredictionOnly = kOutPrediction;

/// The minimal engine-level StatsMask for `outputs` scored under
/// `score_mode` (the resolved request mode). Votes are always demanded —
/// prediction, and every vote-based quantity, derive from them and they
/// cost the engine one compare per member.
core::StatsMask stats_mask_for(OutputMask outputs,
                               core::UncertaintyMode score_mode);

/// A batched scoring request: which rows, which outputs, which mode.
struct ScoreRequest {
  /// Input samples, one per row; raw features (engines own any scaling).
  /// A non-owning view — the matrix must outlive the score() call.
  const Matrix* x = nullptr;
  OutputMask outputs = kDetectionOutputs;
  /// Mode for kOutScore / kOutTrusted; unset = the detector's configured
  /// mode. Generalises the old TrustedHmd::scores(x, mode) override.
  std::optional<core::UncertaintyMode> mode;
  /// Serving tier — see "The two-tier accuracy contract" above. kExact
  /// keeps today's bit-parity guarantee; kFast permits the vectorised
  /// ≤2-ULP transcendental kernels on the hot path.
  core::Accuracy accuracy = core::Accuracy::kExact;
};

/// Struct-of-arrays result. Columns selected by the request hold one
/// entry per input row; unselected columns are empty. Reuse one instance
/// across calls: buffers only ever grow, so they stop reallocating once
/// they reach the batch size (the engines' per-call scratch still
/// allocates; see the contract above).
struct ScoreResult {
  std::size_t rows = 0;  ///< rows scored by the last score() call

  std::vector<std::int32_t> prediction;
  std::vector<double> confidence;
  std::vector<std::int32_t> votes;
  std::vector<double> vote_entropy;
  std::vector<double> soft_entropy;
  std::vector<double> expected_entropy;
  std::vector<double> mutual_information;
  std::vector<double> variation_ratio;
  std::vector<double> max_probability;
  std::vector<double> score;
  std::vector<std::uint8_t> trusted;  ///< 0 / 1

  /// Engine-level sufficient statistics of the last call — score()'s
  /// reusable scratch, left populated for callers that want the raw
  /// sums (fields outside the derived StatsMask are zero).
  std::vector<core::EnsembleStats> stats;

  /// Fast-tier column scratch (a kOutTrusted-without-kOutScore request
  /// needs somewhere to batch the scores). Internal to score(); contents
  /// unspecified. Lives here so it is reused across calls.
  std::vector<double> fast_scratch;

  /// Size selected columns to `n`, empty the rest. Capacity is retained
  /// either way. score() calls this; callers never need to.
  void shape(OutputMask outputs, std::size_t n);
};

}  // namespace hmd::api
