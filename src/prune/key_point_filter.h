#pragma once

#include <limits>
#include <vector>

#include "core/dataset.h"
#include "distance/distance.h"

namespace trajsearch {

/// Key Points Filter (KPF, Appendix B) and the OSF comparator.
///
/// Theorem B.1: minCost(q, T) = sum_i min(del(q_i), min_j sub(q_i, T_j))
/// lower-bounds the optimal conversion cost min_j C_{m,j}. KPF samples
/// r * m uniformly spaced key points, computes their minCost sum, and scales
/// by 1/r — an O(r * m * n) *estimate* of the bound (not a guaranteed lower
/// bound when r < 1, hence the "loss" metric of Figure 11). A data
/// trajectory is pruned when the estimate exceeds the distance of the best
/// subtrajectory found so far.

/// \brief Exact per-point lower-bound term of Theorem B.1:
/// min(del(q_i), min_j sub(q_i, d_j)); for DTW del is tied to the match, so
/// the term reduces to min_j sub; for Fréchet the aggregate uses max rather
/// than sum (see KpfLowerBoundEstimate).
double KpfPointMinCost(const DistanceSpec& spec, TrajectoryView query, int i,
                       TrajectoryView data);

/// \brief KPF estimate with sampling rate `sample_rate` in (0, 1]. With
/// sample_rate == 1 this is the exact Theorem B.1 bound (never prunes the
/// optimum). Uniformly spaced key points, scaled by 1/r (Equation 28).
double KpfLowerBoundEstimate(const DistanceSpec& spec, TrajectoryView query,
                             TrajectoryView data, double sample_rate);

/// \brief OSF comparator (substitution for Koide et al. 2020, see
/// DESIGN.md): the exact Theorem B.1 bound over *all* query points with no
/// sampling and no grid acceleration — a correct but slower filter.
double OsfLowerBound(const DistanceSpec& spec, TrajectoryView query,
                     TrajectoryView data);

/// \brief Query-bound KPF/OSF plan: the key-point sample — index positions,
/// the query-side deletion cost of each key point, and the 1/r rescale — is
/// computed once per Bind instead of once per (query, data) pair, leaving
/// only the min-substitution scan against the candidate in LowerBound().
///
/// Full values — LowerBound(d) with the default +inf, or any call that does
/// not abandon — reproduce KpfLowerBoundEstimate bit for bit (same key
/// points, same terms, same key-order accumulation), so an engine switching
/// between the two makes identical pruning decisions.
///
/// For the Euclidean substitution costs (DTW, Fréchet, ERP), a finite
/// candidate and finite key points, LowerBound first builds the candidate's
/// 8-point chunk boxes (ChunkBoxes, the kernel CMA's suffix floor shares)
/// on the stack (in thread-local scratch past 16 KiB, so steady-state calls
/// allocate nothing); a NaN or infinite candidate coordinate sends the
/// candidate to the scalar reference loop instead. An abandoning call then
/// runs a box pass: a box term min over boxes of |q_k - box| is <= the
/// exact term, so the box prefix may already decide the prune. Survivors of
/// the box pass get the exact pass with the *key points* in lanes: each
/// data point is broadcast against 2·kLanes key points, the minimum runs
/// over squared distances, and one vector sqrt per lane group gives
/// min_j sub(q_k, T_j) (sqrt is monotone and correctly rounded, so
/// sqrt(min_j s_j) == min_j sqrt(s_j)). EDR and WED keep the scalar loop.
///
/// A bound plan is immutable after Bind and LowerBound is const, so one
/// bound plan may be shared by all worker threads of a query. With
/// sample_rate == 1.0 this is the OSF comparator.
class KpfBoundPlan {
 public:
  /// (Re-)computes the key-point sample for `query` (non-empty; the view
  /// must stay valid while LowerBound is used). Scratch capacity is reused.
  /// Samples simd::Enabled(), like the DP plans; both dispatches compute
  /// the same values bit for bit.
  void Bind(const DistanceSpec& spec, TrajectoryView query,
            double sample_rate);

  /// The KPF estimate (Theorem B.1 / Equation 28) against one non-empty
  /// candidate.
  ///
  /// Early abandon: a call may stop as soon as a value v <= the full bound
  /// with v >= `abandon_at` is known, and return v — so
  /// `LowerBound(d, t) >= t` holds exactly when the full bound is >= t, and
  /// the returned value is never above the full bound. v is either the
  /// rescaled bound over a prefix of the key points (every later term is
  /// >= 0, Fréchet aggregates by max, a rounded add of a non-negative term
  /// never decreases the sum, and dividing by the positive rate is
  /// monotone), on box terms or on exact ones, or the exact prefix plus the
  /// box terms of the rest, scaled by 1 - 4(K+2)·2^-53 against the
  /// different summation order (Fréchet: their max, unscaled). A NaN term
  /// still to come would make the full sum NaN; no prefix decides then.
  /// With the default +inf, or whenever the threshold is not reached, the
  /// value is the full bound. Pass SharedTopK::Cutoff(): it is one ulp above
  /// the K-th best, so "returned >= cutoff" is "returned > K-th best", which
  /// ShouldPrune then decides the same way as it would the full bound, since
  /// the published K-th best only ever tightens.
  double LowerBound(
      TrajectoryView data,
      double abandon_at = std::numeric_limits<double>::infinity()) const;

 private:
  /// The reference loop: one scalar min_j sub(q_i, T_j) per key point, in
  /// key order, abandoning at the first rescaled prefix >= abandon_at.
  double ScalarLowerBound(TrajectoryView data, double abandon_at) const;
  /// True when a key-point term at index >= `k` is NaN for `data` (only a
  /// summed bound cares: a NaN sub is ignored by min, a NaN term by max).
  bool TailHasNaN(size_t k, TrajectoryView data) const;

  DistanceSpec spec_;
  TrajectoryView query_;
  bool use_max_ = false;        // Fréchet aggregates by max, not sum
  bool wed_family_ = false;     // true when deletion costs participate
  bool boxed_ = false;          // the box and key-lane passes apply
  bool vector_ = false;         // simd::Enabled() at Bind
  double effective_rate_ = 1.0;
  double scale_ = 1.0;          // 1 - 4(K+2)·2^-53 for K key points
  std::vector<int> key_points_;     // sampled query indices, ascending
  std::vector<double> key_del_;     // del(q_i) per key point (WED family)
  /// Key point coordinates, padded to whole ChunkBoxes::kGroup groups by
  /// repeating the last key point (box path only).
  std::vector<double> key_x_;
  std::vector<double> key_y_;
};

}  // namespace trajsearch
