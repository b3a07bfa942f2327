#pragma once

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
/// LowerBound() reproduces KpfLowerBoundEstimate bit for bit (same key
/// points, same accumulation order), so an engine switching between the two
/// makes identical pruning decisions. A bound plan is immutable after Bind
/// and LowerBound is const, so one bound plan may be shared by all worker
/// threads of a query. With sample_rate == 1.0 this is the OSF comparator.
class KpfBoundPlan {
 public:
  /// (Re-)computes the key-point sample for `query` (non-empty; the view
  /// must stay valid while LowerBound is used). Scratch capacity is reused.
  void Bind(const DistanceSpec& spec, TrajectoryView query,
            double sample_rate);

  /// The KPF estimate (Theorem B.1 / Equation 28) against one candidate.
  double LowerBound(TrajectoryView data) const;

 private:
  DistanceSpec spec_;
  TrajectoryView query_;
  bool use_max_ = false;        // Fréchet aggregates by max, not sum
  bool wed_family_ = false;     // true when deletion costs participate
  double effective_rate_ = 1.0;
  std::vector<int> key_points_;     // sampled query indices, ascending
  std::vector<double> key_del_;     // del(q_i) per key point (WED family)
};

}  // namespace trajsearch
