#include "prune/key_point_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

namespace {

/// min_j |q_i - d_j| as the scalar reference computes it: a sqrt per pair.
double ScalarMinEuclidean(TrajectoryView query, int i, TrajectoryView data) {
  const EuclideanSub sub{query, data};
  double best = sub(i, 0);
  for (int j = 1; j < static_cast<int>(data.size()); ++j) {
    best = std::min(best, sub(i, j));
  }
  return best;
}

double MinSub(const DistanceSpec& spec, TrajectoryView query, int i,
              TrajectoryView data) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet:
      return ScalarMinEuclidean(query, i, data);
    default:
      return VisitWedCosts(spec, query, data, [&](const auto& costs) {
        double best = costs.Sub(i, 0);
        for (int j = 1; j < static_cast<int>(data.size()); ++j) {
          best = std::min(best, costs.Sub(i, j));
        }
        return best;
      });
  }
}

/// min_j |q - d_j| for a non-empty `data`: a min-scan of squared distances
/// (kLanes AoS points per step when `vector`, then a scalar tail) and one
/// sqrt. It orders NaN like the scalar loop's std::min: a NaN s_0 =
/// |q - d_0|^2 sticks, any later NaN is skipped. A NaN s_0 goes straight to
/// the scalar reference loop. Otherwise the lane accumulators start at s_0;
/// a lane min either keeps the accumulator on a NaN square (AVX2 minpd) or
/// turns the lane NaN (NEON fmin), and a NaN lane after the scan also sends
/// the key point to the scalar loop, so no ISA can drop a NaN.
double MinEuclidean(TrajectoryView query, int i, TrajectoryView data,
                    bool vector) {
  static_assert(sizeof(Point) == 2 * sizeof(double));
  const Point q = query[static_cast<size_t>(i)];
  const size_t n = data.size();
  double best = SquaredDistance(q, data[0]);
  if (std::isnan(best)) return ScalarMinEuclidean(query, i, data);
  size_t j = 1;
  if (vector && n >= static_cast<size_t>(simd::kLanes)) {
    using simd::VecD;
    const double* xy = reinterpret_cast<const double*>(data.data());
    const VecD qx = VecD::Broadcast(q.x);
    const VecD qy = VecD::Broadcast(q.y);
    // Two accumulators, so consecutive mins do not wait on each other.
    constexpr size_t kStep = simd::kLanes;
    VecD acc0 = VecD::Broadcast(best);
    VecD acc1 = acc0;
    auto square = [&](size_t at) {
      VecD x, y;
      VecD::LoadXY(xy + 2 * at, &x, &y);
      const VecD dx = qx - x;
      const VecD dy = qy - y;
      return dx * dx + dy * dy;
    };
    for (j = 0; j + 2 * kStep <= n; j += 2 * kStep) {
      acc0 = VecD::Min(square(j), acc0);
      acc1 = VecD::Min(square(j + kStep), acc1);
    }
    if (j + kStep <= n) {
      acc0 = VecD::Min(square(j), acc0);
      j += kStep;
    }
    double lanes[kStep];
    VecD::Min(acc1, acc0).Store(lanes);
    for (const double s : lanes) {
      if (std::isnan(s)) return ScalarMinEuclidean(query, i, data);
      best = std::min(best, s);
    }
  }
  for (; j < n; ++j) best = std::min(best, SquaredDistance(q, data[j]));
  return std::sqrt(best);
}

}  // namespace

double KpfPointMinCost(const DistanceSpec& spec, TrajectoryView query, int i,
                       TrajectoryView data) {
  const double min_sub = MinSub(spec, query, i, data);
  if (spec.kind == DistanceKind::kDtw || spec.kind == DistanceKind::kFrechet) {
    return min_sub;  // deletion cost is itself a substitution (§5.2)
  }
  return VisitWedCosts(spec, query, data, [&](const auto& costs) {
    return std::min(costs.Del(i), min_sub);
  });
}

double KpfLowerBoundEstimate(const DistanceSpec& spec, TrajectoryView query,
                             TrajectoryView data, double sample_rate) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  const bool use_max = spec.kind == DistanceKind::kFrechet;
  double total = 0;
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query.
    const int i = static_cast<int>(
        (static_cast<int64_t>(k) * m) / key_count);
    const double c = KpfPointMinCost(spec, query, i, data);
    if (use_max) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max) return total;  // a max never needs rescaling
  const double effective_rate =
      static_cast<double>(key_count) / static_cast<double>(m);
  return total / effective_rate;
}

double OsfLowerBound(const DistanceSpec& spec, TrajectoryView query,
                     TrajectoryView data) {
  return KpfLowerBoundEstimate(spec, query, data, /*sample_rate=*/1.0);
}

void KpfBoundPlan::Bind(const DistanceSpec& spec, TrajectoryView query,
                        double sample_rate) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  TRAJ_CHECK(!query.empty());
  spec_ = spec;
  query_ = query;
  use_max_ = spec.kind == DistanceKind::kFrechet;
  wed_family_ = spec.IsWedFamily();
  euclidean_ = spec.kind == DistanceKind::kDtw ||
               spec.kind == DistanceKind::kFrechet ||
               spec.kind == DistanceKind::kErp;
  vector_ = simd::Enabled();

  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  key_points_.resize(static_cast<size_t>(key_count));
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query — identical index math to
    // KpfLowerBoundEstimate.
    key_points_[static_cast<size_t>(k)] =
        static_cast<int>((static_cast<int64_t>(k) * m) / key_count);
  }
  effective_rate_ = static_cast<double>(key_count) / static_cast<double>(m);

  // Deletion costs are query-side only (EDR: constant 1; ERP: distance to
  // the gap point; WED: user del of the query point) — hoist them out of
  // the per-candidate loop.
  key_del_.clear();
  if (wed_family_) {
    key_del_.reserve(static_cast<size_t>(key_count));
    // The data view is unused by Del; the query stands in for it.
    VisitWedCosts(spec_, query_, query_, [&](const auto& costs) {
      for (const int i : key_points_) key_del_.push_back(costs.Del(i));
    });
  }
}

double KpfBoundPlan::MinSubAt(size_t k, TrajectoryView data) const {
  const int i = key_points_[k];
  if (euclidean_) return MinEuclidean(query_, i, data, vector_);
  return MinSub(spec_, query_, i, data);
}

bool KpfBoundPlan::TailHasNaN(size_t k, TrajectoryView data) const {
  if (use_max_) return false;
  for (; k < key_points_.size(); ++k) {
    // A WED-family term is min(del, sub), NaN exactly when del is; a DTW
    // term is NaN exactly when the scalar min's first sub(q_i, d_0) is.
    if (wed_family_ ? std::isnan(key_del_[k])
                    : std::isnan(SquaredDistance(
                          query_[static_cast<size_t>(key_points_[k])],
                          data[0]))) {
      return true;
    }
  }
  return false;
}

double KpfBoundPlan::LowerBound(TrajectoryView data,
                                double abandon_at) const {
  TRAJ_CHECK(!key_points_.empty());
  const size_t key_count = key_points_.size();
  double total = 0;
  for (size_t k = 0; k < key_count; ++k) {
    double c = MinSubAt(k, data);
    if (wed_family_) c = std::min(key_del_[k], c);
    if (use_max_) {
      total = std::max(total, c);
    } else {
      total += c;
    }
    // The rescaled partial bound, computed exactly as the full one below.
    const double partial = use_max_ ? total : total / effective_rate_;
    if (partial >= abandon_at && k + 1 < key_count) {
      if (!TailHasNaN(k + 1, data)) return partial;
      abandon_at = std::numeric_limits<double>::infinity();
    }
  }
  if (use_max_) return total;  // a max never needs rescaling
  return total / effective_rate_;
}

}  // namespace trajsearch
