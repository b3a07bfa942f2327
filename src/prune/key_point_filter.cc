#include "prune/key_point_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace trajsearch {

namespace {

double MinSub(const DistanceSpec& spec, TrajectoryView query, int i,
              TrajectoryView data) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet: {
      const EuclideanSub sub{query, data};
      double best = sub(i, 0);
      for (int j = 1; j < static_cast<int>(data.size()); ++j) {
        best = std::min(best, sub(i, j));
      }
      return best;
    }
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

double KpfBoundPlan::LowerBound(TrajectoryView data) const {
  TRAJ_CHECK(!key_points_.empty());
  double total = 0;
  for (size_t k = 0; k < key_points_.size(); ++k) {
    const int i = key_points_[k];
    double c = MinSub(spec_, query_, i, data);
    if (wed_family_) c = std::min(key_del_[k], c);
    if (use_max_) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max_) return total;  // a max never needs rescaling
  return total / effective_rate_;
}

}  // namespace trajsearch
