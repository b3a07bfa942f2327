#include "search/oracle.h"

#include <algorithm>

namespace trajsearch {

namespace {

template <typename ColumnDp>
void CollectAll(ColumnDp& dp, int n, std::vector<double>* out) {
  out->reserve(static_cast<size_t>(n) * (static_cast<size_t>(n) + 1) / 2);
  for (int start = 0; start < n; ++start) {
    dp.Reset();
    for (int j = start; j < n; ++j) out->push_back(dp.Extend(j));
  }
}

}  // namespace

SubtrajectoryOracle::SubtrajectoryOracle(const DistanceSpec& spec,
                                         TrajectoryView query,
                                         TrajectoryView data) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  TRAJ_CHECK(m >= 1 && n >= 1);
  VisitColumnDp(spec, query, data,
                [&](auto& dp) { CollectAll(dp, n, &distances_); });
  std::sort(distances_.begin(), distances_.end());
}

double SubtrajectoryOracle::OptimalDistance() const {
  return distances_.empty() ? 0 : distances_.front();
}

size_t SubtrajectoryOracle::RankOf(double distance) const {
  const auto it =
      std::lower_bound(distances_.begin(), distances_.end(), distance);
  return static_cast<size_t>(it - distances_.begin()) + 1;
}

double SubtrajectoryOracle::RelativeRankOf(double distance) const {
  if (distances_.empty()) return 0;
  return static_cast<double>(RankOf(distance) - 1) /
         static_cast<double>(distances_.size());
}

double SubtrajectoryOracle::ApproximateRatioOf(double distance) const {
  const double opt = OptimalDistance();
  constexpr double kTiny = 1e-12;
  if (opt <= kTiny) return distance <= kTiny ? 1.0 : (1.0 + distance);
  return distance / opt;
}

EffectivenessSample Evaluate(const SubtrajectoryOracle& oracle,
                             double found_distance) {
  EffectivenessSample s;
  s.approximate_ratio = oracle.ApproximateRatioOf(found_distance);
  s.mean_rank = static_cast<double>(oracle.RankOf(found_distance));
  s.relative_rank = oracle.RelativeRankOf(found_distance);
  return s;
}

}  // namespace trajsearch
