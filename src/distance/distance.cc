#include "distance/distance.h"

namespace trajsearch {

std::string_view ToString(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::kDtw: return "DTW";
    case DistanceKind::kEdr: return "EDR";
    case DistanceKind::kErp: return "ERP";
    case DistanceKind::kFrechet: return "FD";
    case DistanceKind::kWed: return "WED";
  }
  return "?";
}

double Dtw(TrajectoryView q, TrajectoryView d) {
  return FullDistance(DistanceSpec::Dtw(), q, d);
}

double Edr(TrajectoryView q, TrajectoryView d, double epsilon) {
  return FullDistance(DistanceSpec::Edr(epsilon), q, d);
}

double Erp(TrajectoryView q, TrajectoryView d, Point gap) {
  return FullDistance(DistanceSpec::Erp(gap), q, d);
}

double Frechet(TrajectoryView q, TrajectoryView d) {
  return FullDistance(DistanceSpec::Frechet(), q, d);
}

double Wed(TrajectoryView q, TrajectoryView d, const WedCostFns& fns) {
  return FullDistance(DistanceSpec::Wed(&fns), q, d);
}

double FullDistance(const DistanceSpec& spec, TrajectoryView q,
                    TrajectoryView d) {
  const int n = static_cast<int>(d.size());
  return VisitColumnDp(spec, q, d,
                       [n](auto& dp) { return SweepDistance(dp, n); });
}

}  // namespace trajsearch
