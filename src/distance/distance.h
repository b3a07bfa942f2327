#pragma once

#include <string_view>
#include <type_traits>

#include "distance/cost_model.h"
#include "distance/dp.h"

namespace trajsearch {

/// \brief The trajectory distance functions covered by the paper's
/// experiments on GPS data (§6: DTW, EDR, ERP, FD; WED with custom costs).
enum class DistanceKind {
  kDtw,
  kEdr,
  kErp,
  kFrechet,
  kWed,
};

/// Short name used in tables ("DTW", "EDR", ...).
std::string_view ToString(DistanceKind kind);

/// \brief Distance-function descriptor: which function plus its parameters.
///
/// For kEdr, `edr_epsilon` is the matching threshold; for kErp, `erp_gap` is
/// the reference point g (paper: the region center); for kWed, `wed` holds
/// the user-defined cost functions (must outlive uses of the spec).
struct DistanceSpec {
  DistanceKind kind = DistanceKind::kDtw;
  double edr_epsilon = 0;
  Point erp_gap{};
  const WedCostFns* wed = nullptr;

  /// True for the WED family (edit-style: has ins/del costs).
  bool IsWedFamily() const {
    return kind == DistanceKind::kEdr || kind == DistanceKind::kErp ||
           kind == DistanceKind::kWed;
  }

  static DistanceSpec Dtw() { return {DistanceKind::kDtw, 0, {}, nullptr}; }
  static DistanceSpec Edr(double epsilon) {
    return {DistanceKind::kEdr, epsilon, {}, nullptr};
  }
  static DistanceSpec Erp(Point gap) {
    return {DistanceKind::kErp, 0, gap, nullptr};
  }
  static DistanceSpec Frechet() {
    return {DistanceKind::kFrechet, 0, {}, nullptr};
  }
  static DistanceSpec Wed(const WedCostFns* fns) {
    return {DistanceKind::kWed, 0, {}, fns};
  }
};

/// Dispatches `f` with the WED-family index-cost object described by `spec`.
/// Precondition: spec.IsWedFamily().
template <typename F>
auto VisitWedCosts(const DistanceSpec& spec, TrajectoryView q,
                   TrajectoryView d, F&& f) {
  switch (spec.kind) {
    case DistanceKind::kEdr:
      return f(EdrCosts{q, d, spec.edr_epsilon});
    case DistanceKind::kErp:
      return f(ErpCosts{q, d, spec.erp_gap});
    case DistanceKind::kWed:
      TRAJ_CHECK(spec.wed != nullptr);
      return f(CustomWedCosts{q, d, spec.wed});
    default:
      TRAJ_CHECK(false && "not a WED-family distance");
      return f(EdrCosts{q, d, 0});  // unreachable
  }
}

/// Calls f(c) with c = std::integral_constant<SubCombine, ...> for a
/// substitution-only distance: kMax for kFrechet, kSum for kDtw.
template <typename F>
auto VisitSubCombine(DistanceKind kind, F&& f) {
  TRAJ_CHECK(kind == DistanceKind::kDtw || kind == DistanceKind::kFrechet);
  if (kind == DistanceKind::kFrechet) {
    return f(std::integral_constant<SubCombine, SubCombine::kMax>{});
  }
  return f(std::integral_constant<SubCombine, SubCombine::kSum>{});
}

/// Builds the column stepper of `spec` over the pair (q, d) and returns
/// f(stepper): SubOnlyColumnDp over Euclidean costs for DTW and Fréchet,
/// WedColumnDp over the spec's cost object for the WED family.
template <typename F>
auto VisitColumnDp(const DistanceSpec& spec, TrajectoryView q,
                   TrajectoryView d, F&& f) {
  const int m = static_cast<int>(q.size());
  if (spec.IsWedFamily()) {
    return VisitWedCosts(spec, q, d, [&](const auto& costs) {
      WedColumnDp<std::decay_t<decltype(costs)>> dp(m, costs);
      return f(dp);
    });
  }
  return VisitSubCombine(spec.kind, [&](auto combine) {
    SubOnlyColumnDp<EuclideanSub, decltype(combine)::value> dp(
        m, EuclideanSub{q, d});
    return f(dp);
  });
}

/// \name Full-trajectory distances (whole query vs whole data trajectory)
/// These are the classic O(mn) dynamic programs (Equations 2 and 3 and the
/// discrete Fréchet recurrence): one sweep of a column stepper.
/// @{

/// dist(query, data[0..n-1]) from a fresh sweep of `dp` over n >= 1 points.
template <typename ColumnDp>
double SweepDistance(ColumnDp& dp, int n) {
  TRAJ_CHECK(n >= 1);
  dp.Reset();
  double v = 0;
  for (int j = 0; j < n; ++j) v = dp.Extend(j);
  return v;
}

/// WED distance with an arbitrary index-cost object.
template <typename Costs>
double WedDistanceT(int m, int n, const Costs& costs) {
  WedColumnDp<Costs> dp(m, costs);
  return SweepDistance(dp, n);
}

/// @}

/// \name GPS-point convenience wrappers
/// @{

/// Dynamic time warping (Yi et al. 1998; Equation 3).
double Dtw(TrajectoryView q, TrajectoryView d);
/// Edit distance on real sequences with threshold epsilon (Chen et al. 2005).
double Edr(TrajectoryView q, TrajectoryView d, double epsilon);
/// Edit distance with real penalty and gap point g (Chen & Ng 2004).
double Erp(TrajectoryView q, TrajectoryView d, Point gap);
/// Discrete Fréchet distance (Alt & Godau 1995, discrete variant).
double Frechet(TrajectoryView q, TrajectoryView d);
/// Weighted edit distance with user cost functions (Koide et al. 2020).
double Wed(TrajectoryView q, TrajectoryView d, const WedCostFns& fns);

/// Distance according to a spec (used by metrics, examples, tests).
double FullDistance(const DistanceSpec& spec, TrajectoryView q,
                    TrajectoryView d);

/// @}

}  // namespace trajsearch
