#pragma once

#include <functional>

#include "core/point.h"
#include "core/trajectory.h"
#include "util/simd.h"

namespace trajsearch {

/// The DP algorithms in this library are templated over *index-based* cost
/// objects: a cost object binds a (query, data) trajectory pair and exposes
///
///   double Sub(int i, int j) const;  // substitute query[i] with data[j]
///   double Ins(int j) const;         // insert data[j]          (WED family)
///   double Del(int i) const;         // delete query[i]         (WED family)
///
/// This keeps the algorithms agnostic to the point representation: GPS points
/// here, road-network nodes/edges in distance/road_costs.h.
///
/// The built-in WED-family GPS cost models (EDR, ERP) additionally expose a
/// vector substitution kernel for the SIMD column sweep of WedColumnDp in
/// distance/dp.h:
///
///   simd::VecD SubLane(int x, int j) const;  // Sub(x..x+lanes-1, j)
///   bool cols_ready() const;                 // query columns bound?
///
/// SubLane evaluates one lane group of *query* indices against a single data
/// point — exactly the access pattern of the WED column stepper, which walks
/// the query dimension per Extend(j). It reads the query's coordinate
/// columns (`qc`, deinterleaved once per plan Bind); cost models without
/// columns (or with opaque user callbacks, e.g. CustomWedCosts) simply lack
/// SubLane and the stepper falls back to the scalar loop via the
/// simd::VectorizedCosts concept. Every SubLane performs, per lane, the same
/// correctly rounded IEEE operations as the scalar Sub, so results are
/// bit-identical.
///
/// The batch kernels walk the transpose: one query index against a lane
/// group of *data* points. WedBatchDp and SubOnlyBatchDp (distance/dp.h)
/// hold one independent sweep per lane (multi-sweep ExactS, the PSS/RLS
/// suffix sweeps), the CMA lane kernel one candidate per lane, and CMA's
/// CmaRowCosts adapter (search/cma.h) one row's run of consecutive data
/// points of a single candidate. For those the cost models expose
///
///   simd::VecD SubData(int i, simd::VecD dx, simd::VecD dy) const;
///
/// where (dx, dy) are data coordinates the caller staged per lane (each lane
/// may come from a different data index or a different trajectory, so there
/// is no column to load from — staging is the caller's job). The query point
/// is broadcast from the bound view; no columns are required, and the
/// per-lane operation sequence again mirrors the scalar Sub exactly
/// (simd::BatchCosts gates dispatch).

/// \brief EDR costs (Chen et al. 2005): ins = del = 1; sub = 0 iff the points
/// are within `epsilon` (Euclidean), else 1.
struct EdrCosts {
  TrajectoryView q;
  TrajectoryView d;
  double epsilon = 0;
  PointCols qc;  // query coordinate columns (set at plan Bind; may be empty)

  double Sub(int i, int j) const {
    return SquaredDistance(q[static_cast<size_t>(i)],
                           d[static_cast<size_t>(j)]) <= epsilon * epsilon
               ? 0.0
               : 1.0;
  }
  double Ins(int) const { return 1.0; }
  double Del(int) const { return 1.0; }

  bool cols_ready() const { return !qc.empty(); }
  /// Sub for query indices [x, x+lanes): squared distance vs epsilon^2,
  /// lanewise select of 0/1 — same rounding as the scalar comparison.
  simd::VecD SubLane(int x, int j) const {
    const Point p = d[static_cast<size_t>(j)];
    const simd::VecD dx =
        simd::VecD::Load(qc.x + x) - simd::VecD::Broadcast(p.x);
    const simd::VecD dy =
        simd::VecD::Load(qc.y + x) - simd::VecD::Broadcast(p.y);
    const simd::VecD sq = dx * dx + dy * dy;
    return simd::VecD::SelectLE(sq, simd::VecD::Broadcast(epsilon * epsilon),
                                simd::VecD::Broadcast(0.0),
                                simd::VecD::Broadcast(1.0));
  }
  /// Sub for query index i against a lane group of staged data coordinates —
  /// same squared-distance/threshold sequence as the scalar Sub, per lane.
  simd::VecD SubData(int i, simd::VecD dx, simd::VecD dy) const {
    const Point p = q[static_cast<size_t>(i)];
    return SubData(simd::VecD::Broadcast(p.x), simd::VecD::Broadcast(p.y), dx,
                   dy);
  }
  /// SubData with a query point per lane (qx, qy).
  simd::VecD SubData(simd::VecD qx, simd::VecD qy, simd::VecD dx,
                     simd::VecD dy) const {
    const simd::VecD ddx = qx - dx;
    const simd::VecD ddy = qy - dy;
    const simd::VecD sq = ddx * ddx + ddy * ddy;
    return simd::VecD::SelectLE(sq, simd::VecD::Broadcast(epsilon * epsilon),
                                simd::VecD::Broadcast(0.0),
                                simd::VecD::Broadcast(1.0));
  }
};

/// \brief ERP costs (Chen & Ng 2004): sub = Euclidean distance; ins/del =
/// distance to a fixed gap/reference point g (paper §5.3 uses the region
/// center).
struct ErpCosts {
  TrajectoryView q;
  TrajectoryView d;
  Point gap;
  PointCols qc;  // query coordinate columns (set at plan Bind; may be empty)
  /// When set, Ins(j) reads this instead of recomputing the gap distance.
  /// ExactSWedPlan fills it once per data trajectory under vector dispatch
  /// (the values are identical either way), turning the O(n) gap
  /// distances recomputed across ExactS's n start sweeps into loads.
  const double* ins_cache = nullptr;

  double Sub(int i, int j) const {
    return EuclideanDistance(q[static_cast<size_t>(i)],
                             d[static_cast<size_t>(j)]);
  }
  double Ins(int j) const {
    if (ins_cache != nullptr) return ins_cache[j];
    return EuclideanDistance(d[static_cast<size_t>(j)], gap);
  }
  double Del(int i) const {
    return EuclideanDistance(q[static_cast<size_t>(i)], gap);
  }

  bool cols_ready() const { return !qc.empty(); }
  /// Sub for query indices [x, x+lanes): sqrt((qx-dx)^2 + (qy-dy)^2) with
  /// the same sub/mul/add/sqrt sequence (each correctly rounded) as the
  /// scalar EuclideanDistance.
  simd::VecD SubLane(int x, int j) const {
    const Point p = d[static_cast<size_t>(j)];
    const simd::VecD dx =
        simd::VecD::Load(qc.x + x) - simd::VecD::Broadcast(p.x);
    const simd::VecD dy =
        simd::VecD::Load(qc.y + x) - simd::VecD::Broadcast(p.y);
    return simd::VecD::Sqrt(dx * dx + dy * dy);
  }
  /// Sub for query index i against a lane group of staged data coordinates —
  /// the same sub/mul/add/sqrt sequence as the scalar EuclideanDistance.
  simd::VecD SubData(int i, simd::VecD dx, simd::VecD dy) const {
    const Point p = q[static_cast<size_t>(i)];
    return SubData(simd::VecD::Broadcast(p.x), simd::VecD::Broadcast(p.y), dx,
                   dy);
  }
  /// SubData with a query point per lane (qx, qy).
  simd::VecD SubData(simd::VecD qx, simd::VecD qy, simd::VecD dx,
                     simd::VecD dy) const {
    const simd::VecD ddx = qx - dx;
    const simd::VecD ddy = qy - dy;
    return simd::VecD::Sqrt(ddx * ddx + ddy * ddy);
  }
};

/// \brief Classic uniform edit-distance costs (the paper's running examples
/// in Figures 4-5): ins = del = 1, sub = 0 iff points are exactly equal.
struct UniformEditCosts {
  TrajectoryView q;
  TrajectoryView d;

  double Sub(int i, int j) const {
    return q[static_cast<size_t>(i)] == d[static_cast<size_t>(j)] ? 0.0 : 1.0;
  }
  double Ins(int) const { return 1.0; }
  double Del(int) const { return 1.0; }
};

/// \brief User-defined WED cost functions over points (Definition of WED,
/// Koide et al. 2020): arbitrary non-negative sub/ins/del.
struct WedCostFns {
  std::function<double(const Point&, const Point&)> sub;
  std::function<double(const Point&)> ins;
  std::function<double(const Point&)> del;
};

/// \brief Index adapter binding WedCostFns to a trajectory pair.
struct CustomWedCosts {
  TrajectoryView q;
  TrajectoryView d;
  const WedCostFns* fns = nullptr;

  double Sub(int i, int j) const {
    return fns->sub(q[static_cast<size_t>(i)], d[static_cast<size_t>(j)]);
  }
  double Ins(int j) const { return fns->ins(d[static_cast<size_t>(j)]); }
  double Del(int i) const { return fns->del(q[static_cast<size_t>(i)]); }
};

/// \brief Euclidean substitution functor for DTW and discrete Fréchet
/// (neither uses ins/del costs; DTW's del/ins are tied to sub, §5.2).
struct EuclideanSub {
  TrajectoryView q;
  TrajectoryView d;

  double operator()(int i, int j) const {
    return EuclideanDistance(q[static_cast<size_t>(i)],
                             d[static_cast<size_t>(j)]);
  }

  simd::VecD SubData(int i, simd::VecD dx, simd::VecD dy) const {
    const Point p = q[static_cast<size_t>(i)];
    return SubData(simd::VecD::Broadcast(p.x), simd::VecD::Broadcast(p.y), dx,
                   dy);
  }
  /// SubData with a query point per lane (qx, qy), as the CMA lane kernel
  /// needs when its lanes sit at different query rows.
  simd::VecD SubData(simd::VecD qx, simd::VecD qy, simd::VecD dx,
                     simd::VecD dy) const {
    const simd::VecD ddx = qx - dx;
    const simd::VecD ddy = qy - dy;
    return simd::VecD::Sqrt(ddx * ddx + ddy * ddy);
  }
};

/// \brief Indirection over a substitution functor. The substitution-only
/// steppers (SubOnlyColumnDp, SubOnlyBatchDp) copy their functor by value; a query plan instead hands them a
/// SubRef to a plan-owned functor so rebinding the underlying trajectory
/// views (new query at Bind, new data trajectory per Run) is visible to an
/// already-constructed stepper. Forwards the batch kernel when the
/// underlying functor has one.
template <typename F>
struct SubRef {
  const F* fn = nullptr;

  double operator()(int i, int j) const { return (*fn)(i, j); }

  simd::VecD SubData(int i, simd::VecD dx, simd::VecD dy) const
    requires simd::BatchCosts<F>
  {
    return fn->SubData(i, dx, dy);
  }
};

}  // namespace trajsearch
