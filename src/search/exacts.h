#pragma once

#include <memory>

#include "distance/distance.h"
#include "search/query_run.h"
#include "search/result.h"

namespace trajsearch {

/// ExactS baseline (Wang et al. 2020; the paper's Algorithm 1): for every
/// start position i it sweeps end positions with an incremental DP column,
/// obtaining dist(query, data[i..j]) in O(m) per cell — O(mn^2) total.
/// Exact for every distance function the library supports. The plans run
/// ExactSBatchWithDp (one start position per SIMD lane) under vector
/// dispatch and ExactSWithDp over the scalar column steppers otherwise.

/// \brief ExactS over an arbitrary column stepper (WedColumnDp or
/// SubOnlyColumnDp), with bound-aware early abandoning: a start's sweep
/// stops once the stepper's SweepLowerBound() proves every remaining cell is
/// >= cutoff. Any result below the cutoff is identical to the unbounded
/// scan; with cutoff == kNoCutoff this is the full Algorithm 1.
template <typename ColumnDp>
SearchResult ExactSWithDp(ColumnDp& dp, int n, double cutoff = kNoCutoff) {
  TRAJ_CHECK(n >= 1);
  SearchResult result;
  for (int start = 0; start < n; ++start) {
    dp.Reset();
    for (int j = start; j < n; ++j) {
      const double dist = dp.Extend(j);
      if (dist < result.distance) {
        result.distance = dist;
        result.range = Subrange{start, j};
      }
      if (dp.SweepLowerBound() >= cutoff) break;  // monotone-DP abandon
    }
  }
  return result;
}

/// \brief Multi-sweep ExactS over a batch stepper (WedBatchDp or
/// SubOnlyBatchDp): up to `lanes` start positions of the same candidate run
/// concurrently, one per SIMD lane, each owning its own DP column. The
/// `stage` callback fills the per-lane data staging buffers — stage(l, j,
/// sx, sy, ins) must write data[j]'s coordinates into sx[l]/sy[l] and its
/// insertion cost into ins[l] (ignored by DTW/Fréchet).
///
/// Equivalence with ExactSWithDp: the batch steppers reproduce the scalar
/// per-cell IEEE ops lanewise, so each lane's sweep is bit-identical to the
/// scalar sweep from the same start — same distances, same
/// SweepLowerBound-vs-cutoff abandon point, same number of Extend steps
/// (cell-counter conservation). The scalar scan updates its running best
/// with a strict `<` over (start asc, end asc), i.e. it returns the
/// lexicographically smallest (distance, start, end); we compute each
/// sweep's (best, end) with the same strict `<` and merge sweeps under that
/// same order, which is commutative — so the result matches regardless of
/// the order lanes retire. Lanes that finish or abandon are refilled from
/// the next pending start position.
template <typename BatchDp, typename Stager>
SearchResult ExactSBatchWithDp(BatchDp& dp, int n, double cutoff, int lanes,
                               Stager&& stage) {
  TRAJ_CHECK(n >= 1);
  constexpr int kW = simd::kLanes;
  if (lanes < 1) lanes = 1;
  if (lanes > kW) lanes = kW;
  SearchResult result;
  int start[kW] = {};
  int j[kW] = {};
  bool live[kW] = {};
  double sweep_best[kW];
  int sweep_end[kW] = {};
  // Staged per-lane data (coordinates + insertion cost). Dead lanes keep
  // their last staged values — finite, so their garbage cells stay finite.
  double sx[kW] = {};
  double sy[kW] = {};
  double ins[kW] = {};
  int next_start = 0;
  const auto commit = [&](int l) {
    const double d = sweep_best[l];
    if (d < result.distance ||
        (d == result.distance && result.range.valid() &&
         start[l] < result.range.start)) {
      result.distance = d;
      result.range = Subrange{start[l], sweep_end[l]};
    }
  };
  while (true) {
    int live_count = 0;
    for (int l = 0; l < lanes; ++l) {
      if (!live[l] && next_start < n) {
        start[l] = next_start++;
        j[l] = start[l];
        sweep_best[l] = kNoCutoff;
        live[l] = true;
        dp.ResetLane(l);
      }
      if (live[l]) {
        ++live_count;
        stage(l, j[l], sx, sy, ins);
      }
    }
    if (live_count == 0) break;
    dp.Extend(sx, sy, ins, live_count);
    for (int l = 0; l < lanes; ++l) {
      if (!live[l]) continue;
      const double dist = dp.LaneResult(l);
      if (dist < sweep_best[l]) {
        sweep_best[l] = dist;
        sweep_end[l] = j[l];
      }
      if (dp.LaneBound(l) >= cutoff) {  // monotone-DP abandon, per lane
        if (j[l] < n - 1) dp.CountLaneAbandon();
        commit(l);
        live[l] = false;
      } else if (j[l] == n - 1) {
        commit(l);
        live[l] = false;
      } else {
        ++j[l];
      }
    }
  }
  return result;
}

/// \brief ExactS for a WED-family cost object.
template <typename Costs>
SearchResult ExactSWedSearch(int m, int n, const Costs& costs) {
  WedColumnDp<Costs> dp(m, costs);
  return ExactSWithDp(dp, n);
}

/// \brief Type-erased ExactS over GPS trajectories.
SearchResult ExactSSearch(const DistanceSpec& spec, TrajectoryView query,
                          TrajectoryView data);

/// \brief Bind-once ExactS execution plan: the O(m) DP column and the
/// WED deletion-prefix table are built once per query, and every sweep
/// honors the Run cutoff via the stepper's SweepLowerBound().
std::unique_ptr<QueryRun> MakeExactSRun(const DistanceSpec& spec);

}  // namespace trajsearch
