#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "distance/distance.h"
#include "search/query_run.h"
#include "util/check.h"

namespace trajsearch::detail {

/// Internal building blocks shared by the scan-based execution plans
/// (POS/PSS in pos_pss.cc, RLS/RLS-Skip in rls.cc). A "kind" bundles a cost
/// holder with the matching column stepper and knows how to construct the
/// stepper so that later updates of the holder's trajectory views are seen
/// by the stepper (WED steppers hold the costs by pointer; DTW/Fréchet
/// steppers receive a SubRef indirection).

/// WED-family kind: Costs is EdrCosts / ErpCosts / CustomWedCosts.
template <typename CostsT>
struct WedKind {
  using Costs = CostsT;
  using Stepper = WedColumnDp<Costs>;
  using BatchStepper = WedBatchDp<Costs>;

  static void Emplace(std::optional<Stepper>* dp, int m, const Costs& costs,
                      DpArena* arena) {
    dp->emplace(m, costs, arena);
  }
  static void EmplaceBatch(std::optional<BatchStepper>* dp, int m,
                           const Costs& costs, DpArena* arena) {
    dp->emplace(m, costs, arena);
  }
};

/// Substitution-only kind (DTW / Fréchet) over Euclidean point costs.
template <SubCombine kCombine>
struct SubKind {
  using Costs = EuclideanSub;
  using Stepper = SubOnlyColumnDp<SubRef<EuclideanSub>, kCombine>;
  using BatchStepper = SubOnlyBatchDp<SubRef<EuclideanSub>, kCombine>;

  static void Emplace(std::optional<Stepper>* dp, int m, const Costs& costs,
                      DpArena* arena) {
    dp->emplace(m, SubRef<EuclideanSub>{&costs}, arena);
  }
  static void EmplaceBatch(std::optional<BatchStepper>* dp, int m,
                           const Costs& costs, DpArena* arena) {
    dp->emplace(m, SubRef<EuclideanSub>{&costs}, arena);
  }
};

/// Builds Plan<Kind> for the cost kind of `spec`, passing the kind's
/// prototype costs and then `args` to its constructor (the POS/PSS and RLS
/// plan factories).
template <template <typename> class Plan, typename... Args>
std::unique_ptr<QueryRun> MakeScanPlan(const DistanceSpec& spec,
                                       const Args&... args) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet:
      return VisitSubCombine(
          spec.kind, [&](auto combine) -> std::unique_ptr<QueryRun> {
            return std::make_unique<Plan<SubKind<decltype(combine)::value>>>(
                EuclideanSub{}, args...);
          });
    case DistanceKind::kEdr:
      return std::make_unique<Plan<WedKind<EdrCosts>>>(
          EdrCosts{{}, {}, spec.edr_epsilon}, args...);
    case DistanceKind::kErp:
      return std::make_unique<Plan<WedKind<ErpCosts>>>(
          ErpCosts{{}, {}, spec.erp_gap}, args...);
    case DistanceKind::kWed:
      TRAJ_CHECK(spec.wed != nullptr);
      return std::make_unique<Plan<WedKind<CustomWedCosts>>>(
          CustomWedCosts{{}, {}, spec.wed}, args...);
  }
  TRAJ_CHECK(false && "unknown distance kind");
  return nullptr;
}

/// Per-query state of the forward prefix scan: plan-owned costs (query view
/// fixed at Bind, data view repointed per candidate) plus the stepper built
/// over them.
template <typename Kind>
struct ScanState {
  typename Kind::Costs costs;
  std::optional<typename Kind::Stepper> dp;

  void Bind(TrajectoryView query, const typename Kind::Costs& prototype,
            DpArena* arena) {
    TRAJ_CHECK(!query.empty());
    costs = prototype;
    costs.q = query;
    costs.d = TrajectoryView();
    // Columns before Emplace: the stepper captures SIMD dispatch when built.
    if constexpr (simd::VectorizedCosts<typename Kind::Costs>) {
      costs.qc = FillCols(query, arena);
    }
    Kind::Emplace(&dp, static_cast<int>(query.size()), costs, arena);
  }

  void SetData(TrajectoryView data) { costs.d = data; }
};

/// Per-query suffix-distance machinery: dist(q, d[t..n-1]) equals the
/// prefix distance of the reversed pair, so one O(mn) reversed sweep fills
/// the whole table. The reversed query is copied once per Bind; both
/// reversed-point buffers are checked out of the plan's DpArena, so
/// rebinding the plan to a new query (and every candidate evaluated under
/// it) reuses the same grow-only storage instead of allocating.
template <typename Kind>
struct SuffixState {
  typename Kind::Costs rcosts;
  std::vector<Point>* reversed_query = nullptr;
  std::vector<Point>* reversed_data = nullptr;
  std::optional<typename Kind::Stepper> dp;
  std::vector<double> suffix;
  /// Batched suffix sweeps (one candidate per lane; see ComputeBatch).
  std::optional<typename Kind::BatchStepper> bdp;
  std::array<std::vector<Point>*, simd::kLanes> batch_reversed = {};
  std::array<std::vector<double>*, simd::kLanes> batch_suffix = {};
  int batch_width = 1;

  void Bind(TrajectoryView query, const typename Kind::Costs& prototype,
            DpArena* arena) {
    TRAJ_CHECK(!query.empty());
    const size_t m = query.size();
    reversed_query = arena->Points();
    reversed_query->resize(m);
    for (size_t i = 0; i < m; ++i) (*reversed_query)[i] = query[m - 1 - i];
    // Checked out here (not in Compute) so the arena checkout order is the
    // same on every rebind and capacity carries over.
    reversed_data = arena->Points();
    for (int l = 0; l < simd::kLanes; ++l) {
      batch_reversed[static_cast<size_t>(l)] = arena->Points();
      batch_suffix[static_cast<size_t>(l)] = arena->Doubles();
    }
    rcosts = prototype;
    rcosts.q = TrajectoryView(*reversed_query);
    rcosts.d = TrajectoryView();
    if constexpr (simd::VectorizedCosts<typename Kind::Costs>) {
      rcosts.qc = FillCols(TrajectoryView(*reversed_query), arena);
    }
    Kind::Emplace(&dp, static_cast<int>(m), rcosts, arena);
    // Batch dispatch sampled at Bind, like the steppers'. Opaque cost models
    // (no SubData) keep the scalar per-candidate sweep.
    bdp.reset();
    batch_width =
        simd::Enabled() && simd::BatchCosts<typename Kind::Costs>
            ? simd::BatchLanes()
            : 1;
    if (batch_width > 1) {
      Kind::EmplaceBatch(&bdp, static_cast<int>(m), rcosts, arena);
    }
  }

  /// Fills and returns the table: suffix[t] = dist(q, d[t..n-1]) for
  /// t in [0, n), suffix[n] = +infinity.
  const std::vector<double>& Compute(TrajectoryView data) {
    const size_t n = data.size();
    TRAJ_CHECK(n >= 1);
    reversed_data->resize(n);
    for (size_t j = 0; j < n; ++j) (*reversed_data)[j] = data[n - 1 - j];
    rcosts.d = TrajectoryView(*reversed_data);
    suffix.assign(n + 1, kDpInfinity);
    dp->Reset();
    for (size_t j = 0; j < n; ++j) {
      suffix[n - 1 - j] = dp->Extend(static_cast<int>(j));
    }
    return suffix;
  }

  /// The scan plans' RunWindow: groups of batch_width candidates, one
  /// cutoff read per group. A group of one runs single(data, cutoff) (the
  /// plan's Run); a larger group computes its suffix tables together
  /// (ComputeBatch) and then scan(data, table) per candidate.
  template <typename Single, typename Scan>
  void RunWindow(const QueryRun::RunBatchItem* items, int count,
                 QueryRun::WindowSink* sink, Single&& single, Scan&& scan) {
    for (int begin = 0; begin < count; begin += batch_width) {
      const int group = std::min(batch_width, count - begin);
      const double cutoff = sink->Cutoff();
      if (group == 1) {
        sink->Done(begin, single(items[begin].data, cutoff), cutoff);
        continue;
      }
      std::array<TrajectoryView, simd::kLanes> views;
      for (int i = 0; i < group; ++i) {
        views[static_cast<size_t>(i)] = items[begin + i].data;
      }
      ComputeBatch(views.data(), group);
      for (int i = 0; i < group; ++i) {
        sink->Done(begin + i,
                   scan(items[begin + i].data,
                        *batch_suffix[static_cast<size_t>(i)]),
                   cutoff);
      }
    }
  }

  /// Compute() for up to batch_width candidates at once: one multi-sweep
  /// batch stepper, each lane owning one candidate's reversed sweep, with
  /// shorter lanes masked out of the step once exhausted (candidates are
  /// ragged; no refill — the batch is one synchronized pass). Tables land in
  /// batch_suffix[0..count) and are bit-identical to per-candidate Compute()
  /// (the batch stepper replays the scalar per-cell ops lanewise). Requires
  /// batch_width > 1 and 1 <= count <= batch_width.
  void ComputeBatch(const TrajectoryView* datas, int count) {
    if constexpr (simd::BatchCosts<typename Kind::Costs>) {
      TRAJ_CHECK(bdp.has_value() && count >= 1 && count <= batch_width);
      constexpr int kW = simd::kLanes;
      std::array<int, kW> n = {};
      std::array<typename Kind::Costs, kW> lane_costs;
      int nmax = 0;
      for (int l = 0; l < count; ++l) {
        const TrajectoryView d = datas[l];
        const int nl = static_cast<int>(d.size());
        TRAJ_CHECK(nl >= 1);
        n[static_cast<size_t>(l)] = nl;
        nmax = nl > nmax ? nl : nmax;
        std::vector<Point>* rev = batch_reversed[static_cast<size_t>(l)];
        rev->resize(static_cast<size_t>(nl));
        for (int j = 0; j < nl; ++j) {
          (*rev)[static_cast<size_t>(j)] = d[static_cast<size_t>(nl - 1 - j)];
        }
        batch_suffix[static_cast<size_t>(l)]->assign(
            static_cast<size_t>(nl) + 1, kDpInfinity);
        lane_costs[static_cast<size_t>(l)] = rcosts;
        lane_costs[static_cast<size_t>(l)].d = TrajectoryView(*rev);
        bdp->ResetLane(l);
      }
      double sx[kW] = {};
      double sy[kW] = {};
      double ins[kW] = {};
      for (int j = 0; j < nmax; ++j) {
        int live = 0;
        for (int l = 0; l < count; ++l) {
          if (j >= n[static_cast<size_t>(l)]) continue;
          const Point p =
              (*batch_reversed[static_cast<size_t>(l)])[static_cast<size_t>(j)];
          sx[l] = p.x;
          sy[l] = p.y;
          if constexpr (requires(const typename Kind::Costs& c) {
                          c.Ins(j);
                        }) {
            ins[l] = lane_costs[static_cast<size_t>(l)].Ins(j);
          }
          ++live;
        }
        bdp->Extend(sx, sy, ins, live);
        for (int l = 0; l < count; ++l) {
          const int nl = n[static_cast<size_t>(l)];
          if (j >= nl) continue;
          (*batch_suffix[static_cast<size_t>(l)])[static_cast<size_t>(
              nl - 1 - j)] = bdp->LaneResult(l);
        }
      }
    } else {
      TRAJ_CHECK(false && "batched suffixes need a SubData kernel");
    }
  }
};

}  // namespace trajsearch::detail
