#include "search/pos_pss.h"

#include <algorithm>
#include <optional>

#include "distance/dp.h"
#include "search/scan_plans.h"

namespace trajsearch {

namespace {

/// Shared greedy split scan. `suffix` has size n+1 with suffix[n] = +inf
/// (only read when `use_suffix` is set, so POS may pass an empty vector).
template <typename ColumnDp>
SearchResult SplitScanT(ColumnDp& dp, int n, const std::vector<double>& suffix,
                        bool use_suffix) {
  SearchResult best;
  int s = 0;
  dp.Reset();
  double prev = kDpInfinity;
  for (int t = 0; t < n; ++t) {
    double cur = dp.Extend(t);
    if (cur < best.distance) best = SearchResult{Subrange{s, t}, cur};
    const bool rising = cur > prev;
    bool split = false;
    if (rising && t < n - 1) {
      if (use_suffix) {
        // PSS: split only when the closed prefix or the remaining suffix is
        // predicted to beat carrying the current candidate to the end.
        split = std::min(prev, suffix[static_cast<size_t>(t)]) <=
                suffix[static_cast<size_t>(s)];
      } else {
        split = true;  // POS: greedy local-minimum restart.
      }
    }
    if (split) {
      s = t;
      dp.Reset();
      cur = dp.Extend(t);
      if (cur < best.distance) best = SearchResult{Subrange{s, t}, cur};
    }
    prev = cur;
  }
  return best;
}

SearchResult SplitSearch(const DistanceSpec& spec, TrajectoryView query,
                         TrajectoryView data, bool use_suffix) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  TRAJ_CHECK(m >= 1 && n >= 1);
  std::vector<double> suffix;
  if (use_suffix) {
    suffix = SuffixDistances(spec, query, data);
  } else {
    suffix.assign(static_cast<size_t>(n) + 1, kDpInfinity);
  }
  return VisitColumnDp(spec, query, data, [&](auto& dp) {
    return SplitScanT(dp, n, suffix, use_suffix);
  });
}

/// Bind-once POS/PSS plan over one cost kind (see scan_plans.h).
template <typename Kind>
class SplitScanPlan final : public QueryRun {
 public:
  SplitScanPlan(typename Kind::Costs prototype, bool use_suffix)
      : prototype_(prototype), use_suffix_(use_suffix) {}

  void Bind(TrajectoryView query) override {
    arena_.Rewind();
    main_.Bind(query, prototype_, &arena_);
    if (use_suffix_) suffix_.Bind(query, prototype_, &arena_);
  }

  SearchResult Run(TrajectoryView data, double /*cutoff*/) override {
    const int n = static_cast<int>(data.size());
    main_.SetData(data);
    const std::vector<double>& suffix =
        use_suffix_ ? suffix_.Compute(data) : empty_suffix_;
    return SplitScanT(*main_.dp, n, suffix, use_suffix_);
  }

  /// PSS's per-candidate cost is dominated by the O(mn) suffix sweep; the
  /// greedy split scan is control-flow-serial. Batching therefore runs the
  /// suffix sweeps of up to kLanes candidates through one multi-sweep batch
  /// stepper and replays the (cheap) split scans serially against the
  /// per-lane tables. POS has no suffix work, so it stays width 1.
  int batch_width() const override {
    return use_suffix_ ? suffix_.batch_width : 1;
  }

  void RunWindow(const RunBatchItem* items, int count,
                 WindowSink* sink) override {
    if (!use_suffix_) {
      QueryRun::RunWindow(items, count, sink);
      return;
    }
    suffix_.RunWindow(
        items, count, sink,
        [this](TrajectoryView data, double cutoff) { return Run(data, cutoff); },
        [this](TrajectoryView data, const std::vector<double>& suffix) {
          main_.SetData(data);
          return SplitScanT(*main_.dp, static_cast<int>(data.size()), suffix,
                            /*use_suffix=*/true);
        });
  }

  simd::CellCounts TakeSimdStats() override {
    simd::CellCounts counts;
    if (main_.dp.has_value()) counts += main_.dp->TakeCellCounts();
    if (suffix_.dp.has_value()) counts += suffix_.dp->TakeCellCounts();
    if (suffix_.bdp.has_value()) counts += suffix_.bdp->TakeCellCounts();
    return counts;
  }

  std::string_view name() const override {
    return use_suffix_ ? "PSS" : "POS";
  }

 private:
  typename Kind::Costs prototype_;
  bool use_suffix_;
  DpArena arena_;
  detail::ScanState<Kind> main_;
  detail::SuffixState<Kind> suffix_;
  std::vector<double> empty_suffix_;
};

}  // namespace

std::vector<double> SuffixDistances(const DistanceSpec& spec,
                                    TrajectoryView query,
                                    TrajectoryView data) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  TRAJ_CHECK(m >= 1 && n >= 1);
  // dist(q, d[t..n-1]) equals the prefix distance of the reversed pair:
  // one O(mn) sweep computes every suffix distance.
  const std::vector<Point> rq = ReversedPoints(query);
  const std::vector<Point> rd = ReversedPoints(data);
  const TrajectoryView rqv(rq), rdv(rd);
  std::vector<double> out(static_cast<size_t>(n) + 1, kDpInfinity);
  VisitColumnDp(spec, rqv, rdv, [&](auto& dp) {
    dp.Reset();
    for (int j = 0; j < n; ++j) {
      out[static_cast<size_t>(n - 1 - j)] = dp.Extend(j);
    }
  });
  return out;
}

SearchResult PosSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data) {
  return SplitSearch(spec, query, data, /*use_suffix=*/false);
}

SearchResult PssSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data) {
  return SplitSearch(spec, query, data, /*use_suffix=*/true);
}

std::unique_ptr<QueryRun> MakePosRun(const DistanceSpec& spec) {
  return detail::MakeScanPlan<SplitScanPlan>(spec, /*use_suffix=*/false);
}

std::unique_ptr<QueryRun> MakePssRun(const DistanceSpec& spec) {
  return detail::MakeScanPlan<SplitScanPlan>(spec, /*use_suffix=*/true);
}

}  // namespace trajsearch
