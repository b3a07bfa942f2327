#pragma once

#include <limits>
#include <string_view>

#include "core/point.h"
#include "core/trajectory.h"
#include "search/result.h"
#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

/// Cutoff value meaning "no early abandoning": every candidate is evaluated
/// in full. True +infinity (not kDpInfinity), so even saturated DP cells
/// never trigger an abandon.
inline constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

/// \brief A compiled per-query execution plan for one search algorithm.
///
/// The database pipeline runs one query against thousands of pruning
/// survivors. A QueryRun separates the two timescales of that loop:
/// Bind(query) performs every query-side precomputation once (DP columns
/// sized to the query, deletion-prefix tables, reversed-query copies for the
/// POS/PSS/RLS suffix scans, key-point samples) and retains all scratch
/// buffers; Run(data, cutoff) then evaluates one candidate trajectory
/// reusing that state — zero heap allocations per candidate in steady state.
///
/// Cutoff contract (early abandoning): `cutoff` is the caller's current
/// top-K threshold — any result with distance >= cutoff is useless to it.
///  - For the exact algorithms (CMA, ExactS, Spring, GB) Run is *exact below
///    the cutoff*: if the optimal subtrajectory distance is < cutoff, the
///    returned result is identical to the stateless search; otherwise the
///    returned distance is >= cutoff (possibly the not-found sentinel).
///    CMA/ExactS/GB use this to abandon DP sweeps early (monotone-DP
///    abandon: stop once every reachable cell is >= cutoff); Spring's
///    recurrence admits fresh match starts at every step, so it cannot
///    abandon and simply returns its full result.
///  - The approximate algorithms (POS, PSS, RLS, RLS-Skip) ignore the
///    cutoff entirely — their heuristic scan depends on the full value
///    sequence — so their result is always identical to the stateless path.
///
/// A plan may be rebound to a different query at any time; scratch capacity
/// is retained across Binds. Plans are single-threaded objects (the engine
/// keeps one per worker); the bound query view, and for RLS plans the
/// creating Searcher, must outlive all Runs against them.
class QueryRun {
 public:
  virtual ~QueryRun() = default;

  /// (Re-)compiles the plan for `query`, reusing scratch buffers.
  virtual void Bind(TrajectoryView query) = 0;

  /// Evaluates one candidate under the cutoff contract above. Requires a
  /// prior Bind and a non-empty candidate.
  virtual SearchResult Run(TrajectoryView data, double cutoff = kNoCutoff) = 0;

  /// Run(), with the candidate's structure-of-arrays coordinate columns when
  /// the corpus has them (Dataset::cols / DeltaView::cols). Plans whose
  /// kernels can exploit data-side columns (e.g. the ExactS/ERP insertion
  /// cache) override this; results are identical to Run() by contract, so
  /// the default simply forwards.
  virtual SearchResult RunCols(TrajectoryView data, PointCols cols,
                               double cutoff = kNoCutoff) {
    (void)cols;
    return Run(data, cutoff);
  }

  /// One candidate of a batched run: the trajectory view plus its SoA
  /// coordinate columns (empty when the corpus has none).
  struct RunBatchItem {
    TrajectoryView data;
    PointCols cols;
  };

  /// How many candidates one RunBatch call can evaluate together. Plans with
  /// a cross-candidate SIMD kernel (CMA: one candidate per lane; PSS/RLS:
  /// batched suffix sweeps) report their lane count — sampled at Bind, so it
  /// reflects the dispatch mode the plan was compiled under. 1 means RunBatch
  /// degenerates to a sequential loop and the engine may skip batching.
  virtual int batch_width() const { return 1; }

  /// Evaluates `count` candidates (1 <= count <= batch_width()) under the
  /// same cutoff, writing results[i] for items[i]. Each result obeys the
  /// single-candidate cutoff contract, and is identical to what
  /// RunCols(items[i].data, items[i].cols, cutoff) would return — batching
  /// changes throughput, never values. The default is that sequential loop;
  /// batched plans override it with their lane-parallel kernel.
  virtual void RunBatch(const RunBatchItem* items, int count, double cutoff,
                        SearchResult* results) {
    for (int i = 0; i < count; ++i) {
      results[i] = RunCols(items[i].data, items[i].cols, cutoff);
    }
  }

  /// Where RunWindow reads the live cutoff and hands each result back.
  class WindowSink {
   public:
    /// The cutoff a candidate starts under, read when it starts.
    virtual double Cutoff() = 0;
    /// items[item] finished with `result` under the `cutoff` it started
    /// with. Called once per item, in the order the items finish.
    virtual void Done(int item, const SearchResult& result,
                      double cutoff) = 0;

   protected:
    ~WindowSink() = default;
  };

  /// Evaluates a window of `count` candidates (any count), each under the
  /// cutoff the sink reports when that candidate starts, and reports every
  /// result through sink->Done. Each result obeys the single-candidate
  /// cutoff contract for its own cutoff. The default runs the window in
  /// order, in RunBatch groups of batch_width() that read one cutoff per
  /// group; the CMA plan instead refills a lane with the next item as soon
  /// as the lane's candidate finishes or abandons.
  virtual void RunWindow(const RunBatchItem* items, int count,
                         WindowSink* sink) {
    const int width = batch_width();
    TRAJ_CHECK(width >= 1 && width <= simd::kLanes);
    SearchResult results[simd::kLanes];
    for (int begin = 0; begin < count; begin += width) {
      const int group = count - begin < width ? count - begin : width;
      const double cutoff = sink->Cutoff();
      RunBatch(items + begin, group, cutoff, results);
      for (int i = 0; i < group; ++i) sink->Done(begin + i, results[i], cutoff);
    }
  }

  /// Drains the DP-cell dispatch counters accumulated by this plan's column
  /// steppers since the last take (engine folds them into QueryStats and the
  /// engine.<Algorithm>.simd.* registry counters). Plans without steppers
  /// report zeros.
  virtual simd::CellCounts TakeSimdStats() { return simd::CellCounts{}; }

  /// Algorithm name for reports ("CMA", "ExactS", ...).
  virtual std::string_view name() const = 0;
};

}  // namespace trajsearch
