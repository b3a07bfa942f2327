#pragma once

#include <memory>
#include <vector>

#include "core/live_dataset.h"
#include "prune/delta_grid.h"
#include "search/engine.h"

namespace trajsearch {

/// \brief Search stage over a live corpus's delta.
///
/// The base corpus is served by the sharded SearchEngines; the trajectories
/// appended since the last compaction run through this engine instead. It is
/// the same three-stage pipeline — candidate generation (DeltaGridIndex
/// postings, or every delta trajectory when GBP is off), KPF/OSF bound
/// filtering, and pooled bind-once QueryRun plans with early abandoning —
/// offering hits into the caller's SharedTopK with corpus ids, so the base
/// shards and the delta prune against one corpus-wide K-th-best threshold
/// and the merged result is hit-for-hit what one engine over the flattened
/// corpus would return (under a sound bound).
///
/// The delta is compaction-bounded and small, so the stage runs serially
/// inside its (query, delta) task; parallelism comes from the service
/// fanning it out alongside the per-shard tasks. QueryInto is safe to call
/// concurrently; plans are pooled per engine exactly like SearchEngine's.
class DeltaEngine {
 public:
  /// Uses the same options as the shard engines (algorithm, distance, GBP
  /// mu, KPF/OSF and their rates, early-abandon and threshold-sharing
  /// toggles). `threads` and `scheduler` are ignored — see above.
  explicit DeltaEngine(EngineOptions options);

  /// Evaluates the delta trajectories of one pinned generation. `grid`
  /// indexes at least `delta`'s trajectories (it may be a grid a newer
  /// generation extended; candidates are read capped at delta.size()); null
  /// runs every delta trajectory, the GBP-off pipeline. Hits are offered as
  /// corpus ids: delta id + `id_offset` (the generation's base size).
  /// `excluded_id` is delta-local (-1 for none). Timing/pruning counters
  /// accumulate into `stats`.
  void QueryInto(TrajectoryView query, const DeltaView& delta,
                 const DeltaGridIndex* grid, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  /// The serving form: `grid` is the base generation's shared index, first
  /// caught up to `delta` (inside the candidate-generation time), then read
  /// capped at delta.size() under its shared lock; the DP runs unlocked.
  void QueryInto(TrajectoryView query, const DeltaView& delta,
                 SharedDeltaGrid* grid, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  const EngineOptions& options() const { return options_; }

 private:
  /// Candidate ids for `query` among delta's trajectories: the grid's
  /// postings capped at delta.size(), or every id when `grid` is null.
  void CollectCandidates(TrajectoryView query, const DeltaView& delta,
                         const DeltaGridIndex* grid,
                         std::vector<int>* out) const;
  /// The bound filter + DP stages over `candidates`; `gbp_seconds` is the
  /// candidate-generation time the caller measured.
  void Evaluate(TrajectoryView query, const DeltaView& delta,
                const std::vector<int>& candidates, double gbp_seconds,
                SharedTopK* topk, int id_offset, QueryStats* stats,
                int excluded_id) const;

  EngineOptions options_;
  std::unique_ptr<Searcher> searcher_;
  mutable PlanPool plans_;  // same pooling discipline as SearchEngine
  /// Folds into the same `engine.<Algorithm>.funnel.*` counters as the base
  /// shard engines (delta hits flow through the same pipeline stages).
  FunnelCounters funnel_;
};

}  // namespace trajsearch
