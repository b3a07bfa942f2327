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
/// appended since the last compaction run through this engine instead. Only
/// candidate generation is its own — DeltaGridIndex postings capped at the
/// pinned delta's size, or every delta trajectory when GBP is off.
/// Everything after it is the same SearchPipeline the base engines run
/// (bound ordering, KPF/OSF bound filter, batch window, pooled bind-once
/// QueryRun plans with early abandoning), offering hits into the caller's
/// SharedTopK with corpus ids. So the base shards and the delta prune
/// against one corpus-wide K-th-best threshold, and the merged result is
/// hit-for-hit what one engine over the flattened corpus would return
/// (under a sound bound).
///
/// The delta is compaction-bounded and small, so the pipeline runs with one
/// worker inside its (query, delta) task; parallelism comes from the
/// service fanning it out alongside the per-shard tasks. QueryInto is safe
/// to call concurrently.
class DeltaEngine {
 public:
  /// Uses the same options as the shard engines (algorithm, distance, GBP
  /// mu, KPF/OSF and their rates, ordering and early-abandon toggles).
  /// `threads` and `scheduler` are ignored — see above.
  explicit DeltaEngine(EngineOptions options);

  /// Evaluates the delta trajectories of one pinned generation. `grid`
  /// indexes at least `delta`'s trajectories (it may be a grid a newer
  /// generation extended; candidates are read capped at delta.size()); null
  /// runs every delta trajectory, the GBP-off pipeline. Hits are offered as
  /// corpus ids: delta id + `id_offset` (the generation's base size).
  /// `excluded_id` is delta-local (-1 for none). The query's
  /// timing/pruning breakdown is written to `stats`.
  void QueryInto(TrajectoryView query, const DeltaView& delta,
                 const DeltaGridIndex* grid, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  /// The serving form: `grid` is the base generation's shared index, first
  /// caught up to `delta` (inside the candidate-generation time), then read
  /// capped at delta.size() under its shared lock; the DP runs unlocked.
  void QueryInto(TrajectoryView query, const DeltaView& delta,
                 SharedDeltaGrid* grid, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  const EngineOptions& options() const { return pipeline_.options(); }

 private:
  SearchPipeline pipeline_;
};

}  // namespace trajsearch
