#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/live_dataset.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/delta_engine.h"
#include "search/engine.h"
#include "trace.h"

namespace perfbench {

/// The engine options with everything that ties an engine to a service
/// (pool, registry, mapped grid) removed, single-threaded.
trajsearch::EngineOptions Detached(trajsearch::EngineOptions options);

/// One base shard of a pinned corpus, with the grid index the replay probes.
struct ReplayShard {
  trajsearch::DatasetView view;
  const trajsearch::GridIndex* grid = nullptr;
};

/// Work counters of one replayed query.
struct ReplayCounts {
  int64_t candidates = 0;  // GBP survivors over all parts
  uint64_t cells = 0;      // DP cells the base plans evaluated
};

/// \brief Layer-by-layer replay of the engine pipeline from outside.
///
/// Re-runs one query through the public functions of each layer, in the
/// order SearchEngine::QueryInto uses them, with a span around every call:
/// GridIndex::OrderedCandidates (prune.gbp), KpfBoundPlan::Bind/LowerBound
/// (prune.kpf), QueryRun::Bind/RunCols/RunBatch over length-sorted survivor
/// windows (search.dp), and for a live corpus DeltaGridIndex::Add over the
/// generation's delta plus DeltaEngine::QueryInto. All parts offer into one
/// SharedTopK with corpus ids, so under a sound bound the hits equal what the
/// service returned for the same pinned corpus. Runs serially on the caller.
class Replayer {
 public:
  /// `options` must be the service's resolved engine options (pinned cell
  /// size); scheduler, metrics and prebuilt grid are ignored.
  explicit Replayer(trajsearch::EngineOptions options);

  std::vector<trajsearch::EngineHit> Run(
      trajsearch::TrajectoryView query, int excluded_id,
      const std::vector<ReplayShard>& shards,
      const trajsearch::DeltaView* delta, Tracer* tracer, int64_t op,
      ReplayCounts* counts);

 private:
  void RunShard(trajsearch::TrajectoryView query, int excluded_id,
                const ReplayShard& shard, trajsearch::SharedTopK* topk,
                Tracer* tracer, int64_t op, ReplayCounts* counts);

  trajsearch::EngineOptions options_;
  std::unique_ptr<trajsearch::Searcher> searcher_;
  std::unique_ptr<trajsearch::QueryRun> run_;
  trajsearch::KpfBoundPlan bound_;
  trajsearch::DeltaEngine delta_engine_;
  std::vector<int> candidates_;
};

}  // namespace perfbench
