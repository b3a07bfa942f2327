#include "search/delta_engine.h"

#include <utility>

#include "search/pipeline.h"
#include "util/check.h"

namespace trajsearch {

DeltaEngine::DeltaEngine(EngineOptions options)
    : pipeline_(std::move(options)) {}

void DeltaEngine::QueryInto(TrajectoryView query, const DeltaView& delta,
                            const DeltaGridIndex* grid, SharedTopK* topk,
                            int id_offset, QueryStats* stats,
                            int excluded_id) const {
  pipeline_.Run(
      delta, query,
      [&](std::vector<int>* out) {
        if (grid == nullptr) return false;
        GridCandidates(query, delta, *grid, out);
        return true;
      },
      topk, id_offset, excluded_id, /*threads=*/1, stats);
}

void DeltaEngine::QueryInto(TrajectoryView query, const DeltaView& delta,
                            SharedDeltaGrid* grid, SharedTopK* topk,
                            int id_offset, QueryStats* stats,
                            int excluded_id) const {
  pipeline_.Run(
      delta, query,
      [&](std::vector<int>* out) {
        if (grid == nullptr) return false;
        grid->CatchUp(delta);
        grid->Read([&](const DeltaGridIndex& index) {
          GridCandidates(query, delta, index, out);
        });
        return true;
      },
      topk, id_offset, excluded_id, /*threads=*/1, stats);
}

void DeltaEngine::GridCandidates(TrajectoryView query, const DeltaView& delta,
                                 const DeltaGridIndex& grid,
                                 std::vector<int>* out) const {
  TRAJ_DCHECK(grid.size() >= delta.size());
  const EngineOptions& opts = options();
  if (opts.order_candidates) {
    grid.OrderedCandidates(query, opts.mu, out, delta.size());
  } else {
    grid.Candidates(query, opts.mu, out, delta.size());
  }
}

}  // namespace trajsearch
