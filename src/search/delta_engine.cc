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
        TRAJ_DCHECK(grid->size() >= delta.size());
        GbpCandidates(grid->postings(delta.size()), query, options().mu,
                      options().order_candidates, out);
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
          TRAJ_DCHECK(index.size() >= delta.size());
          GbpCandidates(index.postings(delta.size()), query, options().mu,
                        options().order_candidates, out);
        });
        return true;
      },
      topk, id_offset, excluded_id, /*threads=*/1, stats);
}

}  // namespace trajsearch
