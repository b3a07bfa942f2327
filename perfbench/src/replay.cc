#include "replay.h"

#include <algorithm>
#include <array>

#include "prune/delta_grid.h"
#include "search/topk.h"
#include "util/simd.h"

namespace perfbench {

using namespace trajsearch;

EngineOptions Detached(EngineOptions options) {
  options.scheduler = nullptr;
  options.metrics = nullptr;
  options.prebuilt_grid = nullptr;
  options.threads = 1;
  return options;
}

Replayer::Replayer(EngineOptions options)
    : options_(Detached(options)),
      searcher_(MakeEngineSearcher(options_)),
      run_(searcher_->NewRun()),
      delta_engine_(options_) {}

std::vector<EngineHit> Replayer::Run(TrajectoryView query, int excluded_id,
                                     const std::vector<ReplayShard>& shards,
                                     const DeltaView* delta, Tracer* tracer,
                                     int64_t op, ReplayCounts* counts) {
  SharedTopK topk(options_.top_k);
  {
    ScopedSpan root(tracer, op, Layer::kReplay);
    int base_size = 0;
    for (const ReplayShard& shard : shards) {
      RunShard(query, excluded_id, shard, &topk, tracer, op, counts);
      base_size += shard.view.size();
    }
    if (delta != nullptr && !delta->empty()) {
      // The service builds one delta grid per published generation, on the
      // first query that reads it; every porto-live query reads a fresh
      // generation, so the build sits on each query's path.
      std::unique_ptr<DeltaGridIndex> grid;
      if (options_.use_gbp) {
        ScopedSpan span(tracer, op, Layer::kDeltaGridBuild);
        grid = std::make_unique<DeltaGridIndex>(options_.cell_size);
        for (int i = 0; i < delta->size(); ++i) grid->Add((*delta)[i]);
      }
      QueryStats stats;
      {
        ScopedSpan span(tracer, op, Layer::kDeltaQuery);
        delta_engine_.QueryInto(
            query, *delta, grid.get(), &topk, base_size, &stats,
            excluded_id >= base_size ? excluded_id - base_size : -1);
      }
      counts->candidates += stats.candidates_after_gbp;
      // Freeing the grid belongs to the same per-generation cost; in the
      // service it lands in the AppendBatch that retires the generation.
      ScopedSpan span(tracer, op, Layer::kDeltaGridBuild);
      grid.reset();
    }
  }
  return topk.Sorted();
}

void Replayer::RunShard(TrajectoryView query, int excluded_id,
                        const ReplayShard& shard, SharedTopK* topk,
                        Tracer* tracer, int64_t op, ReplayCounts* counts) {
  const int begin = shard.view.begin_id();
  const int local_excluded =
      excluded_id >= begin && excluded_id < begin + shard.view.size()
          ? excluded_id - begin
          : -1;
  {
    ScopedSpan span(tracer, op, Layer::kGbp);
    shard.grid->OrderedCandidates(query, options_.mu, &candidates_);
  }
  counts->candidates += static_cast<int64_t>(candidates_.size());
  const bool use_bound = options_.use_kpf || options_.use_osf;
  if (use_bound) {
    ScopedSpan span(tracer, op, Layer::kKpf);
    bound_.Bind(options_.spec, query,
                options_.use_osf ? 1.0 : options_.sample_rate);
  }
  {
    ScopedSpan span(tracer, op, Layer::kDp);
    run_->Bind(query);
  }

  // Survivors park in a window of four batches and run longest-first in
  // batch-width groups, as the engine's batched path does.
  constexpr int kWindow = 4 * simd::kLanes;
  const int width = run_->batch_width();
  std::array<QueryRun::RunBatchItem, kWindow> items;
  std::array<int, kWindow> ids;
  std::array<int, kWindow> order;
  int pending = 0;
  auto flush = [&]() {
    for (int i = 0; i < pending; ++i) order[static_cast<size_t>(i)] = i;
    std::stable_sort(order.begin(), order.begin() + pending,
                     [&items](int a, int b) {
                       return items[static_cast<size_t>(a)].data.size() >
                              items[static_cast<size_t>(b)].data.size();
                     });
    std::array<QueryRun::RunBatchItem, simd::kLanes> group_items;
    std::array<SearchResult, simd::kLanes> results;
    for (int first = 0; first < pending; first += width) {
      const int group = std::min(width, pending - first);
      for (int i = 0; i < group; ++i) {
        group_items[static_cast<size_t>(i)] =
            items[static_cast<size_t>(order[static_cast<size_t>(first + i)])];
      }
      const double cutoff =
          options_.use_early_abandon ? topk->Cutoff() : kNoCutoff;
      {
        ScopedSpan span(tracer, op, Layer::kDp);
        run_->RunBatch(group_items.data(), group, cutoff, results.data());
      }
      for (int i = 0; i < group; ++i) {
        const int id =
            ids[static_cast<size_t>(order[static_cast<size_t>(first + i)])];
        topk->Offer(EngineHit{id + begin, results[static_cast<size_t>(i)]});
      }
    }
    pending = 0;
  };

  for (const int id : candidates_) {
    if (id == local_excluded) continue;
    const TrajectoryRef data = shard.view[id];
    if (data.empty()) continue;
    if (use_bound && topk->Cutoff() != kNoCutoff) {
      double lower = 0;
      {
        ScopedSpan span(tracer, op, Layer::kKpf);
        lower = bound_.LowerBound(data);
      }
      if (topk->ShouldPrune(lower, id + begin)) continue;
    }
    items[static_cast<size_t>(pending)] =
        QueryRun::RunBatchItem{data, shard.view.cols(id)};
    ids[static_cast<size_t>(pending)] = id;
    if (++pending == width * 4) flush();
  }
  flush();
  const simd::CellCounts cells = run_->TakeSimdStats();
  counts->cells += cells.vector_cells + cells.scalar_cells;
}

}  // namespace perfbench
