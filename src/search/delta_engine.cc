#include "search/delta_engine.h"

#include <algorithm>
#include <array>
#include <utility>

#include "search/topk.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace trajsearch {

DeltaEngine::DeltaEngine(EngineOptions options)
    : options_(std::move(options)) {
  TRAJ_CHECK(options_.top_k >= 1);
  searcher_ = MakeEngineSearcher(options_);
  funnel_ = FunnelCounters(options_.metrics, options_.algorithm);
}

namespace {

std::vector<int>& CandidateScratch() {
  thread_local std::vector<int> scratch;
  return scratch;
}

}  // namespace

void DeltaEngine::QueryInto(TrajectoryView query, const DeltaView& delta,
                            const DeltaGridIndex* grid, SharedTopK* topk,
                            int id_offset, QueryStats* stats,
                            int excluded_id) const {
  IntervalTimer gbp_timer;
  gbp_timer.Start();
  std::vector<int>& candidates = CandidateScratch();
  CollectCandidates(query, delta, grid, &candidates);
  gbp_timer.Stop();
  Evaluate(query, delta, candidates, gbp_timer.TotalSeconds(), topk,
           id_offset, stats, excluded_id);
}

void DeltaEngine::QueryInto(TrajectoryView query, const DeltaView& delta,
                            SharedDeltaGrid* grid, SharedTopK* topk,
                            int id_offset, QueryStats* stats,
                            int excluded_id) const {
  IntervalTimer gbp_timer;
  gbp_timer.Start();
  std::vector<int>& candidates = CandidateScratch();
  if (grid == nullptr) {
    CollectCandidates(query, delta, nullptr, &candidates);
  } else {
    grid->CatchUp(delta);
    grid->Read([&](const DeltaGridIndex& index) {
      CollectCandidates(query, delta, &index, &candidates);
    });
  }
  gbp_timer.Stop();
  Evaluate(query, delta, candidates, gbp_timer.TotalSeconds(), topk,
           id_offset, stats, excluded_id);
}

void DeltaEngine::CollectCandidates(TrajectoryView query,
                                    const DeltaView& delta,
                                    const DeltaGridIndex* grid,
                                    std::vector<int>* out) const {
  // Candidate generation mirrors SearchEngine: the delta grid's postings
  // when GBP is on, every delta trajectory otherwise. The local-heap
  // ablation (share_threshold off) keeps id order, exactly like the base
  // engines, so its merge semantics stay the PR-3 ones.
  const bool ordering =
      options_.order_candidates && options_.share_threshold;
  if (grid != nullptr) {
    TRAJ_DCHECK(grid->size() >= delta.size());
    if (ordering) {
      grid->OrderedCandidates(query, options_.mu, out, delta.size());
    } else {
      grid->Candidates(query, options_.mu, out, delta.size());
    }
  } else {
    out->resize(static_cast<size_t>(delta.size()));
    for (int id = 0; id < delta.size(); ++id) {
      (*out)[static_cast<size_t>(id)] = id;
    }
  }
}

void DeltaEngine::Evaluate(TrajectoryView query, const DeltaView& delta,
                           const std::vector<int>& candidates,
                           double gbp_seconds, SharedTopK* topk,
                           int id_offset, QueryStats* stats,
                           int excluded_id) const {
  QueryStats local;
  local.candidates_after_gbp = static_cast<int>(candidates.size());

  const bool bound_enabled = options_.use_kpf || options_.use_osf;
  std::unique_ptr<KpfBoundPlan> bound;
  if (bound_enabled && !query.empty() && !candidates.empty()) {
    bound = plans_.AcquireBound();
    bound->Bind(options_.spec, query,
                options_.use_osf ? 1.0 : options_.sample_rate);
  }

  if (!candidates.empty()) {
    IntervalTimer bound_timer;
    IntervalTimer pair_timer;
    std::unique_ptr<QueryRun> run = plans_.AcquireRun(*searcher_);
    run->Bind(query);
    // Same soundness gate as SearchEngine: deferring Offers to flush time is
    // only result-identical when the bound cannot mis-prune (sampled KPF's
    // estimate is check-time-sensitive, so it keeps sequential evaluation).
    const bool sound_bound =
        bound == nullptr || options_.use_osf || options_.sample_rate >= 1.0;
    const int width = sound_bound ? run->batch_width() : 1;
    // Batched plans: pruning survivors park in a window of kBatchGroups
    // batches and are evaluated by length-sorted RunBatch groups (same
    // enqueue/flush scheme as SearchEngine's workers — one RunBatch sweeps
    // every lane to its longest member, so sorting the window keeps group
    // lengths homogeneous; the per-group cutoff capture keeps results
    // identical, only the abandoned/completed split can shift).
    constexpr int kBatchGroups = 4;
    constexpr int kBatchWindow = kBatchGroups * simd::kLanes;
    std::array<QueryRun::RunBatchItem, kBatchWindow> batch_items;
    std::array<int, kBatchWindow> batch_ids;
    int batch_pending = 0;
    const auto flush = [&]() {
      const int count = batch_pending;
      if (count == 0) return;
      batch_pending = 0;
      std::array<int, kBatchWindow> order;
      for (int i = 0; i < count; ++i) order[static_cast<size_t>(i)] = i;
      std::stable_sort(
          order.begin(), order.begin() + count, [&](int a, int b) {
            return batch_items[static_cast<size_t>(a)].data.size() >
                   batch_items[static_cast<size_t>(b)].data.size();
          });
      std::array<QueryRun::RunBatchItem, simd::kLanes> group_items;
      std::array<SearchResult, simd::kLanes> group_results;
      for (int begin = 0; begin < count; begin += width) {
        const int group = std::min(width, count - begin);
        for (int i = 0; i < group; ++i) {
          group_items[static_cast<size_t>(i)] = batch_items[static_cast<size_t>(
              order[static_cast<size_t>(begin + i)])];
        }
        const double cutoff =
            options_.use_early_abandon ? topk->Cutoff() : kNoCutoff;
        pair_timer.Start();
        run->RunBatch(group_items.data(), group, cutoff,
                      group_results.data());
        pair_timer.Stop();
        local.searched += group;
        for (int i = 0; i < group; ++i) {
          const SearchResult& result = group_results[static_cast<size_t>(i)];
          if (cutoff != kNoCutoff && result.distance >= cutoff) {
            ++local.abandoned;
          }
          topk->Offer(EngineHit{batch_ids[static_cast<size_t>(
                                    order[static_cast<size_t>(begin + i)])] +
                                    id_offset,
                                result});
        }
      }
    };
    for (const int id : candidates) {
      if (id == excluded_id) {
        ++local.skipped;
        continue;
      }
      const TrajectoryView data = delta[id];
      if (data.empty()) {
        ++local.skipped;
        continue;
      }
      if (bound != nullptr && topk->Cutoff() != kNoCutoff) {
        bound_timer.Start();
        const double lower = bound->LowerBound(data);
        bound_timer.Stop();
        if (topk->ShouldPrune(lower, id + id_offset)) {
          ++local.pruned_by_bound;
          continue;
        }
      }
      if (width > 1) {
        batch_items[static_cast<size_t>(batch_pending)] =
            QueryRun::RunBatchItem{data, delta.cols(id)};
        batch_ids[static_cast<size_t>(batch_pending)] = id;
        if (++batch_pending == width * kBatchGroups) flush();
        continue;
      }
      const double cutoff =
          options_.use_early_abandon ? topk->Cutoff() : kNoCutoff;
      pair_timer.Start();
      const SearchResult result = run->RunCols(data, delta.cols(id), cutoff);
      pair_timer.Stop();
      if (cutoff != kNoCutoff && result.distance >= cutoff) {
        ++local.abandoned;
      }
      topk->Offer(EngineHit{id + id_offset, result});
      ++local.searched;
    }
    flush();
    const simd::CellCounts cells = run->TakeSimdStats();
    local.simd_vector_cells = cells.vector_cells;
    local.simd_scalar_cells = cells.scalar_cells;
    local.simd_lane_abandons = cells.lane_abandons;
    plans_.ReleaseRun(std::move(run));
    local.bound_seconds = bound_timer.TotalSeconds();
    local.pair_search_seconds = pair_timer.TotalSeconds();
  }
  if (bound != nullptr) plans_.ReleaseBound(std::move(bound));

  local.gbp_seconds = gbp_seconds;
  local.prune_seconds = gbp_seconds + local.bound_seconds;
  local.search_seconds = local.pair_search_seconds;
  if (options_.metrics != nullptr && options_.metrics->enabled()) {
    funnel_.Fold(local);
  }
  if (stats != nullptr) *stats = local;
}

}  // namespace trajsearch
