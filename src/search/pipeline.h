#pragma once

// SearchPipeline::Run — the one implementation of the query stages after
// candidate generation. Included by the two engines only (engine.cc,
// delta_engine.cc); the class itself is declared in search/engine.h.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "search/engine.h"
#include "search/topk.h"
#include "util/scheduler.h"
#include "util/simd.h"
#include "util/stopwatch.h"

namespace trajsearch {

/// Per-thread buffers reused across queries: candidate ids, the bounds
/// cached by bound ordering, and the ordering's sort keys.
struct PipelineScratch {
  std::vector<int> candidates;
  std::vector<double> bounds;
  std::vector<std::pair<double, int>> order;

  static PipelineScratch& ForThisThread() {
    thread_local PipelineScratch scratch;
    return scratch;
  }
};

/// Candidate-chunk size for the workers: small enough that they
/// load-balance and the most promising candidates (front of the ordered
/// list) finish early and tighten the shared threshold, large enough that
/// the atomic chunk counter is not contended.
inline size_t PipelineChunkSize(size_t candidates, int workers) {
  const size_t target_chunks = static_cast<size_t>(workers) * 4;
  return std::max<size_t>(
      1, std::min<size_t>(64, (candidates + target_chunks - 1) /
                                  target_chunks));
}

template <class View, class Collect>
void SearchPipeline::Run(const View& data, TrajectoryView query,
                         Collect&& collect, SharedTopK* topk, int id_offset,
                         int excluded_id, int threads,
                         QueryStats* stats) const {
  QueryStats local;
  PipelineScratch& scratch = PipelineScratch::ForThisThread();

  // Stage 1: candidate generation — the caller's grid, or an identity scan.
  IntervalTimer gbp_timer;
  gbp_timer.Start();
  const bool from_grid = collect(&scratch.candidates);
  if (query.empty()) {
    // An empty query matches nothing. No candidate survives, as with GBP on,
    // so no plan ever runs against it.
    scratch.candidates.clear();
  } else if (!from_grid) {
    scratch.candidates.resize(static_cast<size_t>(data.size()));
    std::iota(scratch.candidates.begin(), scratch.candidates.end(), 0);
  }
  gbp_timer.Stop();
  local.gbp_seconds = gbp_timer.TotalSeconds();
  local.candidates_after_gbp = static_cast<int>(scratch.candidates.size());

  if (!scratch.candidates.empty()) {
    Evaluate(data, query, from_grid, &scratch, topk, id_offset, excluded_id,
             threads, &local);
  }
  // Serially, bound checks are part of pruning and the search stage is the
  // DP alone; with threads > 1 the bound checks run inside the workers, so
  // pruning is candidate generation only and the search stage is the
  // workers' wall-clock (see QueryStats).
  if (threads <= 1) {
    local.prune_seconds = local.gbp_seconds + local.bound_seconds;
    local.search_seconds = local.pair_search_seconds;
  } else {
    local.prune_seconds = local.gbp_seconds;
  }

  // One registry fold per query: a handful of relaxed counter adds, so the
  // per-candidate hot path carries no instrumentation at all.
  if (options_.metrics != nullptr && options_.metrics->enabled()) {
    funnel_.Fold(local);
  }
  if (stats != nullptr) *stats = local;
}

template <class View>
void SearchPipeline::Evaluate(const View& data, TrajectoryView query,
                              bool from_grid, PipelineScratch* scratch,
                              SharedTopK* topk, int id_offset,
                              int excluded_id, int threads,
                              QueryStats* stats) const {
  // Stage 2 setup: one query-bound KPF/OSF plan, shared read-only by every
  // worker (key points and deletion costs are per-query state).
  std::unique_ptr<KpfBoundPlan> bound;
  if ((options_.use_kpf || options_.use_osf) && !query.empty()) {
    bound = plans_.AcquireBound();
    bound->Bind(options_.spec, query,
                options_.use_osf ? 1.0 : options_.sample_rate);
  }

  // Batched plans defer their Offers to flush time, which is
  // result-identical under a *sound* bound (a pruned candidate provably
  // cannot enter the final top-K no matter when the cutoff tightened) but
  // not under the sampled KPF estimate, whose prune decisions depend on how
  // tight the heap was at check time. There every survivor runs in a window
  // of one, which RunWindow evaluates exactly as Run would, so sampled
  // KPF keeps its sequential semantics.
  const bool sound_bound =
      bound == nullptr || options_.use_osf || options_.sample_rate >= 1.0;

  // Without a grid there are no close counts to order by; order by the
  // KPF/OSF lower bound instead (ascending, ascending id on ties — the
  // identity scan arrives id-ascending, so a plain sort keeps that). The
  // bounds are cached for the workers' bound filter, so ordering shifts the
  // bound work up front rather than adding any. Empty candidates get bound
  // 0: never pruned, matching the empty-trajectory skip below.
  std::vector<int>& ids = scratch->candidates;
  scratch->bounds.clear();
  IntervalTimer order_timer;
  if (options_.order_candidates && !from_grid && bound != nullptr) {
    order_timer.Start();
    scratch->order.clear();
    scratch->order.reserve(ids.size());
    for (const int id : ids) {
      const auto candidate = data[id];
      scratch->order.emplace_back(
          candidate.empty() ? 0.0 : bound->LowerBound(candidate), id);
    }
    std::sort(scratch->order.begin(), scratch->order.end());
    scratch->bounds.resize(ids.size());
    for (size_t c = 0; c < ids.size(); ++c) {
      std::tie(scratch->bounds[c], ids[c]) = scratch->order[c];
    }
    order_timer.Stop();
  }

  // Workers read the candidates through spans: the scratch is this
  // thread's, and its vectors must not be resized while the stage runs.
  const std::span<const int> candidates(ids);
  const std::span<const double> cached_bounds(scratch->bounds);

  // Batched plans accumulate kBatchGroups batches' worth of survivors
  // before flushing: a batch sweeps every lane to its *longest* member, so
  // random-length lanes (Porto trajectory lengths vary by several x) would
  // waste most of the lane speedup on ragged tails. The window is sorted
  // longest-first at flush time and handed to RunWindow whole: by default
  // it runs in width-sized groups of near-equal length; CMA refills a lane
  // with the next candidate as soon as the lane's candidate is done.
  constexpr int kBatchGroups = 4;
  constexpr int kBatchWindow = kBatchGroups * simd::kLanes;

  struct WorkerState {
    IntervalTimer bound_timer;
    IntervalTimer pair_timer;
    int pruned = 0;
    int searched = 0;
    int skipped = 0;
    int abandoned = 0;
    simd::CellCounts cells;  // drained from the worker's plan once per query
    // Pruning survivors waiting for the next flush.
    std::array<QueryRun::RunBatchItem, kBatchWindow> batch_items;
    std::array<int, kBatchWindow> batch_ids;
    int batch_pending = 0;
  };

  // Evaluates a worker's pending window, longest candidates first. Early
  // abandoning: a result at or above the cutoff can never enter the top-K
  // (SharedTopK's cutoff is strictly above the K-th best, so distance ties
  // — which may still win on the canonical id tie-break — stay below it and
  // are computed exactly), so the plan may stop as soon as it can prove the
  // cutoff unbeatable. The plan reads the cutoff when each candidate (or
  // group) starts, and every result is offered as soon as it is done, so a
  // later start sees a cutoff at most as tight as per-candidate captures
  // would be. RunWindow is exact below any cutoff, so the surviving hits
  // (and therefore the final top-K) are identical; only the
  // abandoned/completed split can shift.
  struct Sink final : QueryRun::WindowSink {
    bool early_abandon;
    SharedTopK* topk;
    WorkerState* state;
    const int* order;
    int id_offset;

    double Cutoff() override {
      return early_abandon ? topk->Cutoff() : kNoCutoff;
    }
    void Done(int item, const SearchResult& result, double cutoff) override {
      // Funnel accounting: a run whose result lands at or above the cutoff
      // it started with did (possibly early-abandoned) DP work that the
      // top-K merge will discard.
      if (cutoff != kNoCutoff && result.distance >= cutoff) {
        ++state->abandoned;
      }
      const int id = state->batch_ids[static_cast<size_t>(
          order[static_cast<size_t>(item)])];
      topk->Offer(EngineHit{id + id_offset, result});
    }
  };
  auto flush = [&](QueryRun* run, WorkerState* state) {
    const int count = state->batch_pending;
    if (count == 0) return;
    state->batch_pending = 0;
    std::array<int, kBatchWindow> order;
    for (int i = 0; i < count; ++i) order[static_cast<size_t>(i)] = i;
    std::stable_sort(
        order.begin(), order.begin() + count, [state](int a, int b) {
          return state->batch_items[static_cast<size_t>(a)].data.size() >
                 state->batch_items[static_cast<size_t>(b)].data.size();
        });
    std::array<QueryRun::RunBatchItem, kBatchWindow> items;
    for (int i = 0; i < count; ++i) {
      items[static_cast<size_t>(i)] = state->batch_items[static_cast<size_t>(
          order[static_cast<size_t>(i)])];
    }
    Sink sink;
    sink.early_abandon = options_.use_early_abandon;
    sink.topk = topk;
    sink.state = state;
    sink.order = order.data();
    sink.id_offset = id_offset;
    state->pair_timer.Start();
    run->RunWindow(items.data(), count, &sink);
    state->pair_timer.Stop();
    state->searched += count;
  };

  // Up to `threads` workers pull candidate chunks from an atomic counter
  // (dynamic load balancing; the ordered front of the list runs first).
  // Each binds one pooled plan to the query. The bound filter is
  // tie-aware: ShouldPrune compares (lower, corpus id) against the
  // published (K-th best, its id) in canonical order, so its decisions are
  // order-independent across workers, shards and the delta.
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(threads, 1)), candidates.size()));
  const size_t chunk = PipelineChunkSize(candidates.size(), workers);
  // Worker 0's state lives on this frame, and only scheduler tasks get heap
  // state and a TaskGroup (whose task deque allocates), so one worker
  // allocates nothing here.
  WorkerState caller_state;
  std::vector<WorkerState> task_states(static_cast<size_t>(workers - 1));
  std::atomic<size_t> next{0};
  Stopwatch stage;

  auto worker = [&](WorkerState& state) {
    std::unique_ptr<QueryRun> run = plans_.AcquireRun(*searcher_);
    run->Bind(query);
    const int width = sound_bound ? run->batch_width() : 1;
    const int window = width > 1 ? width * kBatchGroups : 1;
    for (;;) {
      // relaxed: the chunk counter only hands out disjoint ranges — each
      // worker reads the candidate array, which was published before the
      // tasks were submitted; no payload rides on the counter itself.
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= candidates.size()) break;
      const size_t end = std::min(candidates.size(), begin + chunk);
      for (size_t c = begin; c < end; ++c) {
        const int id = candidates[c];
        const auto trajectory = data[id];
        if (id == excluded_id || trajectory.empty()) {
          ++state.skipped;
          continue;
        }
        const double bound_cutoff =
            bound != nullptr ? topk->Cutoff() : kNoCutoff;
        if (bound_cutoff != kNoCutoff) {
          double lower;
          if (!cached_bounds.empty()) {
            lower = cached_bounds[c];  // paid once in the ordering pre-pass
          } else {
            // Abandons once the partial bound proves the prune; ShouldPrune
            // then decides exactly as it would on the full bound.
            state.bound_timer.Start();
            lower = bound->LowerBound(trajectory, bound_cutoff);
            state.bound_timer.Stop();
          }
          if (topk->ShouldPrune(lower, id + id_offset)) {
            ++state.pruned;
            continue;
          }
        }
        state.batch_items[static_cast<size_t>(state.batch_pending)] =
            QueryRun::RunBatchItem{trajectory, {}};
        state.batch_ids[static_cast<size_t>(state.batch_pending)] = id;
        if (++state.batch_pending == window) flush(run.get(), &state);
      }
    }
    // A worker's pending window may span chunk boundaries; it drains once
    // the worker's whole candidate stream is exhausted.
    flush(run.get(), &state);
    state.cells = run->TakeSimdStats();
    plans_.ReleaseRun(std::move(run));
  };

  std::optional<TaskGroup> group;
  if (!task_states.empty()) {
    ThreadPool& pool = options_.scheduler != nullptr ? *options_.scheduler
                                                     : DefaultScheduler();
    group.emplace();
    for (WorkerState& state : task_states) {
      pool.Submit(&*group, [&worker, &state]() { worker(state); });
    }
  }
  worker(caller_state);  // the caller is worker 0, so progress never
                         // depends on the pool having an idle thread
  if (group.has_value()) group->Wait();
  if (bound != nullptr) plans_.ReleaseBound(std::move(bound));

  stats->search_seconds = stage.Seconds();
  stats->bound_seconds = order_timer.TotalSeconds();
  auto add = [stats](const WorkerState& state) {
    stats->pruned_by_bound += state.pruned;
    stats->searched += state.searched;
    stats->skipped += state.skipped;
    stats->abandoned += state.abandoned;
    stats->bound_seconds += state.bound_timer.TotalSeconds();
    stats->pair_search_seconds += state.pair_timer.TotalSeconds();
    stats->simd_vector_cells += state.cells.vector_cells;
    stats->simd_scalar_cells += state.cells.scalar_cells;
    stats->simd_lane_abandons += state.cells.lane_abandons;
    stats->simd_lane_refills += state.cells.lane_refills;
  };
  add(caller_state);
  for (const WorkerState& state : task_states) add(state);
}

}  // namespace trajsearch
