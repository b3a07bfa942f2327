#include "search/engine.h"

#include <string>
#include <utility>

#include "search/pipeline.h"
#include "util/check.h"

namespace trajsearch {

FunnelCounters::FunnelCounters(obs::Registry* registry, Algorithm algorithm) {
  if (registry == nullptr) return;
  const std::string base =
      "engine." + std::string(ToString(algorithm)) + ".funnel.";
  queries = registry->counter(base + "queries");
  candidates = registry->counter(base + "candidates");
  skipped = registry->counter(base + "skipped");
  bound_pruned = registry->counter(base + "bound_pruned");
  dp_runs = registry->counter(base + "dp_runs");
  dp_abandoned = registry->counter(base + "dp_abandoned");
  dp_completed = registry->counter(base + "dp_completed");
  // Kernel-dispatch counters live outside the .funnel. namespace so funnel
  // extraction (obs::ExtractFunnels keys on that marker) never sees them.
  const std::string simd_base =
      "engine." + std::string(ToString(algorithm)) + ".simd.";
  simd_vector_cells = registry->counter(simd_base + "vector_cells");
  simd_scalar_cells = registry->counter(simd_base + "scalar_cells");
  simd_lane_abandons = registry->counter(simd_base + "lane_abandons");
}

void FunnelCounters::Fold(const QueryStats& stats) const {
  if (queries == nullptr) return;
  queries->Add(1);
  candidates->Add(static_cast<uint64_t>(stats.candidates_after_gbp));
  skipped->Add(static_cast<uint64_t>(stats.skipped));
  bound_pruned->Add(static_cast<uint64_t>(stats.pruned_by_bound));
  dp_runs->Add(static_cast<uint64_t>(stats.searched));
  dp_abandoned->Add(static_cast<uint64_t>(stats.abandoned));
  dp_completed->Add(
      static_cast<uint64_t>(stats.searched - stats.abandoned));
  simd_vector_cells->Add(stats.simd_vector_cells);
  simd_scalar_cells->Add(stats.simd_scalar_cells);
  simd_lane_abandons->Add(stats.simd_lane_abandons);
}

std::unique_ptr<Searcher> MakeEngineSearcher(const EngineOptions& options) {
  if ((options.algorithm == Algorithm::kRls ||
       options.algorithm == Algorithm::kRlsSkip) &&
      options.rls_policy != nullptr) {
    return MakeRlsSearcher(options.spec, *options.rls_policy);
  }
  auto made = MakeSearcher(options.algorithm, options.spec);
  TRAJ_CHECK(made.ok());
  return made.MoveValue();
}

SearchPipeline::SearchPipeline(EngineOptions options)
    : options_(std::move(options)),
      searcher_(MakeEngineSearcher(options_)),
      funnel_(options_.metrics, options_.algorithm) {
  TRAJ_CHECK(options_.top_k >= 1);
}

SearchEngine::SearchEngine(DatasetView data, EngineOptions options)
    : data_(data), pipeline_(std::move(options)) {
  const EngineOptions& opts = pipeline_.options();
  if (opts.use_gbp && !data_.empty()) {
    // Derive the default cell size locally; the options stay exactly what
    // the caller passed (the derived value is observable via grid()->stats()).
    double cell = opts.cell_size;
    if (cell <= 0) cell = DefaultCellSize(data_.Bounds());
    const GridIndex* prebuilt = opts.prebuilt_grid;
    if (prebuilt != nullptr && data_.begin_id() == 0 &&
        data_.size() == prebuilt->dataset_size() &&
        cell == prebuilt->cell_size()) {
      // The prebuilt index covers exactly this view at exactly this cell
      // side, so serving it is hit-for-hit identical to building one.
      grid_view_ = prebuilt;
    } else {
      grid_ = std::make_unique<GridIndex>(data_, cell);
      grid_view_ = grid_.get();
    }
  }
}

std::vector<EngineHit> SearchEngine::Query(TrajectoryView query,
                                           QueryStats* stats,
                                           int excluded_id) const {
  SharedTopK topk(options().top_k);
  QueryInto(query, &topk, /*id_offset=*/0, stats, excluded_id);
  return topk.Sorted();
}

void SearchEngine::QueryInto(TrajectoryView query, SharedTopK* topk,
                             int id_offset, QueryStats* stats,
                             int excluded_id) const {
  const EngineOptions& opts = options();
  // GBP candidates, most-promising-first when ordering is on (descending
  // close count — the counts are already computed for the mu filter, so the
  // order is nearly free); without a grid the pipeline scans every id.
  pipeline_.Run(
      data_, query,
      [&](std::vector<int>* out) {
        if (grid_view_ == nullptr) return false;
        if (opts.order_candidates) {
          grid_view_->OrderedCandidates(query, opts.mu, out);
        } else {
          grid_view_->Candidates(query, opts.mu, out);
        }
        return true;
      },
      topk, id_offset, excluded_id, opts.threads, stats);
}

}  // namespace trajsearch
