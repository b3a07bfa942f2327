#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/trajectory.h"
#include "prune/key_point_filter.h"
#include "search/cma.h"
#include "search/engine.h"
#include "search/exacts.h"
#include "search/greedy_backtracking.h"
#include "search/pos_pss.h"
#include "search/rls.h"
#include "search/spring.h"
#include "search/topk.h"

namespace trajsearch::testing {

/// \brief The pre-refactor (PR-1) GBP grid, kept verbatim as a reference:
/// node-based unordered_map from cell key to id bucket, with per-query
/// allocation of the counting arrays.
///
/// The pooled-storage equivalence tests assert the CSR GridIndex produces
/// identical close counts, and LegacySearchEngine below builds its GBP
/// candidates from it.
struct LegacyGrid {
  double cell = 0;
  std::unordered_map<int64_t, std::vector<int>> cells;

  LegacyGrid(const std::vector<TrajectoryView>& data, double cell_size)
      : cell(cell_size) {
    for (int id = 0; id < static_cast<int>(data.size()); ++id) {
      for (const Point& p : data[static_cast<size_t>(id)]) {
        std::vector<int>& bucket = cells[Key(p.x, p.y)];
        if (bucket.empty() || bucket.back() != id) bucket.push_back(id);
      }
    }
  }

  int64_t Key(double x, double y) const {
    const auto ix = static_cast<int64_t>(std::floor(x / cell));
    const auto iy = static_cast<int64_t>(std::floor(y / cell));
    return (ix << 32) ^ (iy & 0xffffffffLL);
  }

  std::vector<std::pair<int, int>> CloseCounts(TrajectoryView query,
                                               int dataset_size) const {
    std::vector<int> stamp(static_cast<size_t>(dataset_size), -1);
    std::vector<int> counts(static_cast<size_t>(dataset_size), 0);
    std::vector<int> touched;
    for (size_t qi = 0; qi < query.size(); ++qi) {
      const auto ix = static_cast<int64_t>(std::floor(query[qi].x / cell));
      const auto iy = static_cast<int64_t>(std::floor(query[qi].y / cell));
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          const int64_t key = ((ix + dx) << 32) ^ ((iy + dy) & 0xffffffffLL);
          const auto it = cells.find(key);
          if (it == cells.end()) continue;
          for (const int id : it->second) {
            if (stamp[static_cast<size_t>(id)] == static_cast<int>(qi)) {
              continue;
            }
            stamp[static_cast<size_t>(id)] = static_cast<int>(qi);
            if (counts[static_cast<size_t>(id)] == 0) touched.push_back(id);
            ++counts[static_cast<size_t>(id)];
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    std::vector<std::pair<int, int>> result;
    result.reserve(touched.size());
    for (const int id : touched) {
      result.emplace_back(id, counts[static_cast<size_t>(id)]);
    }
    return result;
  }
};

/// \brief The pre-PR-3 stateless search path, kept as a reference: for every
/// candidate pair it calls the one-shot algorithm entry points directly
/// (CmaSearch, ExactSSearch, SpringDtw::BestMatch, ...) — re-deriving all
/// query-side state per pair and never early-abandoning — so it is
/// completely independent of the Bind/Run plan code it is compared against.
inline SearchResult LegacyStatelessSearch(Algorithm algorithm,
                                          const DistanceSpec& spec,
                                          const RlsPolicy* rls_policy,
                                          TrajectoryView query,
                                          TrajectoryView data) {
  switch (algorithm) {
    case Algorithm::kCma:
      return CmaSearch(spec, query, data);
    case Algorithm::kExactS:
      return ExactSSearch(spec, query, data);
    case Algorithm::kSpring:
      return SpringDtw::BestMatch(query, data);
    case Algorithm::kGreedyBacktracking:
      return GreedyBacktrackingSearch(query, data);
    case Algorithm::kPos:
      return PosSearch(spec, query, data);
    case Algorithm::kPss:
      return PssSearch(spec, query, data);
    case Algorithm::kRls:
    case Algorithm::kRlsSkip:
      return RlsSearch(spec, *rls_policy, query, data);
  }
  return SearchResult{};
}

/// \brief A line-for-line replica of Algorithm 3 as the engine ran it before
/// the plan refactor: GBP candidates ascending, KPF/OSF bound against the
/// current K-th best via the stateless bound functions, then the stateless
/// per-pair search above. Used by the plan-equivalence matrices (engine with
/// Bind+Run+cutoff must be hit-for-hit identical).
class LegacySearchEngine {
 public:
  LegacySearchEngine(DatasetView data, EngineOptions options)
      : data_(data), options_(options) {
    if (options_.use_gbp && data.size() > 0) {
      double cell = options_.cell_size;
      if (cell <= 0) cell = DefaultCellSize(data.Bounds());
      std::vector<TrajectoryView> views;
      views.reserve(static_cast<size_t>(data.size()));
      for (int id = 0; id < data.size(); ++id) views.push_back(data[id]);
      grid_ = std::make_unique<LegacyGrid>(views, cell);
    }
    if (options_.algorithm == Algorithm::kRls ||
        options_.algorithm == Algorithm::kRlsSkip) {
      if (options_.rls_policy != nullptr) {
        policy_ = std::make_unique<RlsPolicy>(*options_.rls_policy);
      } else {
        RlsOptions rls_options;
        rls_options.allow_skip =
            options_.algorithm == Algorithm::kRlsSkip;
        policy_ = std::make_unique<RlsPolicy>(rls_options);
      }
    }
  }

  std::vector<EngineHit> Query(TrajectoryView query,
                               int excluded_id = -1) const {
    std::vector<int> candidates;
    if (grid_ != nullptr) {
      const double threshold =
          options_.mu * static_cast<double>(query.size());
      for (const auto& [id, count] :
           grid_->CloseCounts(query, data_.size())) {
        if (static_cast<double>(count) >= threshold) candidates.push_back(id);
      }
    } else {
      for (int id = 0; id < data_.size(); ++id) candidates.push_back(id);
    }
    const bool bound_enabled = options_.use_kpf || options_.use_osf;
    TopKHeap heap(options_.top_k);
    for (const int id : candidates) {
      if (id == excluded_id) continue;
      const TrajectoryRef data = data_[id];
      if (data.empty()) continue;
      if (bound_enabled && heap.Full()) {
        const double bound =
            options_.use_osf
                ? OsfLowerBound(options_.spec, query, data)
                : KpfLowerBoundEstimate(options_.spec, query, data,
                                        options_.sample_rate);
        if (bound >= heap.Worst()) continue;
      }
      heap.Offer(EngineHit{
          id, LegacyStatelessSearch(options_.algorithm, options_.spec,
                                    policy_.get(), query, data)});
    }
    return heap.Sorted();
  }

 private:
  DatasetView data_;
  EngineOptions options_;
  std::unique_ptr<LegacyGrid> grid_;
  std::unique_ptr<RlsPolicy> policy_;
};

}  // namespace trajsearch::testing
