#include "search/rls.h"

#include <algorithm>
#include <optional>

#include "distance/dp.h"
#include "search/pos_pss.h"
#include "search/scan_plans.h"

namespace trajsearch {

namespace {

enum RlsAction { kContinue = 0, kSplit = 1, kSkip = 2 };

void MakeFeatures(double cur, double best, double suffix_next,
                  int candidate_len, int m, bool rising,
                  std::vector<double>* out) {
  constexpr double kEps = 1e-9;
  const double suffix_ratio = suffix_next >= kDpInfinity
                                  ? 1.0
                                  : suffix_next / (suffix_next + cur + kEps);
  out->assign({1.0, cur / (cur + best + kEps),
               std::min(2.0, static_cast<double>(candidate_len) /
                                 static_cast<double>(m)),
               suffix_ratio, rising ? 1.0 : 0.0});
}

/// Reusable feature buffers of one scan (plan-owned in the greedy path so
/// steady-state candidate evaluations allocate nothing).
struct RlsScanScratch {
  std::vector<double> feat, prev_feat;
};

/// One scan of the data trajectory under the policy. When `learn` is set,
/// performs epsilon-greedy exploration and TD updates; otherwise greedy.
template <typename ColumnDp>
SearchResult RlsScanT(ColumnDp& dp, int n, const std::vector<double>& suffix,
                      RlsPolicy* policy, bool learn, Rng* rng,
                      double reward_scale, RlsScanScratch* scratch) {
  LinearQ& q = policy->q();
  const RlsOptions& opt = policy->options();
  const int m = dp.query_size();
  SearchResult best;
  int s = 0;
  dp.Reset();
  double prev = kDpInfinity;
  std::vector<double>& feat = scratch->feat;
  std::vector<double>& prev_feat = scratch->prev_feat;
  int prev_action = -1;
  double prev_best = kDpInfinity;
  int t = 0;
  while (t < n) {
    double cur = dp.Extend(t);
    if (cur < best.distance) best = SearchResult{Subrange{s, t}, cur};
    const bool rising = cur > prev;
    const double suffix_next =
        t + 1 <= n ? suffix[static_cast<size_t>(t + 1)] : kDpInfinity;
    MakeFeatures(cur, best.distance, suffix_next, t - s + 1, m, rising, &feat);
    if (learn && prev_action >= 0) {
      const double reward = (prev_best - best.distance) / reward_scale;
      q.Update(prev_feat, prev_action, reward, feat, /*terminal=*/false);
    }
    int action = kContinue;
    if (t < n - 1) {
      action = learn ? q.Select(feat, opt.explore_epsilon, rng) : q.Greedy(feat);
    }
    prev_feat = feat;
    prev_action = action;
    prev_best = best.distance;
    prev = cur;
    if (action == kSplit) {
      s = t + 1;
      dp.Reset();
      prev = kDpInfinity;
      t += 1;
    } else if (action == kSkip) {
      // RLS-Skip: jump over points without extending the DP column.
      t += 1 + opt.skip_length;
    } else {
      t += 1;
    }
  }
  if (learn && prev_action >= 0) {
    const double reward = (prev_best - best.distance) / reward_scale;
    q.Update(prev_feat, prev_action, reward, feat, /*terminal=*/true);
  }
  return best;
}

/// Reward normalization shared by the stateless path and the plan: the
/// whole-trajectory suffix distance, guarded against zero/saturation.
double RewardScale(const std::vector<double>& suffix) {
  double reward_scale = suffix[0];
  if (!(reward_scale > 1e-12) || reward_scale >= kDpInfinity) {
    reward_scale = 1.0;
  }
  return reward_scale;
}

SearchResult RlsScan(const DistanceSpec& spec, RlsPolicy* policy,
                     TrajectoryView query, TrajectoryView data, bool learn,
                     Rng* rng) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  TRAJ_CHECK(m >= 1 && n >= 1);
  const std::vector<double> suffix = SuffixDistances(spec, query, data);
  const double reward_scale = RewardScale(suffix);
  RlsScanScratch scratch;
  return VisitColumnDp(spec, query, data, [&](auto& dp) {
    return RlsScanT(dp, n, suffix, policy, learn, rng, reward_scale,
                    &scratch);
  });
}

/// Bind-once RLS/RLS-Skip plan over one cost kind (see scan_plans.h).
template <typename Kind>
class RlsPlan final : public QueryRun {
 public:
  RlsPlan(typename Kind::Costs prototype, RlsPolicy policy)
      : prototype_(prototype),
        policy_(std::move(policy)),
        name_(policy_.options().allow_skip ? "RLS-Skip" : "RLS") {}

  void Bind(TrajectoryView query) override {
    arena_.Rewind();
    main_.Bind(query, prototype_, &arena_);
    suffix_.Bind(query, prototype_, &arena_);
  }

  SearchResult Run(TrajectoryView data, double /*cutoff*/) override {
    return RunScan(data, suffix_.Compute(data));
  }

  /// Same batching split as PSS (pos_pss.cc): the O(mn) suffix sweeps of up
  /// to kLanes candidates run lane-parallel through one batch stepper; the
  /// policy scans (inherently serial — each step's action depends on the
  /// evolving DP value) then replay per candidate against the lane tables.
  int batch_width() const override { return suffix_.batch_width; }

  void RunWindow(const RunBatchItem* items, int count,
                 WindowSink* sink) override {
    suffix_.RunWindow(
        items, count, sink,
        [this](TrajectoryView data, double cutoff) { return Run(data, cutoff); },
        [this](TrajectoryView data, const std::vector<double>& suffix) {
          return RunScan(data, suffix);
        });
  }

  simd::CellCounts TakeSimdStats() override {
    simd::CellCounts counts;
    if (main_.dp.has_value()) counts += main_.dp->TakeCellCounts();
    if (suffix_.dp.has_value()) counts += suffix_.dp->TakeCellCounts();
    if (suffix_.bdp.has_value()) counts += suffix_.bdp->TakeCellCounts();
    return counts;
  }

  std::string_view name() const override { return name_; }

 private:
  /// The policy scan plus the true-distance re-sweep, over a caller-supplied
  /// suffix table (size n+1) — shared by Run and RunWindow.
  SearchResult RunScan(TrajectoryView data, const std::vector<double>& suffix) {
    const int n = static_cast<int>(data.size());
    main_.SetData(data);
    SearchResult result =
        RlsScanT(*main_.dp, n, suffix, &policy_, /*learn=*/false, nullptr,
                 RewardScale(suffix), &scratch_);
    if (result.found()) {
      // Report the true distance of the returned range (skips thin the DP).
      // One fresh sweep of the plan's own stepper over [start..end] computes
      // exactly dist(query, data[start..end]) — the same recurrence, and the
      // same arithmetic, as FullDistance over the slice.
      main_.dp->Reset();
      double v = 0;
      for (int j = result.range.start; j <= result.range.end; ++j) {
        v = main_.dp->Extend(j);
      }
      result.distance = v;
    }
    return result;
  }

  typename Kind::Costs prototype_;
  RlsPolicy policy_;
  std::string_view name_;
  DpArena arena_;
  detail::ScanState<Kind> main_;
  detail::SuffixState<Kind> suffix_;
  RlsScanScratch scratch_;
};

}  // namespace

RlsPolicy::RlsPolicy(const RlsOptions& options)
    : options_(options),
      q_(options.allow_skip ? 3 : 2, kNumFeatures, options.learning_rate,
         options.discount) {}

RlsPolicy TrainRlsPolicy(
    const DistanceSpec& spec,
    const std::vector<std::pair<TrajectoryView, TrajectoryView>>& pairs,
    const RlsOptions& options) {
  RlsPolicy policy(options);
  if (pairs.empty()) return policy;
  Rng rng(options.seed);
  for (int episode = 0; episode < options.training_episodes; ++episode) {
    const auto& [query, data] =
        pairs[static_cast<size_t>(episode) % pairs.size()];
    RlsScan(spec, &policy, query, data, /*learn=*/true, &rng);
  }
  return policy;
}

SearchResult RlsSearch(const DistanceSpec& spec, const RlsPolicy& policy,
                       TrajectoryView query, TrajectoryView data) {
  RlsPolicy* mutable_policy = const_cast<RlsPolicy*>(&policy);
  SearchResult result =
      RlsScan(spec, mutable_policy, query, data, /*learn=*/false, nullptr);
  if (result.found()) {
    // Report the true distance of the returned range (skips thin the DP).
    const TrajectoryView slice = data.subspan(
        static_cast<size_t>(result.range.start),
        static_cast<size_t>(result.range.Length()));
    result.distance = FullDistance(spec, query, slice);
  }
  return result;
}

std::unique_ptr<QueryRun> MakeRlsRun(const DistanceSpec& spec,
                                     const RlsPolicy& policy) {
  return detail::MakeScanPlan<RlsPlan>(spec, policy);
}

}  // namespace trajsearch
