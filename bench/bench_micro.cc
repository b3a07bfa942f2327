// Microbenchmarks (google-benchmark) for the §4.2/§5 complexity claims:
// CMA kernels are O(mn) per pair while ExactS is O(mn^2) — the per-pair
// time ratio must grow linearly with the data length n. Also covers the
// exact O(mn) competitors (Spring for DTW, GB for Fréchet), the prune stage
// (the KPF bound, GBP's candidate ordering), and the open-to-ready costs:
// the grid build and the corpus bounding box.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "distance/cost_model.h"
#include "distance/dp.h"
#include "gen/taxi.h"
#include "gen/workload.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/cma.h"
#include "search/exacts.h"
#include "search/greedy_backtracking.h"
#include "search/searcher.h"
#include "search/spring.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

Trajectory MakeWalk(int length, uint64_t seed) {
  TaxiProfile profile = XianProfile(1);
  Rng rng(seed);
  return GenerateTaxiTrajectory(profile, &rng, length);
}

const Trajectory& Query() {
  static const Trajectory q = MakeWalk(64, 1);
  return q;
}

void BM_CmaDtw(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CmaSearch(DistanceSpec::Dtw(), Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CmaDtw)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_CmaEdr(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CmaSearch(DistanceSpec::Edr(0.001), Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CmaEdr)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_CmaErp(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 4);
  const DistanceSpec spec = DistanceSpec::Erp(d.Bounds().Center());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CmaSearch(spec, Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CmaErp)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_CmaFrechet(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CmaSearch(DistanceSpec::Frechet(), Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CmaFrechet)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_ExactSDtw(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSSearch(DistanceSpec::Dtw(), Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactSDtw)->Range(128, 2048)->Complexity(benchmark::oNSquared);

void BM_ExactSEdr(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactSSearch(DistanceSpec::Edr(0.001), Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactSEdr)->Range(128, 2048)->Complexity(benchmark::oNSquared);

void BM_SpringDtw(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpringDtw::BestMatch(Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpringDtw)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_GreedyBacktrackingFrechet(benchmark::State& state) {
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyBacktrackingSearch(Query(), d));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyBacktrackingFrechet)
    ->Range(128, 4096)
    ->Complexity(benchmark::oNLogN);

// ---------------------------------------------------------------------------
// PR 7: per-kernel column-sweep benchmarks, scalar vs SIMD dispatch.
//
// Each benchmark streams kSweepN Extend() calls through one column stepper —
// the inner loop of every DP-based search — at query length m = range(0),
// the dimension the column kernel batches over. The *Scalar variants build
// the cost object without query columns (the identity-oracle path); the WED
// *Simd variant binds columns and turns dispatch on (a no-op fallback to
// scalar on hardware without vector lanes). DTW and Fréchet have only the
// scalar column stepper; their vector path is the batch grid below.
// items_processed = DP cells, so benchmark output reports cells/second
// directly comparable across pairs.
// ---------------------------------------------------------------------------

constexpr int kSweepN = 256;

/// Streams full sweeps through `dp`; reports cells/second.
template <typename Dp>
void SweepLoop(benchmark::State& state, Dp& dp, int m) {
  for (auto _ : state) {
    dp.Reset();
    double v = 0;
    for (int j = 0; j < kSweepN; ++j) v = dp.Extend(j);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * kSweepN * m);
}

void BM_WedColumnSweepScalar(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 11);
  const Trajectory d = MakeWalk(kSweepN, 12);
  const ErpCosts costs{q, d, d.Bounds().Center()};  // no columns → scalar
  WedColumnDp<ErpCosts> dp(m, costs);
  SweepLoop(state, dp, m);
}
BENCHMARK(BM_WedColumnSweepScalar)->RangeMultiplier(4)->Range(8, 512);

void BM_WedColumnSweepSimd(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 11);
  const Trajectory d = MakeWalk(kSweepN, 12);
  simd::SetEnabled(true);
  DpArena arena;
  const ErpCosts costs{q, d, d.Bounds().Center(), FillCols(q, &arena)};
  WedColumnDp<ErpCosts> dp(m, costs);
  SweepLoop(state, dp, m);
}
BENCHMARK(BM_WedColumnSweepSimd)->RangeMultiplier(4)->Range(8, 512);

void BM_DtwColumnSweepScalar(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 13);
  const Trajectory d = MakeWalk(kSweepN, 14);
  const EuclideanSub sub{q, d};
  DtwColumnDp<EuclideanSub> dp(m, sub);
  SweepLoop(state, dp, m);
}
BENCHMARK(BM_DtwColumnSweepScalar)->RangeMultiplier(4)->Range(8, 512);

void BM_FrechetColumnSweepScalar(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 15);
  const Trajectory d = MakeWalk(kSweepN, 16);
  const EuclideanSub sub{q, d};
  FrechetColumnDp<EuclideanSub> dp(m, sub);
  SweepLoop(state, dp, m);
}
BENCHMARK(BM_FrechetColumnSweepScalar)->RangeMultiplier(4)->Range(8, 512);

// ---------------------------------------------------------------------------
// PR 8: batch-kernel grid — batched vs column vs scalar dispatch.
//
// The batch kernels vectorize across *sweeps* (multi-sweep ExactS: kLanes
// start positions per vector; CMA: kLanes candidates per vector) instead of
// across the query dimension like the WED column kernel above. The grid
// A/Bs the three dispatch modes over query length m and, for ExactS, the
// lane clamp (2 = NEON shape, kLanes = full width). items_processed = DP
// cells, comparable across all variants of one shape.
// ---------------------------------------------------------------------------

constexpr int kBatchSweepN = 192;

void BM_ExactSMultiSweepScalar(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 21);
  const Trajectory d = MakeWalk(kBatchSweepN, 22);
  const EuclideanSub sub{q, d};
  DtwColumnDp<EuclideanSub> dp(m, sub);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSWithDp(dp, kBatchSweepN));
  }
  // Full Algorithm 1: n(n+1)/2 extends of an m-cell column.
  state.SetItemsProcessed(state.iterations() * m * kBatchSweepN *
                          (kBatchSweepN + 1) / 2);
}
BENCHMARK(BM_ExactSMultiSweepScalar)->RangeMultiplier(4)->Range(8, 128);

void BM_ExactSMultiSweepBatched(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const Trajectory q = MakeWalk(m, 21);
  const Trajectory d = MakeWalk(kBatchSweepN, 22);
  simd::SetEnabled(true);
  const EuclideanSub sub{q, d};
  DtwBatchDp<SubRef<EuclideanSub>> dp(m, SubRef<EuclideanSub>{&sub});
  const auto stage = [&](int l, int j, double* sx, double* sy,
                         double* /*ins*/) {
    const Point p = d[static_cast<size_t>(j)];
    sx[l] = p.x;
    sy[l] = p.y;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactSBatchWithDp(dp, kBatchSweepN, kNoCutoff, lanes, stage));
  }
  state.SetItemsProcessed(state.iterations() * m * kBatchSweepN *
                          (kBatchSweepN + 1) / 2);
}
BENCHMARK(BM_ExactSMultiSweepBatched)
    ->ArgsProduct({{8, 32, 128}, {2, simd::kLanes}});

void BM_ExactSMultiSweepWedScalar(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Trajectory q = MakeWalk(m, 23);
  const Trajectory d = MakeWalk(kBatchSweepN, 24);
  const EdrCosts costs{q, d, 0.001};
  WedColumnDp<EdrCosts> dp(m, costs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSWithDp(dp, kBatchSweepN));
  }
  state.SetItemsProcessed(state.iterations() * m * kBatchSweepN *
                          (kBatchSweepN + 1) / 2);
}
BENCHMARK(BM_ExactSMultiSweepWedScalar)->RangeMultiplier(4)->Range(8, 128);

void BM_ExactSMultiSweepWedBatched(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const Trajectory q = MakeWalk(m, 23);
  const Trajectory d = MakeWalk(kBatchSweepN, 24);
  simd::SetEnabled(true);
  const EdrCosts costs{q, d, 0.001};
  WedBatchDp<EdrCosts> dp(m, costs);
  const auto stage = [&](int l, int j, double* sx, double* sy, double* ins) {
    const Point p = d[static_cast<size_t>(j)];
    sx[l] = p.x;
    sy[l] = p.y;
    ins[l] = costs.Ins(j);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactSBatchWithDp(dp, kBatchSweepN, kNoCutoff, lanes, stage));
  }
  state.SetItemsProcessed(state.iterations() * m * kBatchSweepN *
                          (kBatchSweepN + 1) / 2);
}
BENCHMARK(BM_ExactSMultiSweepWedBatched)
    ->ArgsProduct({{8, 32, 128}, {2, simd::kLanes}});

/// CMA three-way: scalar rows (Run under scalar dispatch), data-dimension
/// vectorized rows (Run under vector dispatch: each call copies the
/// candidate into column scratch, then CmaWedRows over the CmaRowCosts
/// adapter), and cross-candidate lanes (RunBatch over kLanes candidates).
/// One "iteration" evaluates kLanes candidates so the three variants do the
/// same work. The third argument picks the distance (0 = DTW, 1 = ERP);
/// the column variant exists for the WED family only, so it runs ERP. The
/// last argument picks the cutoff: 0 = none (every DP runs in full), 1 =
/// the fixture's median full distance, the abandon-heavy regime where the
/// row floor and suffix floor retire runs early. Items processed count the
/// full m x n cells either way, so items/s compares the two directly.
struct CmaBatchFixture {
  Trajectory query;
  std::vector<Trajectory> data;
  Dataset dataset{"bench-cma-batch"};

  CmaBatchFixture(int m, int n) : query(MakeWalk(m, 31)) {
    for (int l = 0; l < simd::kLanes; ++l) {
      data.push_back(MakeWalk(n + l, 32 + static_cast<uint64_t>(l)));
      dataset.Add(data.back());
    }
  }

  DistanceSpec Spec(int64_t distance) const {
    return distance == 0 ? DistanceSpec::Dtw()
                         : DistanceSpec::Erp(dataset.Bounds().Center());
  }

  /// kNoCutoff for arg 0, else the median full distance under `plan`.
  double Cutoff(QueryRun* plan, int64_t arg) const {
    if (arg == 0) return kNoCutoff;
    std::vector<double> full;
    for (int id = 0; id < dataset.size(); ++id) {
      full.push_back(plan->Run(dataset[id], kNoCutoff).distance);
    }
    std::sort(full.begin(), full.end());
    return full[full.size() / 2];
  }
};

void BM_CmaRowsScalar(benchmark::State& state) {
  const CmaBatchFixture f(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1)));
  simd::SetEnabled(false);
  auto searcher = MakeSearcher(Algorithm::kCma, f.Spec(state.range(2)));
  std::unique_ptr<QueryRun> plan = searcher.value()->Bind(f.query);
  const double cutoff = f.Cutoff(plan.get(), state.range(3));
  for (auto _ : state) {
    double sum = 0;
    for (int id = 0; id < f.dataset.size(); ++id) {
      sum += plan->Run(f.dataset[id], cutoff).distance;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1) * simd::kLanes);
}
BENCHMARK(BM_CmaRowsScalar)
    ->ArgsProduct({{16, 64}, {256, 1024}, {0, 1}, {0, 1}});

void BM_CmaRowsColumn(benchmark::State& state) {
  const CmaBatchFixture f(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1)));
  simd::SetEnabled(true);
  auto searcher = MakeSearcher(Algorithm::kCma, f.Spec(1));
  std::unique_ptr<QueryRun> plan = searcher.value()->Bind(f.query);
  const double cutoff = f.Cutoff(plan.get(), state.range(2));
  for (auto _ : state) {
    double sum = 0;
    for (int id = 0; id < f.dataset.size(); ++id) {
      sum += plan->Run(f.dataset[id], cutoff).distance;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1) * simd::kLanes);
}
BENCHMARK(BM_CmaRowsColumn)->ArgsProduct({{16, 64}, {256, 1024}, {0, 1}});

void BM_CmaRowsBatched(benchmark::State& state) {
  const CmaBatchFixture f(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1)));
  simd::SetEnabled(true);
  auto searcher = MakeSearcher(Algorithm::kCma, f.Spec(state.range(2)));
  std::unique_ptr<QueryRun> plan = searcher.value()->Bind(f.query);
  std::vector<QueryRun::RunBatchItem> items;
  for (int id = 0; id < f.dataset.size(); ++id) {
    items.push_back({f.dataset[id].View(), {}});
  }
  std::vector<SearchResult> results(items.size());
  const int width = plan->batch_width();
  const double cutoff = f.Cutoff(plan.get(), state.range(3));
  for (auto _ : state) {
    double sum = 0;
    for (size_t begin = 0; begin < items.size();) {
      const int count = static_cast<int>(std::min(
          static_cast<size_t>(width), items.size() - begin));
      plan->RunBatch(items.data() + begin, count, cutoff,
                     results.data() + begin);
      begin += static_cast<size_t>(count);
    }
    for (const SearchResult& r : results) sum += r.distance;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1) * simd::kLanes);
}
BENCHMARK(BM_CmaRowsBatched)
    ->ArgsProduct({{16, 64}, {256, 1024}, {0, 1}, {0, 1}});

// KPF bound (Theorem B.1, DTW, every query point a key point) of an m = 40
// query against one n-point candidate: the scalar per-pair estimate — a
// sqrt and a cost switch per (key point, data point) — against the bound
// plan's min-of-squares vector scan. Arg 1 = 1 passes half the full bound
// as the abandon threshold, so the plan stops about half way through the
// key points, as it does for a candidate the shared top-K prunes.
void BM_KpfLowerBoundScalar(benchmark::State& state) {
  const Trajectory q = MakeWalk(40, 7);
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KpfLowerBoundEstimate(DistanceSpec::Dtw(), q, d, 1.0));
  }
}
BENCHMARK(BM_KpfLowerBoundScalar)->Arg(64)->Arg(512);

void BM_KpfLowerBoundPlan(benchmark::State& state) {
  const Trajectory q = MakeWalk(40, 7);
  const Trajectory d = MakeWalk(static_cast<int>(state.range(0)), 8);
  KpfBoundPlan plan;
  plan.Bind(DistanceSpec::Dtw(), q, 1.0);
  const double abandon_at = state.range(1) != 0
                                ? plan.LowerBound(d) / 2
                                : std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.LowerBound(d, abandon_at));
  }
}
BENCHMARK(BM_KpfLowerBoundPlan)->ArgsProduct({{64, 512}, {0, 1}});

// Open-to-ready costs over workload-sized corpora. Arg 0 selects the corpus:
// 0 = one of xian-batch's two shards (4k Xi'an-like trajectories, ~1.6M
// points), 1 = porto-interactive's corpus plus one compaction's appends (51k
// Porto-like, ~3.4M points). Generated once per process.
const Dataset& BuildCorpus(int which) {
  static const Dataset xian = GenerateTaxiDataset(XianProfile(4000));
  static const Dataset porto = GenerateTaxiDataset(PortoProfile(51000));
  return which == 0 ? xian : porto;
}

// The counting CSR grid build, run at every open without a prebuilt grid
// and at every compaction.
void BM_GridIndexBuild(benchmark::State& state) {
  const Dataset& corpus = BuildCorpus(static_cast<int>(state.range(0)));
  const double cell = DefaultCellSize(corpus.Bounds());
  for (auto _ : state) {
    const GridIndex grid(corpus, cell);
    benchmark::DoNotOptimize(grid.posting_ids().data());
  }
  state.counters["points"] = static_cast<double>(corpus.point_count());
}
BENCHMARK(BM_GridIndexBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The corpus bounding box (DefaultCellSize's input at service start) over
// ~3.4M points: arg 1 = 0 forces the Extend loop, 1 the startup dispatch.
void BM_DatasetBounds(benchmark::State& state) {
  const Dataset& corpus = BuildCorpus(1);
  const bool dispatch = simd::Enabled();
  simd::SetEnabled(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(corpus.Bounds());
  simd::SetEnabled(dispatch);
  state.counters["points"] = static_cast<double>(corpus.point_count());
}
BENCHMARK(BM_DatasetBounds)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Porto-shaped prune inputs: 64 of porto-interactive's 30-50-point queries
// sampled from the 51k Porto corpus above, its grid at the default cell and,
// per query, the GBP candidates at perfbench's mu = 0.1 — what KPF bounds.
struct PortoPrune {
  std::vector<Trajectory> queries;
  std::unique_ptr<GridIndex> grid;
  std::vector<std::vector<int>> candidates;
};

const PortoPrune& PortoPruneInputs() {
  static const PortoPrune inputs = [] {
    const Dataset& corpus = BuildCorpus(1);
    PortoPrune p;
    WorkloadOptions options;
    options.count = 64;
    options.min_length = 30;
    options.max_length = 50;
    options.seed = 11;
    p.queries = SampleQueries(corpus, options).queries;
    p.grid = std::make_unique<GridIndex>(corpus,
                                         DefaultCellSize(corpus.Bounds()));
    for (const Trajectory& q : p.queries) {
      p.candidates.emplace_back();
      p.grid->OrderedCandidates(q, 0.1, &p.candidates.back());
    }
    return p;
  }();
  return inputs;
}

// GBP per query: close counts over every cell near the query, the mu
// filter and the most-promising-first sort (the engine's candidate order).
void BM_GridOrderedCandidates(benchmark::State& state) {
  const PortoPrune& p = PortoPruneInputs();
  std::vector<int> out;
  size_t q = 0;
  double candidates = 0;
  for (auto _ : state) {
    p.grid->OrderedCandidates(p.queries[q], 0.1, &out);
    candidates += static_cast<double>(out.size());
    q = (q + 1) % p.queries.size();
  }
  state.counters["candidates"] =
      benchmark::Counter(candidates, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GridOrderedCandidates)->Unit(benchmark::kMicrosecond);

// The live delta's GBP read: a DeltaGridIndex over the 1,024 newest
// trajectories of the Porto corpus at the base's cell, read capped at its
// size by the same 64 queries at mu = 0.1 (the delta engine's candidate
// source in porto-live).
void BM_DeltaGridOrderedCandidates(benchmark::State& state) {
  const Dataset& corpus = BuildCorpus(1);
  const PortoPrune& p = PortoPruneInputs();
  DeltaGridIndex delta(p.grid->cell_size());
  for (int id = corpus.size() - 1024; id < corpus.size(); ++id) {
    delta.Add(corpus[id].View());
  }
  std::vector<int> out;
  size_t q = 0;
  double candidates = 0;
  for (auto _ : state) {
    delta.OrderedCandidates(p.queries[q], 0.1, &out, delta.size());
    candidates += static_cast<double>(out.size());
    q = (q + 1) % p.queries.size();
  }
  state.counters["candidates"] =
      benchmark::Counter(candidates, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DeltaGridOrderedCandidates)->Unit(benchmark::kMicrosecond);

// KPF (DTW, r = 1) over one Porto query's GBP candidates per iteration,
// abandoning at the full bound of rank candidates / 10: about nine in ten
// candidates are pruned, as in porto-interactive's funnel (~945 of ~1,050).
// Arg 0 = 1 selects the startup dispatch, 0 the scalar one.
void BM_KpfLowerBoundPlanPorto(benchmark::State& state) {
  const PortoPrune& p = PortoPruneInputs();
  const Dataset& corpus = BuildCorpus(1);
  const bool dispatch = simd::Enabled();
  simd::SetEnabled(state.range(0) != 0);
  std::vector<double> cutoffs;
  KpfBoundPlan plan;
  for (size_t q = 0; q < p.queries.size(); ++q) {
    plan.Bind(DistanceSpec::Dtw(), p.queries[q], 1.0);
    std::vector<double> full;
    for (const int id : p.candidates[q]) {
      full.push_back(plan.LowerBound(corpus[id]));
    }
    const size_t rank = full.size() / 10;
    std::nth_element(full.begin(), full.begin() + rank, full.end());
    cutoffs.push_back(full.empty() ? 0.0 : full[rank]);
  }
  size_t q = 0;
  double bounded = 0;
  for (auto _ : state) {
    plan.Bind(DistanceSpec::Dtw(), p.queries[q], 1.0);
    double sum = 0;
    for (const int id : p.candidates[q]) {
      sum += plan.LowerBound(corpus[id], cutoffs[q]);
    }
    benchmark::DoNotOptimize(sum);
    bounded += static_cast<double>(p.candidates[q].size());
    q = (q + 1) % p.queries.size();
  }
  simd::SetEnabled(dispatch);
  state.counters["candidates"] =
      benchmark::Counter(bounded, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_KpfLowerBoundPlanPorto)
    ->Name("BM_KpfLowerBoundPlan/porto")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace trajsearch

BENCHMARK_MAIN();
