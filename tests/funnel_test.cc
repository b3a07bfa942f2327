// Pruning-funnel consistency: the per-algorithm `engine.<name>.funnel.*`
// counters must telescope *exactly* —
//
//   candidates == skipped + bound_pruned + dp_runs
//   dp_runs    == dp_abandoned + dp_completed
//
// — across the full 8-algorithm x 4-distance matrix of the paper's §6, with
// engine threads > 1, service shards > 1, and on both static and live
// (base + delta) corpora. A funnel that drifts by even one candidate means
// some pruning path forgot to account for a trajectory, so these are
// equality assertions, not tolerances.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/registry.h"
#include "prune/grid_index.h"
#include "search/engine.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
    Algorithm::kGreedyBacktracking, Algorithm::kPos,
    Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};

struct FunnelFixture {
  std::vector<Trajectory> corpus;
  std::vector<Trajectory> query_storage;
  std::vector<TrajectoryView> queries;
  std::vector<int> excluded;
  std::vector<DistanceSpec> specs;
  double cell = 0;
};

FunnelFixture MakeFixture() {
  FunnelFixture f;
  Rng rng(97);
  for (int i = 0; i < 45; ++i) {
    f.corpus.push_back(
        RandomWalk(&rng, 14 + static_cast<int>(rng.UniformInt(0, 8))));
  }
  for (int i = 0; i < 5; ++i) {
    f.query_storage.push_back(RandomWalk(&rng, 6));
    // Some queries exclude a source id (exercising the `skipped` stage of
    // the funnel), some exclude nothing.
    f.excluded.push_back(i % 2 == 0 ? i * 7 : -1);
  }
  for (const Trajectory& q : f.query_storage) f.queries.push_back(q.View());
  f.specs = testing::PaperGpsSpecs();
  Dataset bounds_probe("probe");
  for (const Trajectory& t : f.corpus) bounds_probe.Add(t);
  f.cell = DefaultCellSize(bounds_probe.Bounds());
  return f;
}

/// The Porto-shaped workbench (tests/test_util.h) as a funnel fixture; every
/// query excludes its source trajectory.
FunnelFixture MakePortoFixture() {
  testing::PortoWorkbench w = testing::MakePortoWorkbench(8);
  FunnelFixture f;
  for (const TrajectoryRef t : w.corpus) f.corpus.emplace_back(t.View());
  f.query_storage = std::move(w.queries);
  for (const Trajectory& q : f.query_storage) f.queries.push_back(q.View());
  f.excluded = std::move(w.excluded);
  f.specs = std::move(w.specs);
  f.cell = DefaultCellSize(w.corpus.Bounds());
  return f;
}

EngineOptions MatrixEngineOptions(Algorithm algorithm,
                                  const DistanceSpec& spec, double cell) {
  EngineOptions options;
  options.spec = spec;
  options.algorithm = algorithm;
  options.use_gbp = true;  // all three funnel stages active
  options.mu = 0.1;
  options.cell_size = cell;
  options.use_kpf = true;
  options.sample_rate = 0.5;  // unsound bound: more bound_pruned traffic
  options.top_k = 3;
  options.threads = 2;
  return options;
}

/// Extracts the single funnel row for `algorithm` and asserts both
/// telescoping invariants plus basic liveness (queries ran, candidates
/// flowed).
void ExpectConsistentFunnel(const obs::Registry& registry,
                            Algorithm algorithm, uint64_t expected_queries,
                            const std::string& context) {
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const std::vector<obs::FunnelRow> funnels = obs::ExtractFunnels(snap);
  ASSERT_EQ(funnels.size(), 1u) << context;
  const obs::FunnelRow& f = funnels.front();
  EXPECT_EQ(f.algorithm, std::string(ToString(algorithm))) << context;
  EXPECT_EQ(f.candidates, f.skipped + f.bound_pruned + f.dp_runs) << context;
  EXPECT_EQ(f.dp_runs, f.dp_abandoned + f.dp_completed) << context;
  EXPECT_TRUE(f.Consistent()) << context;
  EXPECT_GT(f.candidates, 0u) << context;
  EXPECT_GT(f.dp_runs, 0u) << context;
  // Every query fold bumps the queries counter once per engine invocation;
  // at least one invocation per submitted query must have landed.
  EXPECT_GE(snap.counter("engine." + std::string(ToString(algorithm)) +
                         ".funnel.queries"),
            expected_queries)
      << context;
}

TEST(FunnelTest, UnshardedEngineMatrixTelescopesExactly) {
  const FunnelFixture f = MakeFixture();
  Dataset dataset("funnel-static");
  for (const Trajectory& t : f.corpus) dataset.Add(t);

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      const std::string context = std::string(ToString(algorithm)) + "/" +
                                  std::string(ToString(spec.kind));
      obs::Registry registry;
      EngineOptions options = MatrixEngineOptions(algorithm, spec, f.cell);
      options.metrics = &registry;
      const SearchEngine engine(&dataset, options);
      for (size_t qi = 0; qi < f.queries.size(); ++qi) {
        QueryStats stats;
        engine.Query(f.queries[qi], &stats, f.excluded[qi]);
        // The per-query stats must satisfy the same telescoping identity
        // the registry counters are folded from.
        EXPECT_EQ(stats.candidates_after_gbp,
                  stats.skipped + stats.pruned_by_bound + stats.searched)
            << context;
      }
      ExpectConsistentFunnel(registry, algorithm, f.queries.size(),
                             "static engine " + context);
    }
  }
}

TEST(FunnelTest, ShardedServiceMatrixTelescopesExactly) {
  for (const FunnelFixture& f : {MakeFixture(), MakePortoFixture()}) {
    Dataset dataset("funnel-sharded");
    for (const Trajectory& t : f.corpus) dataset.Add(t);

    for (const Algorithm algorithm : kAllAlgorithms) {
      for (const DistanceSpec& spec : f.specs) {
        if (!Supports(algorithm, spec.kind)) continue;
        const std::string context = std::string(ToString(algorithm)) + "/" +
                                    std::string(ToString(spec.kind));
        ServiceOptions options;
        options.engine = MatrixEngineOptions(algorithm, spec, f.cell);
        options.shards = 3;
        options.cache_capacity = 0;
        QueryService service(dataset, options);
        service.SubmitBatch(f.queries, f.excluded);
        service.SubmitBatch(f.queries, f.excluded);  // counters accumulate
        ExpectConsistentFunnel(service.metrics(), algorithm,
                               2 * f.queries.size(),
                               "sharded service " + context);
      }
    }
  }
}

TEST(FunnelTest, LiveCorpusMatrixTelescopesExactly) {
  const FunnelFixture f = MakeFixture();
  constexpr int kBase = 30;

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      const std::string context = std::string(ToString(algorithm)) + "/" +
                                  std::string(ToString(spec.kind));
      ServiceOptions options;
      options.engine = MatrixEngineOptions(algorithm, spec, f.cell);
      options.shards = 3;
      options.cache_capacity = 0;
      options.compact_delta_trajectories = 0;

      Dataset base("funnel-live");
      for (int i = 0; i < kBase; ++i) {
        base.Add(f.corpus[static_cast<size_t>(i)]);
      }
      QueryService service(std::move(base), options);
      std::vector<TrajectoryView> appended;
      for (size_t i = kBase; i < f.corpus.size(); ++i) {
        appended.push_back(f.corpus[i].View());
      }
      service.AppendBatch(appended);

      // With a delta present both the sharded base engines and the
      // DeltaEngine fold into the same funnel counters; the invariants must
      // hold over the combined stream.
      service.SubmitBatch(f.queries, f.excluded);
      ExpectConsistentFunnel(service.metrics(), algorithm, f.queries.size(),
                             "live delta " + context);

      // And again after compaction rebuilds the shards.
      ASSERT_TRUE(service.Compact()) << context;
      service.SubmitBatch(f.queries, f.excluded);
      ExpectConsistentFunnel(service.metrics(), algorithm,
                             2 * f.queries.size(),
                             "live compacted " + context);
    }
  }
}

/// The funnel row of `algorithm` telescopes and counts `queries` folds.
void ExpectTelescopingFunnel(const obs::Registry& registry,
                             Algorithm algorithm, uint64_t queries,
                             const std::string& context) {
  const obs::RegistrySnapshot snap = registry.Snapshot();
  const std::vector<obs::FunnelRow> funnels = obs::ExtractFunnels(snap);
  ASSERT_EQ(funnels.size(), 1u) << context;
  EXPECT_TRUE(funnels.front().Consistent()) << context;
  EXPECT_GE(snap.counter("engine." + std::string(ToString(algorithm)) +
                         ".funnel.queries"),
            queries)
      << context;
}

TEST(FunnelTest, EmptyQueryFindsNothingWithGbpOnOrOff) {
  // An empty query has no subtrajectory to match. Every algorithm must
  // return no hits for it, with GBP on (the grid yields no candidates) and
  // off (the identity scan would hand every trajectory to a plan bound to
  // an empty query), on an engine and on a service whose delta is not
  // empty, and the funnel must still telescope.
  const FunnelFixture f = MakeFixture();
  constexpr int kBase = 30;
  Dataset dataset("funnel-empty-query");
  for (const Trajectory& t : f.corpus) dataset.Add(t);

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      for (const bool gbp : {true, false}) {
        const std::string context =
            std::string(ToString(algorithm)) + "/" +
            std::string(ToString(spec.kind)) + (gbp ? " gbp" : " no-gbp");
        EngineOptions engine_options =
            MatrixEngineOptions(algorithm, spec, f.cell);
        engine_options.use_gbp = gbp;

        obs::Registry registry;
        EngineOptions options = engine_options;
        options.metrics = &registry;
        const SearchEngine engine(&dataset, options);
        QueryStats stats;
        EXPECT_TRUE(engine.Query(TrajectoryView(), &stats).empty())
            << "engine " << context;
        EXPECT_EQ(stats.candidates_after_gbp, 0) << "engine " << context;
        EXPECT_EQ(stats.searched, 0) << "engine " << context;
        // The engine still answers the next, non-empty query.
        EXPECT_FALSE(engine.Query(f.queries[0]).empty())
            << "engine " << context;
        ExpectTelescopingFunnel(registry, algorithm, 2, "engine " + context);

        ServiceOptions service_options;
        service_options.engine = engine_options;
        service_options.shards = 2;
        service_options.compact_delta_trajectories = 0;
        Dataset base("funnel-empty-query-live");
        for (int i = 0; i < kBase; ++i) {
          base.Add(f.corpus[static_cast<size_t>(i)]);
        }
        QueryService service(std::move(base), service_options);
        std::vector<TrajectoryView> appended;
        for (size_t i = kBase; i < f.corpus.size(); ++i) {
          appended.push_back(f.corpus[i].View());
        }
        service.AppendBatch(appended);
        EXPECT_TRUE(service.Submit(TrajectoryView()).empty())
            << "service " << context;
        EXPECT_FALSE(service.Submit(f.queries[0]).empty())
            << "service " << context;
        ExpectTelescopingFunnel(service.metrics(), algorithm, 2,
                                "service " + context);
      }
    }
  }
}

TEST(FunnelTest, SimdDispatchLeavesTheFunnelUnchanged) {
  // The `engine.<Algorithm>.simd.*` kernel counters live outside the funnel
  // namespace: funnel extraction must still see exactly one row, and the
  // funnel counts themselves must be identical under vector and scalar
  // dispatch (the kernels are bit-identical, so no pruning decision may
  // move). Serial engine + sound bound so the funnel is fully deterministic.
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  const FunnelFixture f = MakeFixture();
  Dataset dataset("funnel-simd");
  for (const Trajectory& t : f.corpus) dataset.Add(t);

  const bool prev = simd::Enabled();
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    const std::string context = "ExactS/" + std::string(ToString(spec.kind));
    obs::FunnelRow rows[2];
    uint64_t vector_cells[2] = {0, 0};
    uint64_t scalar_cells[2] = {0, 0};
    for (const int mode : {0, 1}) {  // 0 = vector dispatch, 1 = scalar
      simd::SetEnabled(mode == 0);
      obs::Registry registry;
      EngineOptions options =
          MatrixEngineOptions(Algorithm::kExactS, spec, f.cell);
      options.threads = 1;
      options.sample_rate = 1.0;
      options.metrics = &registry;
      const SearchEngine engine(&dataset, options);
      uint64_t stats_vector_cells = 0;
      for (size_t qi = 0; qi < f.queries.size(); ++qi) {
        QueryStats stats;
        engine.Query(f.queries[qi], &stats, f.excluded[qi]);
        stats_vector_cells += stats.simd_vector_cells;
      }
      const obs::RegistrySnapshot snap = registry.Snapshot();
      const std::vector<obs::FunnelRow> funnels = obs::ExtractFunnels(snap);
      ASSERT_EQ(funnels.size(), 1u) << context;  // simd.* is not a funnel
      rows[mode] = funnels.front();
      vector_cells[mode] = snap.counter("engine.ExactS.simd.vector_cells");
      scalar_cells[mode] = snap.counter("engine.ExactS.simd.scalar_cells");
      EXPECT_EQ(stats_vector_cells, vector_cells[mode]) << context;
    }
    simd::SetEnabled(prev);
    // Vector dispatch really ran lane groups; scalar dispatch ran none.
    EXPECT_GT(vector_cells[0], 0u) << context;
    EXPECT_EQ(vector_cells[1], 0u) << context;
    EXPECT_GT(scalar_cells[1], 0u) << context;
    // Same total DP work either way, just split across the two kernels.
    EXPECT_EQ(vector_cells[0] + scalar_cells[0], scalar_cells[1]) << context;
    // And the pruning funnel itself is dispatch-invariant.
    EXPECT_EQ(rows[0].candidates, rows[1].candidates) << context;
    EXPECT_EQ(rows[0].skipped, rows[1].skipped) << context;
    EXPECT_EQ(rows[0].bound_pruned, rows[1].bound_pruned) << context;
    EXPECT_EQ(rows[0].dp_runs, rows[1].dp_runs) << context;
    EXPECT_EQ(rows[0].dp_abandoned, rows[1].dp_abandoned) << context;
    EXPECT_EQ(rows[0].dp_completed, rows[1].dp_completed) << context;
  }
}

TEST(FunnelTest, CmaCrossCandidateBatchingKeepsHitsAndFunnelInvariant) {
  // CMA's cross-candidate lane kernel defers a worker's candidates to its
  // window flush, then offers each result as its lane finishes and refills
  // the lane. Under a sound bound that must leave the hits and every pre-DP
  // funnel stage (candidates, skipped, bound_pruned, dp_runs) bit-identical
  // to scalar dispatch; only the abandoned/completed *split* of dp_runs may
  // shift (a cutoff read at lane start is at most as tight as the
  // per-candidate captures), and the telescoping identities must hold in
  // both modes. Lane abandons and refills land in the simd.* namespace,
  // outside the funnel.
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  const FunnelFixture f = MakeFixture();
  Dataset dataset("funnel-cma-batch");
  for (const Trajectory& t : f.corpus) dataset.Add(t);

  const bool prev = simd::Enabled();
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    const std::string context = "CMA/" + std::string(ToString(spec.kind));
    obs::FunnelRow rows[2];
    std::vector<std::vector<EngineHit>> hits(2);
    uint64_t lane_abandons[2] = {0, 0};
    uint64_t lane_refills[2] = {0, 0};
    for (const int mode : {0, 1}) {  // 0 = batched dispatch, 1 = scalar
      simd::SetEnabled(mode == 0);
      obs::Registry registry;
      EngineOptions options =
          MatrixEngineOptions(Algorithm::kCma, spec, f.cell);
      options.threads = 1;
      options.sample_rate = 1.0;  // sound bound: deferral is result-identical
      options.metrics = &registry;
      const SearchEngine engine(&dataset, options);
      uint64_t stats_lane_abandons = 0;
      uint64_t stats_lane_refills = 0;
      for (size_t qi = 0; qi < f.queries.size(); ++qi) {
        QueryStats stats;
        for (const EngineHit& hit :
             engine.Query(f.queries[qi], &stats, f.excluded[qi])) {
          hits[static_cast<size_t>(mode)].push_back(hit);
        }
        EXPECT_EQ(stats.candidates_after_gbp,
                  stats.skipped + stats.pruned_by_bound + stats.searched)
            << context;
        EXPECT_EQ(stats.searched,
                  stats.abandoned + (stats.searched - stats.abandoned))
            << context;
        stats_lane_abandons += stats.simd_lane_abandons;
        stats_lane_refills += stats.simd_lane_refills;
      }
      const obs::RegistrySnapshot snap = registry.Snapshot();
      const std::vector<obs::FunnelRow> funnels = obs::ExtractFunnels(snap);
      ASSERT_EQ(funnels.size(), 1u) << context;
      rows[mode] = funnels.front();
      lane_abandons[mode] = snap.counter("engine.CMA.simd.lane_abandons");
      EXPECT_EQ(stats_lane_abandons, lane_abandons[mode]) << context;
      lane_refills[mode] = snap.counter("engine.CMA.simd.lane_refills");
      EXPECT_EQ(stats_lane_refills, lane_refills[mode]) << context;
      EXPECT_TRUE(rows[mode].Consistent()) << context;
    }
    simd::SetEnabled(prev);
    // Identical hits, rank for rank, bit for bit.
    ASSERT_EQ(hits[0].size(), hits[1].size()) << context;
    for (size_t i = 0; i < hits[0].size(); ++i) {
      EXPECT_EQ(hits[0][i].trajectory_id, hits[1][i].trajectory_id)
          << context << " rank " << i;
      EXPECT_EQ(hits[0][i].result.distance, hits[1][i].result.distance)
          << context << " rank " << i;
      EXPECT_EQ(hits[0][i].result.range, hits[1][i].result.range)
          << context << " rank " << i;
    }
    // Pre-DP funnel stages are dispatch-invariant; only the
    // abandoned/completed split may move.
    EXPECT_EQ(rows[0].candidates, rows[1].candidates) << context;
    EXPECT_EQ(rows[0].skipped, rows[1].skipped) << context;
    EXPECT_EQ(rows[0].bound_pruned, rows[1].bound_pruned) << context;
    EXPECT_EQ(rows[0].dp_runs, rows[1].dp_runs) << context;
    // Scalar dispatch never retires or refills lanes.
    EXPECT_EQ(lane_abandons[1], 0u) << context;
    EXPECT_EQ(lane_refills[1], 0u) << context;
  }
}

TEST(FunnelTest, DisabledRegistryFoldsNothing) {
  const FunnelFixture f = MakeFixture();
  Dataset dataset("funnel-disabled");
  for (const Trajectory& t : f.corpus) dataset.Add(t);

  obs::Registry registry;
  registry.set_enabled(false);
  EngineOptions options =
      MatrixEngineOptions(Algorithm::kCma, DistanceSpec::Dtw(), f.cell);
  options.metrics = &registry;
  const SearchEngine engine(&dataset, options);
  engine.Query(f.queries[0], nullptr, f.excluded[0]);
  EXPECT_EQ(registry.Snapshot().counter("engine.CMA.funnel.candidates"), 0u);

  registry.set_enabled(true);
  engine.Query(f.queries[0], nullptr, f.excluded[0]);
  EXPECT_GT(registry.Snapshot().counter("engine.CMA.funnel.candidates"), 0u);
}

}  // namespace
}  // namespace trajsearch
