// Execution-model equivalence: the Bind/Run query plans (bind-once state,
// shared scratch arenas, bound-aware early abandoning) must be hit-for-hit
// identical to the pre-refactor stateless search path.
//
//  * Engine matrix: SearchEngine (Bind+Run with the live heap cutoff) vs
//    LegacySearchEngine (tests/legacy_baseline.h: stateless per-pair entry
//    points, stateless KPF/OSF bounds, hash-map GBP) across all 8 algorithms
//    x 4 GPS distances x GBP/KPF/OSF toggles.
//  * Plan cutoff contract: for exact algorithms, Run(data, cutoff) returns
//    the stateless result whenever that result beats the cutoff, and never
//    fabricates a result below a cutoff that the stateless optimum misses;
//    approximate algorithms ignore the cutoff entirely.
//  * Plan reuse: one QueryRun rebound across different queries returns
//    exactly what fresh plans return (no scratch leakage between binds).
//  * KpfBoundPlan reproduces the stateless KPF/OSF bounds bit for bit.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "prune/key_point_filter.h"
#include "search/engine.h"
#include "search/searcher.h"
#include "service/query_service.h"
#include "tests/legacy_baseline.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::LegacySearchEngine;
using testing::LegacyStatelessSearch;
using testing::RandomWalk;

const Algorithm kAllAlgorithms[] = {
    Algorithm::kCma,    Algorithm::kExactS,
    Algorithm::kSpring, Algorithm::kGreedyBacktracking,
    Algorithm::kPos,    Algorithm::kPss,
    Algorithm::kRls,    Algorithm::kRlsSkip,
};

Dataset WalkDataset(int count, int mean_len, uint64_t seed) {
  Dataset dataset("plan-test");
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataset.Add(RandomWalk(
        &rng, mean_len + static_cast<int>(rng.UniformInt(-5, 5))));
  }
  return dataset;
}

void ExpectIdenticalHits(const std::vector<EngineHit>& plan,
                         const std::vector<EngineHit>& legacy,
                         const std::string& label) {
  ASSERT_EQ(plan.size(), legacy.size()) << label;
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].trajectory_id, legacy[i].trajectory_id)
        << label << " rank " << i;
    // Bitwise equality: the plans must run the same arithmetic, not merely
    // land near it.
    EXPECT_EQ(plan[i].result.distance, legacy[i].result.distance)
        << label << " rank " << i;
    EXPECT_EQ(plan[i].result.range, legacy[i].result.range)
        << label << " rank " << i;
  }
}

class PlanEngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanEngineEquivalenceTest, EngineMatchesLegacyStatelessPath) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 71 + 13;
  const Dataset dataset = WalkDataset(30, 16, seed);
  Rng rng(seed + 1);
  const Trajectory query = RandomWalk(&rng, 6);

  // GBP x (KPF | OSF | neither); (kpf, osf) = (true, true) is not distinct
  // because OSF replaces KPF when both are set.
  struct Toggle {
    bool gbp, kpf, osf;
  };
  const Toggle toggles[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, false},   {false, false, true}, {true, false, true},
  };
  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      for (const Toggle& t : toggles) {
        EngineOptions options;
        options.spec = spec;
        options.algorithm = algorithm;
        options.use_gbp = t.gbp;
        options.use_kpf = t.kpf;
        options.use_osf = t.osf;
        options.mu = 0.2;
        options.sample_rate = 0.5;  // sampled KPF estimate
        options.top_k = 3;
        // The legacy baseline evaluates candidates in ascending id order;
        // under a *sampled* (unsound) KPF estimate the evaluation order can
        // change which candidates the estimate prunes, so pin the engine to
        // the same order here. The sound-bound matrix below gates the
        // default most-promising-first ordering instead.
        options.order_candidates = false;
        const SearchEngine engine(&dataset, options);
        const LegacySearchEngine legacy(&dataset, options);
        const std::string label =
            std::string(ToString(algorithm)) + "/" +
            std::string(ToString(spec.kind)) + " gbp=" +
            std::to_string(t.gbp) + " kpf=" + std::to_string(t.kpf) +
            " osf=" + std::to_string(t.osf);
        ExpectIdenticalHits(engine.Query(query), legacy.Query(query), label);
        ExpectIdenticalHits(engine.Query(query, nullptr, 3),
                            legacy.Query(query, 3), label + " excl");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEngineEquivalenceTest,
                         ::testing::Range(0, 3));

TEST(PlanEngineEquivalenceTest, ThreadedEngineWithCutoffMatchesLegacy) {
  const Dataset dataset = WalkDataset(50, 18, 901);
  Rng rng(902);
  const Trajectory query = RandomWalk(&rng, 7);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    EngineOptions options;
    options.spec = spec;
    options.use_gbp = false;
    options.use_kpf = true;
    options.sample_rate = 1.0;
    options.top_k = 5;
    options.threads = 4;
    const SearchEngine engine(&dataset, options);
    const LegacySearchEngine legacy(&dataset, options);
    ExpectIdenticalHits(engine.Query(query), legacy.Query(query),
                        std::string("threaded/") +
                            std::string(ToString(spec.kind)));
  }
}

// Shared-threshold matrix: the default execution model — one SharedTopK per
// query (global cutoff across all workers and, through the service, all
// shards), candidates ordered most-promising-first, chunked worker tasks on
// the shared scheduler pool — must stay hit-for-hit identical to the serial
// PR-2 legacy baseline across all 8 algorithms x 4 GPS distances whenever
// the bound is sound (KPF at sample_rate 1.0). Exercised with threads > 1
// on the unsharded engine AND shards > 1 x threads > 1 through the
// QueryService, against the same LegacySearchEngine reference.
class SharedThresholdMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedThresholdMatrixTest, ThreadedAndShardedMatchLegacy) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 137 + 29;
  const Dataset dataset = WalkDataset(48, 17, seed);
  Rng rng(seed + 1);
  const Trajectory query = RandomWalk(&rng, 7);

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      EngineOptions options;
      options.spec = spec;
      options.algorithm = algorithm;
      options.use_gbp = true;
      options.mu = 0.2;
      options.use_kpf = true;
      options.sample_rate = 1.0;  // sound bound: order/threads cannot matter
      options.top_k = 4;
      options.threads = 3;
      ASSERT_TRUE(options.order_candidates);  // the default under test
      const LegacySearchEngine legacy(&dataset, options);
      const std::string label =
          std::string(ToString(algorithm)) + "/" +
          std::string(ToString(spec.kind));

      const SearchEngine engine(&dataset, options);
      ExpectIdenticalHits(engine.Query(query), legacy.Query(query),
                          label + " threaded");
      ExpectIdenticalHits(engine.Query(query, nullptr, 5),
                          legacy.Query(query, 5), label + " threaded excl");

      ServiceOptions service_options;
      service_options.engine = options;
      service_options.shards = 3;
      service_options.cache_capacity = 0;
      QueryService service(dataset, service_options);
      ExpectIdenticalHits(service.Submit(query), legacy.Query(query),
                          label + " sharded");
      ExpectIdenticalHits(service.Submit(query, 5), legacy.Query(query, 5),
                          label + " sharded excl");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedThresholdMatrixTest,
                         ::testing::Range(0, 2));

TEST(PlanCutoffTest, ExactPlansAreExactBelowTheCutoff) {
  Rng rng(501);
  for (const Algorithm algorithm :
       {Algorithm::kCma, Algorithm::kExactS, Algorithm::kSpring,
        Algorithm::kGreedyBacktracking}) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      auto searcher = MakeSearcher(algorithm, spec);
      ASSERT_TRUE(searcher.ok());
      std::unique_ptr<QueryRun> plan = searcher.value()->NewRun();
      for (int round = 0; round < 6; ++round) {
        const Trajectory query = RandomWalk(&rng, 5 + round % 3);
        const Trajectory data = RandomWalk(&rng, 20 + round);
        const SearchResult reference = LegacyStatelessSearch(
            algorithm, spec, nullptr, query, data);
        plan->Bind(query);
        const std::string label = std::string(ToString(algorithm)) + "/" +
                                  std::string(ToString(spec.kind)) +
                                  " round " + std::to_string(round);
        // Cutoffs straddling the optimum, plus no-cutoff.
        const double cutoffs[] = {reference.distance * 0.5,
                                  reference.distance,
                                  reference.distance * 1.5 + 1e-6,
                                  kNoCutoff};
        for (const double cutoff : cutoffs) {
          const SearchResult got = plan->Run(data, cutoff);
          if (reference.distance < cutoff) {
            EXPECT_EQ(got.distance, reference.distance) << label;
            EXPECT_EQ(got.range, reference.range) << label;
          } else {
            // Nothing below the cutoff exists; whatever is reported must
            // itself be at or above it (or the not-found sentinel).
            EXPECT_GE(got.distance, cutoff) << label;
          }
        }
      }
    }
  }
}

TEST(PlanCutoffTest, ApproximatePlansIgnoreTheCutoff) {
  Rng rng(601);
  for (const Algorithm algorithm :
       {Algorithm::kPos, Algorithm::kPss, Algorithm::kRls,
        Algorithm::kRlsSkip}) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      auto searcher = MakeSearcher(algorithm, spec);
      ASSERT_TRUE(searcher.ok());
      std::unique_ptr<QueryRun> plan = searcher.value()->NewRun();
      for (int round = 0; round < 4; ++round) {
        const Trajectory query = RandomWalk(&rng, 5);
        const Trajectory data = RandomWalk(&rng, 24);
        const SearchResult reference =
            searcher.value()->Search(query, data);
        plan->Bind(query);
        for (const double cutoff : {0.0, reference.distance * 0.5, kNoCutoff}) {
          const SearchResult got = plan->Run(data, cutoff);
          EXPECT_EQ(got.distance, reference.distance)
              << ToString(algorithm) << "/" << ToString(spec.kind)
              << " cutoff " << cutoff;
          EXPECT_EQ(got.range, reference.range)
              << ToString(algorithm) << "/" << ToString(spec.kind);
        }
      }
    }
  }
}

TEST(PlanReuseTest, ReboundPlanMatchesFreshPlansAcrossQueries) {
  Rng rng(701);
  std::vector<Trajectory> queries;
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomWalk(&rng, 4 + i * 3));
  for (int i = 0; i < 5; ++i) corpus.push_back(RandomWalk(&rng, 18 + i));

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      auto searcher = MakeSearcher(algorithm, spec);
      ASSERT_TRUE(searcher.ok());
      std::unique_ptr<QueryRun> reused = searcher.value()->NewRun();
      // Back-to-back different queries through one plan, including a return
      // to an earlier query, so stale scratch from a longer bind would show.
      const int order[] = {0, 1, 2, 0, 2, 1};
      for (const int qi : order) {
        reused->Bind(queries[static_cast<size_t>(qi)]);
        for (const Trajectory& data : corpus) {
          const SearchResult expected = searcher.value()->Search(
              queries[static_cast<size_t>(qi)], data);
          const SearchResult got = reused->Run(data, kNoCutoff);
          EXPECT_EQ(got.distance, expected.distance)
              << ToString(algorithm) << "/" << ToString(spec.kind)
              << " query " << qi;
          EXPECT_EQ(got.range, expected.range)
              << ToString(algorithm) << "/" << ToString(spec.kind)
              << " query " << qi;
        }
      }
    }
  }
}

/// Scoped override of the runtime SIMD dispatch switch. Plans capture the
/// dispatch mode at Bind — which happens inside Query/Submit — so toggling
/// between calls on the same engine flips every stepper built afterwards.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(bool on) : prev_(simd::Enabled()) {
    simd::SetEnabled(on);
  }
  ~SimdModeGuard() { simd::SetEnabled(prev_); }

 private:
  bool prev_;
};

// SIMD identity gate, engine level: the vectorized column kernels must leave
// every engine result bit-identical to the scalar dispatch path — same hit
// ids, same distances, same ranges — across all 8 algorithms x 4 GPS
// distances, with early abandoning on and off, threads > 1, and (below)
// shards > 1 over live and compacted corpora.
class SimdDispatchMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdDispatchMatrixTest, VectorAndScalarDispatchBitIdentical) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 211 + 17;
  const Dataset dataset = WalkDataset(40, 18, seed);
  Rng rng(seed + 1);
  const Trajectory query = RandomWalk(&rng, 7);

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      for (const bool abandon : {true, false}) {
        EngineOptions options;
        options.spec = spec;
        options.algorithm = algorithm;
        options.use_gbp = true;
        options.mu = 0.2;
        options.use_kpf = true;
        options.sample_rate = 1.0;  // sound bound: dispatch cannot reorder
        options.top_k = 4;
        options.threads = 3;
        options.use_early_abandon = abandon;
        const SearchEngine engine(&dataset, options);
        std::vector<EngineHit> vec_hits, scalar_hits;
        {
          SimdModeGuard simd_on(true);
          vec_hits = engine.Query(query);
        }
        {
          SimdModeGuard simd_off(false);
          scalar_hits = engine.Query(query);
        }
        ExpectIdenticalHits(vec_hits, scalar_hits,
                            std::string(ToString(algorithm)) + "/" +
                                std::string(ToString(spec.kind)) +
                                " abandon=" + std::to_string(abandon));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdDispatchMatrixTest,
                         ::testing::Range(0, 2));

TEST(SimdDispatchLiveTest, LiveDeltaAndCompactedCorporaBitIdentical) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  Rng rng(4711);
  const Trajectory query = RandomWalk(&rng, 7);
  std::vector<Trajectory> appended;
  std::vector<TrajectoryView> append_views;
  for (int i = 0; i < 10; ++i) {
    appended.push_back(RandomWalk(&rng, 14 + i % 5));
    append_views.push_back(appended.back().View());
  }

  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      ServiceOptions service_options;
      service_options.engine.spec = spec;
      service_options.engine.algorithm = algorithm;
      service_options.engine.use_kpf = true;
      service_options.engine.sample_rate = 1.0;
      service_options.engine.top_k = 4;
      service_options.engine.threads = 2;
      service_options.shards = 3;
      service_options.cache_capacity = 0;  // every Submit really searches
      service_options.compact_delta_trajectories = 0;
      QueryService service(WalkDataset(36, 16, 4712), service_options);
      service.AppendBatch(append_views);  // live delta alongside the base
      const std::string label = std::string(ToString(algorithm)) + "/" +
                                std::string(ToString(spec.kind));

      std::vector<EngineHit> vec_hits, scalar_hits;
      {
        SimdModeGuard simd_on(true);
        vec_hits = service.Submit(query);
      }
      {
        SimdModeGuard simd_off(false);
        scalar_hits = service.Submit(query);
      }
      ExpectIdenticalHits(vec_hits, scalar_hits, label + " live-delta");

      ASSERT_TRUE(service.Compact());
      {
        SimdModeGuard simd_on(true);
        vec_hits = service.Submit(query);
      }
      {
        SimdModeGuard simd_off(false);
        scalar_hits = service.Submit(query);
      }
      ExpectIdenticalHits(vec_hits, scalar_hits, label + " compacted");
    }
  }
}

TEST(KpfBoundPlanTest, MatchesStatelessBoundsBitForBit) {
  Rng rng(801);
  KpfBoundPlan plan;
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    for (const double rate : {0.05, 0.3, 1.0}) {
      for (int round = 0; round < 5; ++round) {
        const Trajectory query = RandomWalk(&rng, 4 + round * 2);
        const Trajectory data = RandomWalk(&rng, 25);
        plan.Bind(spec, query, rate);
        EXPECT_EQ(plan.LowerBound(data),
                  KpfLowerBoundEstimate(spec, query, data, rate))
            << ToString(spec.kind) << " rate " << rate;
      }
      // Rebinding at rate 1.0 must agree with the OSF comparator too.
      const Trajectory data = RandomWalk(&rng, 30);
      const Trajectory query = RandomWalk(&rng, 9);
      plan.Bind(spec, query, 1.0);
      EXPECT_EQ(plan.LowerBound(data), OsfLowerBound(spec, query, data))
          << ToString(spec.kind);
    }
  }
}

}  // namespace
}  // namespace trajsearch
