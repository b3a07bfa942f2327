#include "service/query_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/fingerprint.h"
#include "gen/taxi.h"
#include "gen/workload.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

Dataset WalkDataset(int count, int mean_len, uint64_t seed) {
  Dataset dataset("service-test");
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataset.Add(RandomWalk(
        &rng, mean_len + static_cast<int>(rng.UniformInt(-5, 5))));
  }
  return dataset;
}

/// Engine options whose bound pruning is sound, so sharded results must be
/// bit-identical to the unsharded engine.
EngineOptions SoundOptions(const DistanceSpec& spec, int top_k) {
  EngineOptions options;
  options.spec = spec;
  options.use_gbp = false;
  options.use_kpf = true;
  options.sample_rate = 1.0;
  options.top_k = top_k;
  return options;
}

void ExpectSameHits(const std::vector<EngineHit>& a,
                    const std::vector<EngineHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trajectory_id, b[i].trajectory_id) << "rank " << i;
    EXPECT_EQ(a[i].result.distance, b[i].result.distance) << "rank " << i;
    EXPECT_EQ(a[i].result.range, b[i].result.range) << "rank " << i;
  }
}

TEST(QueryServiceTest, ShardedMatchesUnshardedEngine) {
  const Dataset dataset = WalkDataset(60, 18, 71);
  Rng rng(3);
  const Trajectory query = RandomWalk(&rng, 6);
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    const EngineOptions engine_options = SoundOptions(spec, 5);
    const SearchEngine engine(&dataset, engine_options);
    const std::vector<EngineHit> expected = engine.Query(query);
    for (const int shards : {1, 2, 3, 4, 7}) {
      ServiceOptions options;
      options.engine = engine_options;
      options.shards = shards;
      QueryService service(dataset, options);
      ExpectSameHits(expected, service.Submit(query));
    }
  }
}

TEST(QueryServiceTest, ShardedMatchesUnshardedWithGbp) {
  // GBP enabled with a derived cell size: the service must pin the grid to
  // the full-corpus bbox so shard candidates agree with the global grid.
  const Dataset dataset = WalkDataset(80, 20, 73);
  Rng rng(5);
  const Trajectory query = RandomWalk(&rng, 8);
  EngineOptions engine_options = SoundOptions(DistanceSpec::Dtw(), 5);
  engine_options.use_gbp = true;
  engine_options.mu = 0.1;
  const SearchEngine engine(&dataset, engine_options);
  const std::vector<EngineHit> expected = engine.Query(query);
  for (const int shards : {2, 4, 5}) {
    ServiceOptions options;
    options.engine = engine_options;
    options.shards = shards;
    QueryService service(dataset, options);
    ExpectSameHits(expected, service.Submit(query));
  }
}

TEST(QueryServiceTest, ExcludedIdIsRoutedToItsShard) {
  const Dataset dataset = WalkDataset(30, 15, 79);
  EngineOptions engine_options = SoundOptions(DistanceSpec::Dtw(), 3);
  const SearchEngine engine(&dataset, engine_options);
  ServiceOptions options;
  options.engine = engine_options;
  options.shards = 4;
  QueryService service(dataset, options);
  // Query a slice of trajectory 13; excluding 13 must drop the zero-distance
  // self-hit exactly as in the unsharded engine.
  const TrajectoryView query = dataset[13].Slice(Subrange{2, 9});
  for (const int excluded : {-1, 13, 5}) {
    ExpectSameHits(engine.Query(query, nullptr, excluded),
                   service.Submit(query, excluded));
    for (const EngineHit& hit : service.Submit(query, excluded)) {
      EXPECT_NE(hit.trajectory_id, excluded);
    }
  }
}

TEST(QueryServiceTest, BatchMatchesIndividualSubmission) {
  const Dataset dataset = WalkDataset(40, 16, 83);
  WorkloadOptions wopts;
  wopts.count = 9;
  const Workload workload = SampleQueries(dataset, wopts);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Edr(0.8), 4);
  options.shards = 3;
  options.cache_capacity = 0;  // force every submission to search
  QueryService service(dataset, options);

  std::vector<TrajectoryView> views;
  for (const Trajectory& q : workload.queries) views.push_back(q.View());
  const std::vector<std::vector<EngineHit>> batch =
      service.SubmitBatch(views, workload.source_ids);
  ASSERT_EQ(batch.size(), views.size());
  for (size_t qi = 0; qi < views.size(); ++qi) {
    ExpectSameHits(batch[qi],
                   service.Submit(views[qi], workload.source_ids[qi]));
  }
}

TEST(QueryServiceTest, MoreShardsThanTrajectoriesClamps) {
  const Dataset dataset = WalkDataset(3, 12, 89);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 2);
  options.shards = 16;
  QueryService service(dataset, options);
  EXPECT_EQ(service.shard_count(), 3);
  Rng rng(7);
  const Trajectory query = RandomWalk(&rng, 5);
  const SearchEngine engine(&dataset, options.engine);
  ExpectSameHits(engine.Query(query), service.Submit(query));
}

TEST(QueryServiceTest, CacheHitsOnRepeatedQuery) {
  const Dataset dataset = WalkDataset(25, 14, 97);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 3);
  options.shards = 2;
  options.cache_capacity = 8;
  QueryService service(dataset, options);
  Rng rng(9);
  const Trajectory query = RandomWalk(&rng, 6);

  const std::vector<EngineHit> first = service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 0u);
  EXPECT_EQ(service.Stats().cache_misses, 1u);

  const std::vector<EngineHit> second = service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(service.Stats().cache_misses, 1u);
  ExpectSameHits(first, second);

  // A different exclusion id is a different logical query.
  service.Submit(query, 0);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(service.Stats().cache_misses, 2u);

  // ClearCache invalidates.
  service.ClearCache();
  service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(service.Stats().cache_misses, 3u);
}

TEST(QueryServiceTest, DuplicateQueriesInOneBatchAreCoalesced) {
  const Dataset dataset = WalkDataset(30, 14, 99);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 3);
  options.shards = 2;
  options.cache_capacity = 16;
  QueryService service(dataset, options);
  Rng rng(21);
  const Trajectory a = RandomWalk(&rng, 6);
  const Trajectory b = RandomWalk(&rng, 6);

  // a appears three times, b twice: one batch must search each once and
  // copy the result to the duplicates, counting them as cache hits.
  const std::vector<std::vector<EngineHit>> batch = service.SubmitBatch(
      {a.View(), b.View(), a.View(), a.View(), b.View()});
  ExpectSameHits(batch[0], batch[2]);
  ExpectSameHits(batch[0], batch[3]);
  ExpectSameHits(batch[1], batch[4]);
  EXPECT_EQ(service.Stats().cache_misses, 2u);  // one per distinct query
  EXPECT_EQ(service.Stats().cache_hits, 3u);    // the three duplicates
  EXPECT_EQ(service.Stats().queries, 5u);

  // The coalesced results are real: identical to the unsharded engine.
  const SearchEngine engine(&dataset, options.engine);
  ExpectSameHits(batch[2], engine.Query(a));
  ExpectSameHits(batch[4], engine.Query(b));

  // A duplicate with a *different* exclusion id is a different logical
  // query and must not be coalesced.
  const std::vector<std::vector<EngineHit>> excl =
      service.SubmitBatch({a.View(), a.View()}, {-1, 0});
  EXPECT_EQ(service.Stats().cache_misses, 3u);  // (a, excl 0) searched
  ExpectSameHits(excl[1], engine.Query(a, nullptr, 0));
}

TEST(QueryServiceTest, AppendInvalidatesStaleCachedResults) {
  // Regression test for generation-stamped cache keys: before PR 5, cache
  // keys ignored corpus identity beyond the initial fingerprint, so a
  // cached hit could be replayed after an append that changes the answer.
  const Dataset dataset = WalkDataset(25, 14, 131);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 1);
  options.engine.use_gbp = true;  // exercise the delta grid too
  options.engine.mu = 0.2;
  options.shards = 2;
  options.cache_capacity = 16;
  options.compact_delta_trajectories = 0;
  QueryService service(dataset, options);

  // A trajectory far from the corpus; its own slice is the query.
  Rng rng(33);
  Trajectory novel = RandomWalk(&rng, 12);
  for (Point& p : novel.points()) {
    p.x += 500.0;
    p.y += 500.0;
  }
  const TrajectoryView query = novel.Slice(Subrange{2, 9});

  const std::vector<EngineHit> before = service.Submit(query);
  EXPECT_EQ(service.Stats().cache_misses, 1u);

  // The appended trajectory contains the query verbatim: it must displace
  // whatever the old corpus answered, not the stale cached entry.
  const int id = service.Append(novel);
  const std::vector<EngineHit> after = service.Submit(query);
  EXPECT_EQ(service.Stats().cache_misses, 2u);  // append changed the key
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0].trajectory_id, id);
  EXPECT_EQ(after[0].result.distance, 0.0);
  if (!before.empty()) {
    EXPECT_NE(before[0].trajectory_id, id);
  }

  // The post-append result is itself cached under the new generation...
  service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  // ...and survives compaction (content-neutral: the ingest stamp is kept).
  ASSERT_TRUE(service.Compact());
  const std::vector<EngineHit> compacted = service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 2u);
  ASSERT_FALSE(compacted.empty());
  EXPECT_EQ(compacted[0].trajectory_id, id);
}

TEST(QueryServiceTest, CompactionUnlocksRequestedShards) {
  // shards is clamped per generation: a 3-trajectory base caps at 3 shards,
  // and a compaction that grows the base re-partitions up to the request.
  const Dataset dataset = WalkDataset(3, 12, 137);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 2);
  options.shards = 6;
  options.compact_delta_trajectories = 0;
  QueryService service(dataset, options);
  EXPECT_EQ(service.shard_count(), 3);
  Rng rng(35);
  std::vector<Trajectory> extra;
  for (int i = 0; i < 9; ++i) extra.push_back(RandomWalk(&rng, 10));
  for (const Trajectory& t : extra) service.Append(t);
  EXPECT_EQ(service.shard_count(), 3);  // delta is not sharded
  ASSERT_TRUE(service.Compact());
  EXPECT_EQ(service.shard_count(), 6);

  const Trajectory query = RandomWalk(&rng, 5);
  Dataset flat = WalkDataset(3, 12, 137);
  for (const Trajectory& t : extra) flat.Add(t);
  const SearchEngine engine(&flat, options.engine);
  ExpectSameHits(engine.Query(query), service.Submit(query));
}

TEST(QueryServiceTest, CacheEvictsLeastRecentlyUsed) {
  const Dataset dataset = WalkDataset(20, 14, 101);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 2);
  options.shards = 2;
  options.cache_capacity = 2;
  QueryService service(dataset, options);
  Rng rng(11);
  const Trajectory a = RandomWalk(&rng, 6);
  const Trajectory b = RandomWalk(&rng, 6);
  const Trajectory c = RandomWalk(&rng, 6);

  service.Submit(a);  // cache: [a]
  service.Submit(b);  // cache: [b, a]
  service.Submit(a);  // hit; cache: [a, b]
  service.Submit(c);  // evicts b; cache: [c, a]
  EXPECT_EQ(service.Stats().cache_evictions, 1u);
  service.Submit(b);  // must be a miss again
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(service.Stats().cache_misses, 4u);
}

TEST(QueryServiceTest, ZeroCapacityDisablesCaching) {
  const Dataset dataset = WalkDataset(15, 12, 103);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 2);
  options.cache_capacity = 0;
  QueryService service(dataset, options);
  Rng rng(13);
  const Trajectory query = RandomWalk(&rng, 5);
  service.Submit(query);
  service.Submit(query);
  EXPECT_EQ(service.Stats().cache_hits, 0u);
  EXPECT_EQ(service.Stats().cache_misses, 0u);
  EXPECT_EQ(service.Stats().queries, 2u);
}

TEST(QueryServiceTest, StatsCountQueriesAndBatches) {
  const Dataset dataset = WalkDataset(15, 12, 107);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 2);
  options.shards = 2;
  QueryService service(dataset, options);
  Rng rng(15);
  const Trajectory a = RandomWalk(&rng, 5);
  const Trajectory b = RandomWalk(&rng, 5);
  service.SubmitBatch({a.View(), b.View()});
  service.Submit(a);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);  // a was cached by the batch
  // The two cache misses actually hit the shard engines, so the engine-time
  // split accumulated; with KPF on, the misses ran pair searches.
  EXPECT_GT(stats.pair_search_seconds, 0.0);
  EXPECT_GE(stats.prune_seconds, stats.bound_seconds);
}

TEST(QueryServiceTest, ConcurrentSubmittersAreSafe) {
  const Dataset dataset = WalkDataset(30, 14, 109);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 3);
  options.shards = 2;
  options.worker_threads = 3;
  options.cache_capacity = 16;
  QueryService service(dataset, options);
  const SearchEngine engine(&dataset, options.engine);

  Rng rng(17);
  std::vector<Trajectory> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(RandomWalk(&rng, 6));
  std::vector<std::vector<EngineHit>> expected;
  for (const Trajectory& q : queries) expected.push_back(engine.Query(q));

  std::vector<std::thread> submitters;
  std::vector<int> mismatches(queries.size(), 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    submitters.emplace_back([&, qi]() {
      for (int round = 0; round < 5; ++round) {
        const std::vector<EngineHit> hits = service.Submit(queries[qi]);
        if (hits.size() != expected[qi].size()) {
          ++mismatches[qi];
          continue;
        }
        for (size_t i = 0; i < hits.size(); ++i) {
          if (hits[i].trajectory_id != expected[qi][i].trajectory_id ||
              hits[i].result.distance != expected[qi][i].result.distance) {
            ++mismatches[qi];
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(mismatches[qi], 0) << "query " << qi;
  }
  EXPECT_EQ(service.Stats().queries, 30u);
}

TEST(QueryServiceTest, TrajectoryAccessorRoutesToShards) {
  const Dataset dataset = WalkDataset(17, 10, 113);
  ServiceOptions options;
  options.engine = SoundOptions(DistanceSpec::Dtw(), 1);
  options.shards = 4;
  QueryService service(dataset, options);
  ASSERT_EQ(service.corpus_size(), dataset.size());
  for (int id = 0; id < dataset.size(); ++id) {
    EXPECT_EQ(service.trajectory(id).id(), id);
    EXPECT_EQ(Fingerprint(service.trajectory(id).View()),
              Fingerprint(dataset[id].View()))
        << "corpus id " << id;
  }
}

TEST(EngineOptionsFingerprintTest, HashesWedTableContentNotAddress) {
  // Two content-equal WED cost tables at different addresses must produce
  // equal fingerprints (the pre-PR-4 pointer hash made cache keys
  // ASLR-dependent across runs and collided when a content-different table
  // was later allocated at a recycled address).
  auto make_table = []() {
    auto table = std::make_unique<WedCostFns>();
    table->sub = [](const Point& a, const Point& b) {
      return EuclideanDistance(a, b);
    };
    table->ins = [](const Point&) { return 2.0; };
    table->del = [](const Point&) { return 3.0; };
    return table;
  };
  const auto table_a = make_table();
  const auto table_b = make_table();
  ASSERT_NE(table_a.get(), table_b.get());

  EngineOptions a;
  a.spec = DistanceSpec::Wed(table_a.get());
  EngineOptions b;
  b.spec = DistanceSpec::Wed(table_b.get());
  EXPECT_EQ(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));

  // A behaviourally different table must fingerprint apart, even at the
  // same address (recycled allocation).
  auto different = std::make_unique<WedCostFns>(*table_a);
  different->ins = [](const Point&) { return 7.0; };
  EngineOptions c;
  c.spec = DistanceSpec::Wed(different.get());
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(c));

  // No table at all is its own case.
  EngineOptions none;
  none.spec = DistanceSpec::Dtw();
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(none));
}

TEST(EngineOptionsFingerprintTest, HashesRlsPolicyContentNotAddress) {
  RlsOptions rls_options;
  rls_options.allow_skip = true;
  const auto policy_a = std::make_unique<RlsPolicy>(rls_options);
  const auto policy_b = std::make_unique<RlsPolicy>(rls_options);
  ASSERT_NE(policy_a.get(), policy_b.get());

  EngineOptions a;
  a.algorithm = Algorithm::kRlsSkip;
  a.rls_policy = policy_a.get();
  EngineOptions b = a;
  b.rls_policy = policy_b.get();
  EXPECT_EQ(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));

  // Training changes the weights, so a trained policy fingerprints apart.
  Rng rng(31);
  const Trajectory q = RandomWalk(&rng, 6);
  const Trajectory d = RandomWalk(&rng, 20);
  const RlsPolicy trained = TrainRlsPolicy(
      DistanceSpec::Dtw(), {{q.View(), d.View()}}, rls_options);
  EngineOptions c = a;
  c.rls_policy = &trained;
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(c));

  // Skip configuration is inference-relevant content too.
  RlsOptions no_skip = rls_options;
  no_skip.allow_skip = false;
  const RlsPolicy plain(no_skip);
  EngineOptions e = a;
  e.rls_policy = &plain;
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(e));
}

TEST(EngineOptionsFingerprintTest, SchedulingFieldsDoNotChangeFingerprint) {
  EngineOptions a;
  EngineOptions b = a;
  b.threads = 8;
  b.use_early_abandon = false;
  b.order_candidates = false;
  EXPECT_EQ(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));
  b.top_k = a.top_k + 1;  // a result-changing field still separates
  EXPECT_NE(EngineOptionsFingerprint(a), EngineOptionsFingerprint(b));
}

}  // namespace
}  // namespace trajsearch
