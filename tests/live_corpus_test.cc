// Live-corpus subsystem tests: generational storage invariants (stable
// dense ids, generation pinning, compaction swaps), delta-grid parity with
// the CSR index and prefix parity of capped reads, the hit-for-hit
// equivalence gate (a live corpus after appends and after compaction
// answers exactly like a fresh-built corpus of the same trajectories,
// across the full algorithm x distance matrix with threads > 1 and
// shards > 1, and with +-1e300 coordinates), a concurrent
// ingest/read/compact stress test whose every mid-stream result must be
// exact (run under TSan in CI), and the delta-grid work counter.

#include "core/live_dataset.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/fingerprint.h"
#include "io/snapshot_v4.h"
#include "obs/export.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "search/delta_engine.h"
#include "search/topk.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

void ExpectSamePoints(TrajectoryView a, TrajectoryView b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

void ExpectSameHits(const std::vector<EngineHit>& a,
                    const std::vector<EngineHit>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trajectory_id, b[i].trajectory_id)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.distance, b[i].result.distance)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.range, b[i].result.range)
        << context << " rank " << i;
  }
}

// ---------------------------------------------------------------------------
// LiveDataset
// ---------------------------------------------------------------------------

TEST(LiveDatasetTest, AppendAssignsStableDenseIds) {
  Rng rng(11);
  Dataset base("live");
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 8; ++i) trajs.push_back(RandomWalk(&rng, 10 + i));
  for (int i = 0; i < 5; ++i) base.Add(trajs[static_cast<size_t>(i)]);

  LiveDataset live(std::move(base));
  EXPECT_EQ(live.Append(trajs[5]), 5);
  EXPECT_EQ(live.AppendBatch({trajs[6].View(), trajs[7].View()}),
            (std::vector<int>{6, 7}));

  const CorpusView view = live.View();
  EXPECT_EQ(view.size(), 8);
  EXPECT_EQ(view.base_size(), 5);
  EXPECT_EQ(view.delta_size(), 3);
  for (int id = 0; id < 8; ++id) {
    EXPECT_EQ(view[id].id(), id);
    ExpectSamePoints(view[id].View(), trajs[static_cast<size_t>(id)].View());
  }
}

TEST(LiveDatasetTest, PinnedViewIgnoresLaterAppendsAndCompaction) {
  Rng rng(13);
  Dataset base("pin");
  for (int i = 0; i < 4; ++i) base.Add(RandomWalk(&rng, 12));
  LiveDataset live(std::move(base));
  const Trajectory extra = RandomWalk(&rng, 9);
  live.Append(extra);

  const CorpusView pinned = live.View();
  const uint64_t pinned_fp = Fingerprint(pinned[4].View());
  ASSERT_EQ(pinned.size(), 5);

  // Later appends are invisible to the pinned view.
  live.Append(RandomWalk(&rng, 7));
  EXPECT_EQ(pinned.size(), 5);
  EXPECT_EQ(live.View().size(), 6);

  // A compaction swap does not disturb the pinned view either — its storage
  // stays alive and untouched.
  const CorpusView before = live.View();
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(before));
  live.AdoptBase(merged, before.delta_size());
  EXPECT_EQ(pinned.size(), 5);
  EXPECT_EQ(Fingerprint(pinned[4].View()), pinned_fp);
  EXPECT_EQ(pinned.delta_size(), 1);

  const CorpusView after = live.View();
  EXPECT_EQ(after.base_size(), 6);
  EXPECT_EQ(after.delta_size(), 0);
  EXPECT_EQ(after.base_generation(), 1u);
  // Content unchanged: ingest stamp identical, ids identical.
  EXPECT_EQ(after.ingest_seq(), before.ingest_seq());
  for (int id = 0; id < 6; ++id) {
    ExpectSamePoints(after[id].View(), before[id].View());
  }
}

TEST(LiveDatasetTest, PinnedViewSurvivesTableRegrowthAndAdoptBase) {
  Rng rng(23);
  Dataset base("regrow");
  for (int i = 0; i < 3; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  std::vector<Trajectory> pinned_trajs;
  for (int i = 0; i < 5; ++i) {
    pinned_trajs.push_back(RandomWalk(&rng, 3 + i));
    live.Append(pinned_trajs.back());
  }
  live.Append(Trajectory());  // an empty delta trajectory keeps its slot
  const CorpusView pinned = live.View();
  ASSERT_EQ(pinned.delta_size(), 6);

  // The shared entry table starts at 64 slots and doubles when full: 300
  // more appends move the writer through three regrowths (64 -> 128 -> 256
  // -> 512), then a compaction starts a fresh table.
  std::vector<Trajectory> later;
  for (int i = 0; i < 300; ++i) {
    later.push_back(RandomWalk(&rng, 4));
    live.Append(later.back());
  }
  const CorpusView before = live.View();
  ASSERT_EQ(before.delta_size(), 306);
  for (int i = 0; i < 300; ++i) {  // every regrowth copied every entry
    ExpectSamePoints(before[9 + i].View(),
                     later[static_cast<size_t>(i)].View());
  }
  live.AdoptBase(std::make_shared<const Dataset>(LiveDataset::Merge(before)),
                 before.delta_size());
  live.Append(RandomWalk(&rng, 6));

  EXPECT_EQ(pinned.size(), 9);
  EXPECT_EQ(pinned.delta_size(), 6);
  for (int i = 0; i < 5; ++i) {
    const int id = 3 + i;
    const TrajectoryRef ref = pinned[id];
    EXPECT_EQ(ref.id(), id);
    ExpectSamePoints(ref.View(), pinned_trajs[static_cast<size_t>(i)].View());
  }
  EXPECT_TRUE(pinned[8].View().empty());
  // The later generations read the same trajectories under the same ids.
  const CorpusView now = live.View();
  for (int id = 3; id < 8; ++id) {
    ExpectSamePoints(now[id].View(), pinned[id].View());
  }
}

TEST(LiveDatasetTest, CompactionKeepsSurvivorsInPlace) {
  Rng rng(29);
  Dataset base("reuse");
  base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  // 1,000 points each, so several trajectories share a chunk.
  std::vector<Trajectory> trajs;
  const auto append = [&](int count) {
    for (int i = 0; i < count; ++i) {
      trajs.push_back(RandomWalk(&rng, 1000));
      live.Append(trajs.back());
    }
  };
  const auto expect_all_intact = [&](const CorpusView& view) {
    ASSERT_EQ(view.size(), 1 + static_cast<int>(trajs.size()));
    for (int id = 1; id < view.size(); ++id) {
      ExpectSamePoints(view[id].View(),
                       trajs[static_cast<size_t>(id - 1)].View());
    }
  };

  // Four trajectories fill a 4,096-point chunk. The compactor pins ids
  // 1-6; ids 7-11 race it and survive the swap, 7 and 8 in the chunk they
  // share with compacted 5 and 6, 9-11 in the chunk the writer is filling.
  append(6);
  std::optional<CorpusView> pinned = live.View();
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(*pinned));
  append(5);
  std::set<const Point*> compacted, survivors;
  {
    const CorpusView before = live.View();
    for (int id = 1; id <= 6; ++id) compacted.insert(before[id].View().data());
    for (int id = 7; id <= 11; ++id) survivors.insert(before[id].View().data());
  }
  live.AdoptBase(merged, 6);
  {
    const CorpusView after = live.View();
    ASSERT_EQ(after.delta_size(), 5);
    for (int id = 7; id <= 11; ++id) {
      EXPECT_EQ(survivors.count(after[id].View().data()), 1u) << id;
    }
    expect_all_intact(after);
  }

  // The writer goes on filling the survivors' last chunk (id 12) and then
  // fresh ones. The pinned view still holds the retired table, so the
  // chunks it points into stay allocated and its points intact.
  append(8);
  {
    const CorpusView now = live.View();
    for (int id = 12; id <= 19; ++id) {
      EXPECT_EQ(compacted.count(now[id].View().data()), 0u) << id;
      EXPECT_EQ(survivors.count(now[id].View().data()), 0u) << id;
    }
    expect_all_intact(now);
  }
  for (int id = 1; id <= 6; ++id) {
    ExpectSamePoints((*pinned)[id].View(),
                     trajs[static_cast<size_t>(id - 1)].View());
  }

  // Dropping the last view of the retired table releases the chunk that
  // held only compacted trajectories; the chunks survivors share stay.
  pinned.reset();
  append(8);
  expect_all_intact(live.View());
}

TEST(LiveDatasetTest, AdoptBaseKeepsAppendsThatRacedTheCompactor) {
  Rng rng(17);
  Dataset base("race");
  for (int i = 0; i < 3; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  live.Append(RandomWalk(&rng, 8));  // id 3: compacted below

  // Compactor pins its input...
  const CorpusView pinned = live.View();
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(pinned));
  // ...while two more appends land (ids 4, 5).
  const Trajectory late_a = RandomWalk(&rng, 6);
  const Trajectory late_b = RandomWalk(&rng, 7);
  EXPECT_EQ(live.Append(late_a), 4);
  EXPECT_EQ(live.Append(late_b), 5);

  live.AdoptBase(merged, pinned.delta_size());
  const CorpusView now = live.View();
  EXPECT_EQ(now.base_size(), 4);
  EXPECT_EQ(now.delta_size(), 2);
  EXPECT_EQ(now.size(), 6);
  // The racing appends kept their ids and content.
  ExpectSamePoints(now[4].View(), late_a.View());
  ExpectSamePoints(now[5].View(), late_b.View());
}

TEST(LiveDatasetTest, MergeFlattensWithExactReserves) {
  Rng rng(19);
  Dataset base("merge");
  for (int i = 0; i < 3; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  live.Append(TrajectoryView{});  // empty trajectories are legal
  live.Append(RandomWalk(&rng, 5));

  const CorpusView view = live.View();
  const Dataset merged = LiveDataset::Merge(view);
  ASSERT_EQ(merged.size(), view.size());
  for (int id = 0; id < view.size(); ++id) {
    ExpectSamePoints(merged[id].View(), view[id].View());
  }
  const DatasetStats stats = merged.Stats();
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
}

// ---------------------------------------------------------------------------
// DeltaGridIndex parity with the CSR GridIndex
// ---------------------------------------------------------------------------

TEST(DeltaGridIndexTest, MatchesCsrGridCountsAndCandidates) {
  Rng rng(23);
  Dataset delta_ds("delta");
  DeltaGridIndex delta_grid(0.8);
  for (int i = 0; i < 30; ++i) {
    const Trajectory t = RandomWalk(&rng, 20 + i % 7);
    delta_ds.Add(t);
    delta_grid.Add(t);
  }
  const GridIndex csr(delta_ds, 0.8);
  ASSERT_EQ(delta_grid.size(), delta_ds.size());

  for (int qi = 0; qi < 12; ++qi) {
    const Trajectory query = RandomWalk(&rng, 6 + qi % 5);
    // Close counts must agree entry for entry (same cell geometry, same
    // per-query-point dedupe), so the mu filter and the ordering agree too.
    std::vector<std::pair<int, int>> delta_counts;
    delta_grid.CloseCounts(query, &delta_counts);
    EXPECT_EQ(csr.CloseCounts(query), delta_counts) << "query " << qi;
    for (const double mu : {0.05, 0.3, 0.8}) {
      std::vector<int> csr_ids, delta_ids;
      csr.Candidates(query, mu, &csr_ids);
      delta_grid.Candidates(query, mu, &delta_ids);
      EXPECT_EQ(csr_ids, delta_ids) << "query " << qi << " mu " << mu;
      csr.OrderedCandidates(query, mu, &csr_ids);
      delta_grid.OrderedCandidates(query, mu, &delta_ids);
      EXPECT_EQ(csr_ids, delta_ids) << "query " << qi << " mu " << mu;
    }
  }
}

TEST(DeltaGridIndexTest, CopyIsIndependentOfLaterAdds) {
  Rng rng(29);
  DeltaGridIndex master(1.0);
  master.Add(RandomWalk(&rng, 15));
  const DeltaGridIndex snapshot = master;  // deep copy, not a view
  master.Add(RandomWalk(&rng, 15));
  EXPECT_EQ(snapshot.size(), 1);
  EXPECT_EQ(master.size(), 2);
  const Trajectory query = RandomWalk(&rng, 5);
  std::vector<std::pair<int, int>> counts;
  snapshot.CloseCounts(query, &counts);
  for (const auto& [id, count] : counts) EXPECT_LT(id, 1);
}

/// A read capped at `limit = n` sees exactly what a grid over the first n
/// trajectories holds — for every n, including 0 and size() — which is what
/// lets generations of one base share one grid.
TEST(DeltaGridIndexTest, CappedReadsMatchPrefixGrid) {
  for (const uint64_t seed : {31u, 37u, 43u}) {
    Rng rng(seed);
    std::vector<Trajectory> trajs;
    const int count = 16 + static_cast<int>(seed % 5);
    for (int i = 0; i < count; ++i) {
      trajs.push_back(RandomWalk(&rng, 8 + i % 9));
    }
    std::vector<Trajectory> queries;
    for (int i = 0; i < 6; ++i) queries.push_back(RandomWalk(&rng, 5 + i));
    // A slice of a late trajectory: its source must vanish below the cap.
    queries.push_back(Trajectory(trajs.back().Slice(Subrange{0, 4})));

    DeltaGridIndex full(0.9);
    for (const Trajectory& t : trajs) full.Add(t);
    for (int n = 0; n <= count; ++n) {
      DeltaGridIndex prefix(0.9);
      for (int i = 0; i < n; ++i) prefix.Add(trajs[static_cast<size_t>(i)]);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const std::string context = "seed " + std::to_string(seed) + " n " +
                                    std::to_string(n) + " query " +
                                    std::to_string(qi);
        std::vector<std::pair<int, int>> capped_counts, prefix_counts;
        full.CloseCounts(queries[qi], &capped_counts, n);
        prefix.CloseCounts(queries[qi], &prefix_counts);
        EXPECT_EQ(capped_counts, prefix_counts) << context;
        for (const double mu : {0.0, 0.3, 0.8}) {
          std::vector<int> capped_ids, prefix_ids;
          full.Candidates(queries[qi], mu, &capped_ids, n);
          prefix.Candidates(queries[qi], mu, &prefix_ids);
          EXPECT_EQ(capped_ids, prefix_ids) << context << " mu " << mu;
          full.OrderedCandidates(queries[qi], mu, &capped_ids, n);
          prefix.OrderedCandidates(queries[qi], mu, &prefix_ids);
          EXPECT_EQ(capped_ids, prefix_ids) << context << " mu " << mu;
        }
      }
    }
  }
}

/// DeltaEngine over an n-prefix DeltaView answers identically whether its
/// grid indexes exactly those n trajectories or the whole delta (the shared
/// per-base grid a newer generation already extended), across the
/// algorithm x distance matrix of the live equivalence gate; the serving
/// overload (SharedDeltaGrid, caught up further than the view) agrees too.
TEST(DeltaEngineTest, PrefixViewsMatchPrefixGridAcrossMatrix) {
  Rng rng(57);
  LiveDataset live(Dataset("prefix-base"));
  std::vector<Trajectory> trajs;
  std::vector<CorpusView> prefixes{live.View()};
  for (int i = 0; i < 14; ++i) {
    trajs.push_back(RandomWalk(&rng, 10 + i % 6));
    live.Append(trajs.back());
    prefixes.push_back(live.View());
  }
  const DeltaView& whole = prefixes.back().delta();
  const double cell = 1.5;
  DeltaGridIndex full(cell);
  for (const Trajectory& t : trajs) full.Add(t);
  obs::Counter indexed;
  SharedDeltaGrid shared(cell, &indexed);
  shared.CatchUp(whole);
  EXPECT_EQ(indexed.Value(), trajs.size());

  std::vector<Trajectory> queries;
  for (int i = 0; i < 2; ++i) queries.push_back(RandomWalk(&rng, 6));
  queries.push_back(Trajectory(trajs[9].Slice(Subrange{1, 7})));

  const Algorithm algorithms[] = {
      Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
      Algorithm::kGreedyBacktracking, Algorithm::kPos,
      Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};
  for (const Algorithm algorithm : algorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      EngineOptions options;
      options.spec = spec;
      options.algorithm = algorithm;
      options.mu = 0.1;
      options.cell_size = cell;
      options.sample_rate = 1.0;
      options.top_k = 3;
      const DeltaEngine engine(options);
      for (size_t n = 0; n < prefixes.size(); n += 3) {
        const DeltaView& delta = prefixes[n].delta();
        DeltaGridIndex prefix(cell);
        for (size_t i = 0; i < n; ++i) prefix.Add(trajs[i]);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const std::string context =
              std::string(ToString(algorithm)) + "/" +
              std::string(ToString(spec.kind)) + " n " + std::to_string(n) +
              " query " + std::to_string(qi);
          SharedTopK expected(options.top_k), capped(options.top_k),
              served(options.top_k);
          engine.QueryInto(queries[qi], delta, &prefix, &expected, 100);
          engine.QueryInto(queries[qi], delta, &full, &capped, 100);
          engine.QueryInto(queries[qi], delta, &shared, &served, 100);
          const std::vector<EngineHit> want = expected.Sorted();
          ExpectSameHits(want, capped.Sorted(), context + " full grid");
          ExpectSameHits(want, served.Sorted(), context + " shared grid");
          // The delta-slice query must find its source once it is in the
          // prefix (exact algorithms: at distance 0).
          if (qi == 2 && n > 9 && IsExact(algorithm, spec.kind)) {
            ASSERT_FALSE(want.empty()) << context;
            EXPECT_EQ(want[0].trajectory_id, 100 + 9) << context;
            EXPECT_EQ(want[0].result.distance, 0.0) << context;
          }
        }
      }
    }
  }
  // Reads of older views never re-index: the grid was already ahead.
  EXPECT_EQ(indexed.Value(), trajs.size());
}

/// The base engine at threads = 1 and the delta engine run one evaluate
/// stage, so over the same trajectories — once as a base Dataset, once as a
/// delta — they must agree on the hits *and* on the whole funnel: the same
/// candidates in the same order, skipped, pruned, searched and abandoned
/// alike. GBP on compares the CSR grid with the delta grid at one cell side;
/// GBP off compares the identity scans, which both order by the bound.
TEST(DeltaEngineTest, MatchesBaseEngineHitsAndFunnel) {
  Rng rng(61);
  Dataset base("parity-base");
  LiveDataset live(Dataset("parity-live"));
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 60; ++i) {
    trajs.push_back(RandomWalk(&rng, 8 + i % 13));
    base.Add(trajs.back());
    live.Append(trajs.back());
  }
  const CorpusView view = live.View();
  const DeltaView& delta = view.delta();
  ASSERT_EQ(delta.size(), base.size());
  const double cell = 1.0;
  DeltaGridIndex delta_grid(cell);
  for (const Trajectory& t : trajs) delta_grid.Add(t);

  std::vector<Trajectory> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomWalk(&rng, 6 + 2 * i));
  queries.push_back(Trajectory(trajs[17].Slice(Subrange{2, 9})));

  const Algorithm algorithms[] = {
      Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
      Algorithm::kGreedyBacktracking, Algorithm::kPos,
      Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};
  for (const Algorithm algorithm : algorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      for (const bool gbp : {true, false}) {
        for (const bool osf : {false, true}) {
          EngineOptions options;
          options.spec = spec;
          options.algorithm = algorithm;
          options.use_gbp = gbp;
          options.cell_size = cell;
          options.mu = 0.05;
          options.use_kpf = true;
          options.use_osf = osf;
          options.sample_rate = 1.0;  // sound: KPF at r = 1.0, or OSF
          options.top_k = 3;
          options.threads = 1;
          const SearchEngine engine(&base, options);
          const DeltaEngine delta_engine(options);
          for (size_t qi = 0; qi < queries.size(); ++qi) {
            for (const int excluded : {-1, 17}) {
              const std::string context =
                  std::string(ToString(algorithm)) + "/" +
                  std::string(ToString(spec.kind)) +
                  (gbp ? " gbp" : " no-gbp") + (osf ? " osf" : " kpf") +
                  " query " + std::to_string(qi) + " excluded " +
                  std::to_string(excluded);
              QueryStats want, got;
              const std::vector<EngineHit> hits =
                  engine.Query(queries[qi], &want, excluded);
              SharedTopK topk(options.top_k);
              delta_engine.QueryInto(queries[qi], delta,
                                     gbp ? &delta_grid : nullptr, &topk,
                                     /*id_offset=*/0, &got, excluded);
              ExpectSameHits(hits, topk.Sorted(), context);
              EXPECT_EQ(want.candidates_after_gbp, got.candidates_after_gbp)
                  << context;
              EXPECT_EQ(want.skipped, got.skipped) << context;
              EXPECT_EQ(want.pruned_by_bound, got.pruned_by_bound)
                  << context;
              EXPECT_EQ(want.searched, got.searched) << context;
              EXPECT_EQ(want.abandoned, got.abandoned) << context;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence gate: live == fresh-built, full matrix
// ---------------------------------------------------------------------------

/// After appends (pre-compaction) and after a forced compaction, a live
/// service must return results hit-for-hit identical to a service built
/// fresh over the same trajectories — for every algorithm x distance combo,
/// with engine threads > 1 and shards > 1, under a sound bound. Both
/// services run with the same explicit cell size (a fresh build over the
/// grown corpus would otherwise derive a different grid from the extended
/// bounding box, changing the GBP candidate set for live and fresh alike).
TEST(LiveCorpusEquivalenceGate, FullMatrixMatchesFreshBuild) {
  Rng rng(515);
  std::vector<Trajectory> all;
  for (int i = 0; i < 54; ++i) all.push_back(RandomWalk(&rng, 14 + i % 9));
  const int kBase = 36;

  Dataset full_corpus("fresh");
  full_corpus.Reserve(all.size());
  for (const Trajectory& t : all) full_corpus.Add(t);
  const double cell = DefaultCellSize(full_corpus.Bounds());

  std::vector<Trajectory> query_storage;
  for (int i = 0; i < 3; ++i) query_storage.push_back(RandomWalk(&rng, 7));
  // A slice of an *appended* trajectory: its best match must be the delta
  // trajectory itself (rank 0, distance 0) in both services.
  query_storage.push_back(Trajectory(all[40].Slice(Subrange{1, 9})));
  std::vector<TrajectoryView> queries;
  for (const Trajectory& q : query_storage) queries.push_back(q.View());

  const Algorithm algorithms[] = {
      Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
      Algorithm::kGreedyBacktracking, Algorithm::kPos,
      Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};

  for (const Algorithm algorithm : algorithms) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      const std::string context = std::string(ToString(algorithm)) + "/" +
                                  std::string(ToString(spec.kind));
      EngineOptions engine;
      engine.spec = spec;
      engine.algorithm = algorithm;
      engine.use_gbp = true;
      engine.mu = 0.1;
      engine.cell_size = cell;
      engine.use_kpf = true;
      engine.sample_rate = 1.0;  // sound bound: results must be exact
      engine.top_k = 4;
      engine.threads = 2;

      ServiceOptions options;
      options.engine = engine;
      options.shards = 3;
      options.cache_capacity = 0;
      options.compact_delta_trajectories = 0;  // compaction forced below

      Dataset base("live");
      base.Reserve(static_cast<size_t>(kBase));
      for (int i = 0; i < kBase; ++i) base.Add(all[static_cast<size_t>(i)]);
      QueryService live(std::move(base), options);
      std::vector<TrajectoryView> appended;
      for (size_t i = kBase; i < all.size(); ++i) {
        appended.push_back(all[i].View());
      }
      live.AppendBatch(appended);

      QueryService fresh(full_corpus, options);
      ASSERT_EQ(live.corpus_size(), fresh.corpus_size());

      const auto expected = fresh.SubmitBatch(queries);
      const auto before_compact = live.SubmitBatch(queries);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectSameHits(expected[qi], before_compact[qi],
                       context + " pre-compaction query " +
                           std::to_string(qi));
      }
      // Exact algorithms must find the appended source of the delta-slice
      // query at distance 0 (the approximate scans may settle for more).
      ASSERT_FALSE(before_compact.back().empty()) << context;
      if (IsExact(algorithm, spec.kind)) {
        EXPECT_EQ(before_compact.back()[0].result.distance, 0.0) << context;
      }

      ASSERT_TRUE(live.Compact()) << context;
      const CorpusShape shape = live.Shape();
      EXPECT_EQ(shape.delta_trajectories, 0) << context;
      EXPECT_EQ(shape.base_trajectories, static_cast<int>(all.size()))
          << context;
      EXPECT_EQ(shape.base_generation, 1u) << context;

      const auto after_compact = live.SubmitBatch(queries);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectSameHits(expected[qi], after_compact[qi],
                       context + " post-compaction query " +
                           std::to_string(qi));
      }
    }
  }
}

/// The leading hits of a result list whose distance a +-1e300 coordinate
/// did not swamp. Such distances saturate — to infinity, or (Frechet) to
/// the same 1e300-scale value for every trajectory near the origin — so
/// they tie with no defined order, and the huge-coordinate gate compares
/// only the ordinary prefix.
std::vector<EngineHit> OrdinaryHits(std::vector<EngineHit> hits) {
  size_t n = 0;
  while (n < hits.size() && hits[n].result.distance < 1e100) ++n;
  hits.resize(n);
  return hits;
}

/// Coordinates far outside any cell range (|x / cell| >> 2^31) used to
/// overflow the cell-key arithmetic (UBSan signed overflow in CloseCounts).
/// With saturating keys a live service holding appended +-1e300
/// trajectories, queried with ordinary and with +-1e300 points, answers
/// like a fresh build of the same corpus, before and after compaction, on
/// every hit a huge coordinate did not swamp; every query has at least one.
/// (Rejecting such input at the public boundary is separate work; this pins
/// down that the grids are defined for it meanwhile.)
TEST(LiveCorpusEquivalenceGate, HugeCoordinatesMatchFreshBuild) {
  Rng rng(1300);
  std::vector<Trajectory> all;
  for (int i = 0; i < 20; ++i) all.push_back(RandomWalk(&rng, 12));
  const int kBase = static_cast<int>(all.size());
  for (int i = 0; i < 6; ++i) {
    const Trajectory walk = RandomWalk(&rng, 10);
    std::vector<Point> points(walk.View().begin(), walk.View().end());
    const double huge = i % 2 == 0 ? 1e300 : -1e300;
    points[static_cast<size_t>(i)] = Point{huge, -huge};
    if (i >= 4) {
      for (Point& p : points) p = Point{huge, huge};
    }
    all.push_back(Trajectory(std::move(points)));
  }
  const double cell = 0.5;

  std::vector<Trajectory> query_storage;
  query_storage.push_back(RandomWalk(&rng, 6));
  // Ordinary slice of a trajectory that also holds a huge point.
  query_storage.push_back(Trajectory(all[kBase + 1].Slice(Subrange{2, 8})));
  // Slices and points at +-1e300: the query-side cell keys saturate too.
  query_storage.push_back(Trajectory(all[kBase].Slice(Subrange{0, 4})));
  query_storage.push_back(Trajectory{{1e300, 1e300}, {1e300, 1e300}});
  query_storage.push_back(Trajectory{{-1e300, -1e300}});
  std::vector<TrajectoryView> queries;
  for (const Trajectory& q : query_storage) queries.push_back(q.View());

  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    const std::string context(ToString(spec.kind));
    ServiceOptions options;
    options.engine.spec = spec;
    options.engine.mu = 0.1;
    options.engine.cell_size = cell;
    options.engine.sample_rate = 1.0;
    options.engine.top_k = 3;
    options.shards = 2;
    options.cache_capacity = 0;
    options.compact_delta_trajectories = 0;

    Dataset base("huge-live");
    for (int i = 0; i < kBase; ++i) base.Add(all[static_cast<size_t>(i)]);
    QueryService live(std::move(base), options);
    for (size_t i = static_cast<size_t>(kBase); i < all.size(); ++i) {
      live.Append(all[i]);
    }
    Dataset flat("huge-fresh");
    for (const Trajectory& t : all) flat.Add(t);
    QueryService fresh(std::move(flat), options);

    const auto expected = fresh.SubmitBatch(queries);
    const auto before = live.SubmitBatch(queries);
    ASSERT_TRUE(live.Compact()) << context;
    const auto after = live.SubmitBatch(queries);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string where = context + " query " + std::to_string(qi);
      const std::vector<EngineHit> want = OrdinaryHits(expected[qi]);
      EXPECT_FALSE(want.empty()) << where;
      ExpectSameHits(want, OrdinaryHits(before[qi]), where + " pre-compaction");
      ExpectSameHits(want, OrdinaryHits(after[qi]), where + " post-compaction");
    }
  }
}

// ---------------------------------------------------------------------------
// A saved live corpus reloads as the same generation
// ---------------------------------------------------------------------------

TEST(LiveCorpusSnapshotTest, SaveAndReloadReproducesResultsAndIds) {
  Rng rng(616);
  Dataset base("snap-live");
  for (int i = 0; i < 20; ++i) base.Add(RandomWalk(&rng, 12));

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 3;
  options.shards = 2;
  options.compact_delta_trajectories = 0;
  QueryService live(std::move(base), options);
  std::vector<Trajectory> extra;
  for (int i = 0; i < 6; ++i) extra.push_back(RandomWalk(&rng, 10));
  std::vector<TrajectoryView> extra_views;
  for (const Trajectory& t : extra) extra_views.push_back(t.View());
  live.AppendBatch(extra_views);
  ASSERT_EQ(live.Shape().delta_trajectories, 6);

  const std::string path =
      ::testing::TempDir() + "/live_reload.snap";
  ASSERT_TRUE(live.SaveSnapshot(path).ok());

  // The saved file is one flattened v4 corpus: base, then the delta.
  const Result<SnapshotInfo> info = ProbeSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, kSnapshotVersionMapped);
  EXPECT_EQ(info.value().name, "snap-live");
  EXPECT_EQ(info.value().base_trajectories, 26u);

  // Both readers reproduce the generation: same ids, points and answers.
  Result<Dataset> heap = ReadSnapshot(path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  Result<MmapSnapshot> mapped = MmapSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().grid(), nullptr);  // saving builds no index
  // A delta trajectory as the query, so the delta ids must come back.
  const TrajectoryView query = extra[3].View();
  const std::vector<EngineHit> want = live.Submit(query);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.front().trajectory_id, 23);
  const std::pair<const char*, Dataset> loads[] = {
      {"ReadSnapshot", heap.MoveValue()},
      {"MmapSnapshot::Open", mapped.value().dataset()}};
  for (const auto& [reader, corpus] : loads) {
    ASSERT_EQ(corpus.size(), live.corpus_size()) << reader;
    for (int id = 0; id < live.corpus_size(); ++id) {
      ExpectSamePoints(live.trajectory(id).View(), corpus[id].View());
    }
    QueryService reloaded(corpus, options);
    ExpectSameHits(want, reloaded.Submit(query), reader);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrent ingest / read / compact (TSan coverage)
// ---------------------------------------------------------------------------

bool SameHits(const std::vector<EngineHit>& a,
              const std::vector<EngineHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trajectory_id != b[i].trajectory_id ||
        a[i].result.distance != b[i].result.distance ||
        !(a[i].result.range == b[i].result.range)) {
      return false;
    }
  }
  return true;
}

/// Readers keep querying while a writer appends in small batches and
/// compactions churn (a tiny threshold forces many background swaps). Every
/// result must be *exact*: equal to a fresh build of the corpus prefix some
/// generation between corpus_size() just before the Submit and just after it
/// held. Small batches make generations of one base overlap, so readers of
/// an older pinned generation read a delta grid a newer one already
/// extended — the capped read must hide the newer ids. The final corpus must
/// answer exactly like a fresh build of the same trajectories.
TEST(LiveCorpusStressTest, ConcurrentReadersDuringIngestAndCompaction) {
  Rng rng(717);
  std::vector<Trajectory> initial;
  for (int i = 0; i < 24; ++i) initial.push_back(RandomWalk(&rng, 12));
  std::vector<Trajectory> feed;
  for (int i = 0; i < 48; ++i) feed.push_back(RandomWalk(&rng, 10));

  Dataset base("stress");
  for (const Trajectory& t : initial) base.Add(t);
  const double cell = DefaultCellSize(base.Bounds());

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.cell_size = cell;
  options.engine.mu = 0.1;
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 3;
  options.engine.threads = 2;
  options.shards = 2;
  options.worker_threads = 3;
  options.cache_capacity = 32;
  options.compact_delta_trajectories = 8;  // churn: many background swaps
  QueryService service(std::move(base), options);

  constexpr int kQueries = 4;
  std::vector<Trajectory> query_storage;
  for (int i = 0; i < kQueries; ++i) {
    query_storage.push_back(RandomWalk(&rng, 6));
  }

  // Fresh-build answers for every corpus size a reader can pin.
  const int first_size = static_cast<int>(initial.size());
  const int last_size = static_cast<int>(initial.size() + feed.size());
  std::vector<std::vector<std::vector<EngineHit>>> expected;  // [size][q]
  expected.resize(static_cast<size_t>(last_size) + 1);
  {
    ServiceOptions fresh_options = options;
    fresh_options.cache_capacity = 0;
    fresh_options.compact_delta_trajectories = 0;
    std::vector<TrajectoryView> query_views;
    for (const Trajectory& q : query_storage) query_views.push_back(q.View());
    for (int size = first_size; size <= last_size; ++size) {
      Dataset prefix("stress-prefix");
      for (int id = 0; id < size; ++id) {
        prefix.Add(id < first_size
                       ? initial[static_cast<size_t>(id)]
                       : feed[static_cast<size_t>(id - first_size)]);
      }
      QueryService fresh(std::move(prefix), fresh_options);
      expected[static_cast<size_t>(size)] = fresh.SubmitBatch(query_views);
    }
  }

  std::atomic<int> failures{0};
  std::atomic<int> checked{0};
  std::atomic<bool> writer_done{false};
  auto reader = [&](int seed) {
    for (int round = 0; !writer_done.load(std::memory_order_acquire) ||
                        round < 10;
         ++round) {
      const int qi = (seed + round) % kQueries;
      const int corpus_before = service.corpus_size();
      const std::vector<EngineHit> hits =
          service.Submit(query_storage[static_cast<size_t>(qi)]);
      const int corpus_after = service.corpus_size();
      bool matched = false;
      for (int size = corpus_before; size <= corpus_after && !matched;
           ++size) {
        matched = SameHits(
            hits, expected[static_cast<size_t>(size)][static_cast<size_t>(qi)]);
      }
      if (!matched) failures.fetch_add(1, std::memory_order_relaxed);
      checked.fetch_add(1, std::memory_order_relaxed);
      if (round > 200) break;  // safety net
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader, r);
  std::thread writer([&]() {
    for (size_t i = 0; i < feed.size();) {
      const size_t batch = std::min<size_t>(1 + i % 3, feed.size() - i);
      std::vector<TrajectoryView> views;
      for (size_t j = i; j < i + batch; ++j) views.push_back(feed[j].View());
      service.AppendBatch(views);
      i += batch;
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0) << "of " << checked.load() << " results";

  // Quiesce: force a final compaction (racing background ones are fine;
  // Compact() serializes) and gate the end state against a fresh build.
  service.Compact();
  EXPECT_EQ(service.corpus_size(), last_size);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.appends, feed.size());
  EXPECT_GE(stats.compactions, 1u);

  for (int qi = 0; qi < kQueries; ++qi) {
    ExpectSameHits(
        expected[static_cast<size_t>(last_size)][static_cast<size_t>(qi)],
        service.Submit(query_storage[static_cast<size_t>(qi)]),
        "post-stress");
  }
}

/// Grid work is proportional to what was appended, not to the delta: N
/// appends in batches of 8 interleaved with queries index exactly N
/// trajectories, however many generations and queries read the grid. A
/// compaction starts a fresh grid for the new base, which then indexes only
/// the delta appended after it. The counter is part of the statsz export.
TEST(LiveCorpusStatsTest, DeltaGridIndexesEachAppendOnce) {
  Rng rng(919);
  Dataset base("grid-work");
  for (int i = 0; i < 12; ++i) base.Add(RandomWalk(&rng, 10));
  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 3;
  options.shards = 2;
  options.cache_capacity = 16;
  options.compact_delta_trajectories = 0;
  QueryService service(std::move(base), options);
  const obs::Counter* indexed =
      service.metrics().counter("service.delta_grid.indexed_trajectories");
  const Trajectory query = RandomWalk(&rng, 6);

  EXPECT_EQ(indexed->Value(), 0u);
  constexpr int kRounds = 6;
  std::vector<Trajectory> appended;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TrajectoryView> batch;
    for (int i = 0; i < 8; ++i) {
      appended.push_back(RandomWalk(&rng, 9));
    }
    for (size_t i = appended.size() - 8; i < appended.size(); ++i) {
      batch.push_back(appended[i].View());
    }
    service.AppendBatch(batch);
    service.Submit(query);
    service.Submit(RandomWalk(&rng, 5));
    EXPECT_EQ(indexed->Value(), static_cast<uint64_t>(8 * (round + 1)));
  }
  // Pure ingest builds nothing: the next query pays for both batches.
  std::vector<TrajectoryView> more;
  for (int i = 0; i < 16; ++i) {
    appended.push_back(RandomWalk(&rng, 9));
  }
  for (size_t i = appended.size() - 16; i < appended.size(); ++i) {
    more.push_back(appended[i].View());
  }
  service.AppendBatch({more.begin(), more.begin() + 8});
  service.AppendBatch({more.begin() + 8, more.end()});
  EXPECT_EQ(indexed->Value(), static_cast<uint64_t>(8 * kRounds));
  service.Submit(query);
  EXPECT_EQ(indexed->Value(), static_cast<uint64_t>(8 * kRounds + 16));

  ASSERT_TRUE(service.Compact());
  service.Submit(query);  // empty delta: no grid work
  const uint64_t before_new_base = indexed->Value();
  EXPECT_EQ(before_new_base, static_cast<uint64_t>(8 * kRounds + 16));
  const Trajectory late = RandomWalk(&rng, 9);
  service.AppendBatch({late.View(), late.View(), late.View()});
  service.Submit(query);
  service.Submit(query);
  EXPECT_EQ(indexed->Value(), before_new_base + 3);

  const std::string statsz = obs::StatszTable(service.metrics().Snapshot());
  EXPECT_NE(statsz.find("service.delta_grid.indexed_trajectories"),
            std::string::npos);
}

/// Ingest counters and generation stamps surface through Stats()/Shape().
TEST(LiveCorpusStatsTest, IngestAndCompactionCountersTrack) {
  Rng rng(818);
  Dataset base("counters");
  for (int i = 0; i < 10; ++i) base.Add(RandomWalk(&rng, 10));
  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.compact_delta_trajectories = 0;
  QueryService service(std::move(base), options);

  const Trajectory a = RandomWalk(&rng, 8);
  const Trajectory b = RandomWalk(&rng, 9);
  service.Append(a);
  service.AppendBatch({b.View(), a.View()});

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.append_batches, 2u);
  EXPECT_EQ(stats.appended_points, static_cast<uint64_t>(
                                       a.size() * 2 + b.size()));
  EXPECT_EQ(stats.compactions, 0u);

  CorpusShape shape = service.Shape();
  EXPECT_EQ(shape.generation, 2u);
  EXPECT_EQ(shape.ingest_seq, 3u);
  EXPECT_EQ(shape.delta_trajectories, 3);
  EXPECT_EQ(shape.base_trajectories, 10);

  ASSERT_TRUE(service.Compact());
  EXPECT_FALSE(service.Compact());  // delta already empty
  stats = service.Stats();
  EXPECT_EQ(stats.compactions, 1u);
  shape = service.Shape();
  EXPECT_EQ(shape.base_trajectories, 13);
  EXPECT_EQ(shape.delta_trajectories, 0);
  EXPECT_EQ(shape.ingest_seq, 3u);  // compaction is content-neutral
  EXPECT_EQ(shape.base_generation, 1u);
}

}  // namespace
}  // namespace trajsearch
