// Steady-state allocation audit of the Bind/Run execution plans: after a
// warm-up pass over the candidate set, re-running every candidate through a
// bound plan must perform zero heap allocations — the property the engine's
// plan pooling relies on for allocation-free search stages under sustained
// service traffic. The same counters also hold a live AppendBatch to
// allocated bytes independent of the delta size. Verified by instrumenting
// global operator new/delete in this test binary only.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/live_dataset.h"
#include "io/snapshot.h"
#include "io/snapshot_v4.h"
#include "prune/key_point_filter.h"
#include "search/engine.h"
#include "search/searcher.h"
#include "search/topk.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace {

std::atomic<long long> g_allocations{0};
std::atomic<long long> g_allocated_bytes{0};

}  // namespace

// Plain counting pass-throughs; ASan still interposes on the malloc layer
// underneath, so the sanitizer job exercises these too. noinline: if the
// optimizer inlines the malloc-backed new into a caller, GCC's
// -Wmismatched-new-delete pairs the visible malloc with the caller's
// delete and reports a false mismatch.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long long>(size),
                              std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left unreplaced, their memory would come from the sanitizer's allocator
// and reach the replaced deletes below, which free() it — an ASan
// alloc-dealloc mismatch.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long long>(size),
                              std::memory_order_relaxed);
  return std::malloc(size);
}
__attribute__((noinline)) void* operator new[](
    std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace trajsearch {
namespace {

using testing::RandomWalk;

long long AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

long long AllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

class PlanAllocTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PlanAllocTest, SteadyStateRunsDoNotAllocate) {
  const Algorithm algorithm = GetParam();
  Rng rng(4242);
  const Trajectory query = RandomWalk(&rng, 12);
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 8; ++i) corpus.push_back(RandomWalk(&rng, 40));

  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    if (!Supports(algorithm, spec.kind)) continue;
    auto searcher = MakeSearcher(algorithm, spec);
    ASSERT_TRUE(searcher.ok());
    std::unique_ptr<QueryRun> plan = searcher.value()->Bind(query);

    // Warm-up: sizes all scratch (rows, heaps, suffix tables, feature
    // buffers) to this candidate population. It also yields the median
    // full distance, a cutoff under which about half the runs abandon.
    std::vector<double> full;
    for (const Trajectory& data : corpus) {
      full.push_back(plan->Run(data, kNoCutoff).distance);
    }
    std::sort(full.begin(), full.end());
    const double median = full[full.size() / 2];
    for (const Trajectory& data : corpus) (void)plan->Run(data, median);

    const long long before = AllocationCount();
    double sum = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (const Trajectory& data : corpus) {
        sum += plan->Run(data, kNoCutoff).distance;
        sum += std::min(plan->Run(data, median).distance, 1.0);
      }
    }
    const long long after = AllocationCount();
    EXPECT_EQ(after - before, 0)
        << ToString(algorithm) << "/" << ToString(spec.kind)
        << " allocated on the steady-state path (checksum " << sum << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, PlanAllocTest,
    ::testing::Values(Algorithm::kCma, Algorithm::kExactS, Algorithm::kSpring,
                      Algorithm::kGreedyBacktracking, Algorithm::kPos,
                      Algorithm::kPss, Algorithm::kRls, Algorithm::kRlsSkip),
    // Named param_info: the INSTANTIATE_ macro expands this lambda inside a
    // generated function whose own parameter is `info` (-Wshadow).
    [](const ::testing::TestParamInfo<Algorithm>& param_info) {
      std::string name(ToString(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PlanAllocTest, ReboundPlanReusesScratchAcrossQueries) {
  // Rebinding to queries the plan has already seen must be allocation-free
  // for every plan: all Bind-time scratch — DP columns, query coordinate
  // columns (FillCols), deletion-prefix tables, and the reversed-query /
  // reversed-data point buffers of the POS/PSS/RLS suffix scans — is checked
  // out of the plan's grow-only DpArena in a deterministic order, so a
  // re-Bind reuses the same storage instead of allocating.
  Rng rng(777);
  std::vector<Trajectory> queries;
  // Varying lengths, bound out of order below, so a plan that sized scratch
  // to one query and silently reallocated on the next would be caught.
  for (int i = 0; i < 4; ++i) queries.push_back(RandomWalk(&rng, 8 + i * 2));
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 4; ++i) corpus.push_back(RandomWalk(&rng, 30));

  for (const Algorithm algorithm :
       {Algorithm::kCma, Algorithm::kExactS, Algorithm::kSpring,
        Algorithm::kGreedyBacktracking, Algorithm::kPos, Algorithm::kPss,
        Algorithm::kRls, Algorithm::kRlsSkip}) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      auto searcher = MakeSearcher(algorithm, spec);
      ASSERT_TRUE(searcher.ok());
      std::unique_ptr<QueryRun> plan = searcher.value()->NewRun();
      for (const Trajectory& q : queries) {  // warm-up over all queries
        plan->Bind(q);
        for (const Trajectory& data : corpus) (void)plan->Run(data, kNoCutoff);
      }
      const long long before = AllocationCount();
      double sum = 0;
      const int order[] = {3, 0, 2, 1, 3, 1};  // revisit shorter after longer
      for (const int qi : order) {
        plan->Bind(queries[static_cast<size_t>(qi)]);
        for (const Trajectory& data : corpus) {
          sum += plan->Run(data, kNoCutoff).distance;
        }
      }
      EXPECT_EQ(AllocationCount() - before, 0)
          << ToString(algorithm) << "/" << ToString(spec.kind)
          << " re-Bind allocated (checksum " << sum << ")";
    }
  }
}

TEST(PlanAllocTest, BatchedRunsDoNotAllocateInSteadyState) {
  // The batch kernels' lane scratch (lane-interleaved columns and rows,
  // staging buffers, per-lane reversed-data and suffix tables) is checked
  // out of the plan's grow-only DpArena at Bind in a fixed order, so after a
  // warm-up pass RunBatch must be allocation-free — including across
  // re-Binds to different queries and across *shrinking* batch counts
  // (count < batch_width must reuse the full-width scratch, never resize).
  //
  // Every pass runs twice: under kNoCutoff and under the query's median
  // full distance, where about half the runs abandon (CMA: the suffix
  // floor is filled per candidate and lanes retire and refill). Run (which
  // copies each candidate into column scratch under vector dispatch) and
  // RunWindow (one window of the whole set) are audited the same way.
  Rng rng(99123);
  std::vector<Trajectory> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomWalk(&rng, 8 + i * 3));
  Dataset dataset("alloc-batch");
  for (int i = 0; i < 12; ++i) dataset.Add(RandomWalk(&rng, 28 + i));

  class Sink final : public QueryRun::WindowSink {
   public:
    Sink(double cutoff, SearchResult* results)
        : cutoff_(cutoff), results_(results) {}
    double Cutoff() override { return cutoff_; }
    void Done(int item, const SearchResult& result, double) override {
      results_[item] = result;
    }

   private:
    double cutoff_;
    SearchResult* results_;
  };

  for (const Algorithm algorithm :
       {Algorithm::kCma, Algorithm::kExactS, Algorithm::kPss,
        Algorithm::kRls}) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      if (!Supports(algorithm, spec.kind)) continue;
      auto searcher = MakeSearcher(algorithm, spec);
      ASSERT_TRUE(searcher.ok());
      std::unique_ptr<QueryRun> plan = searcher.value()->NewRun();

      std::vector<QueryRun::RunBatchItem> items;
      for (int id = 0; id < dataset.size(); ++id) {
        items.push_back({dataset[id].View(), {}});
      }
      std::vector<SearchResult> results(items.size());
      std::vector<double> medians;
      for (const Trajectory& q : queries) {
        plan->Bind(q);
        std::vector<double> full;
        for (const QueryRun::RunBatchItem& item : items) {
          full.push_back(plan->Run(item.data).distance);
        }
        std::sort(full.begin(), full.end());
        medians.push_back(full[full.size() / 2]);
      }
      auto run_all = [&](int width, double cutoff) {
        for (size_t begin = 0; begin < items.size();) {
          const int count = static_cast<int>(std::min(
              static_cast<size_t>(width), items.size() - begin));
          plan->RunBatch(items.data() + begin, count, cutoff,
                         results.data() + begin);
          begin += static_cast<size_t>(count);
        }
        for (const QueryRun::RunBatchItem& item : items) {
          (void)plan->Run(item.data, cutoff);
        }
        Sink sink(cutoff, results.data());
        plan->RunWindow(items.data(), static_cast<int>(items.size()), &sink);
      };
      auto pass = [&]() {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          plan->Bind(queries[qi]);
          // Full width first, then every shrinking batch size down to 1
          // (the width-1 batches route through the sequential Run
          // fallback, which has its own scratch).
          for (int width = std::max(1, plan->batch_width()); width >= 1;
               --width) {
            run_all(width, kNoCutoff);
            run_all(width, medians[qi]);
          }
        }
      };

      pass();  // warm-up: every query length, batch size and cutoff
      const long long before = AllocationCount();
      pass();
      EXPECT_EQ(AllocationCount() - before, 0)
          << ToString(algorithm) << "/" << ToString(spec.kind)
          << " RunBatch allocated on the steady-state path";
    }
  }
}

TEST(PlanAllocTest, PoolScheduledQueriesAllocatePerQueryNotPerCandidate) {
  // The scheduler path — chunked worker tasks on a shared ThreadPool,
  // SharedTopK, cached-bound candidate ordering — may allocate a small
  // constant amount per query (heap vectors, a few pool task nodes) but
  // must never allocate per *candidate*: all per-candidate state lives in
  // pooled plans and thread-local scratch. With a 256-trajectory corpus, a
  // budget far below the candidate count proves the distinction.
  Rng rng(5150);
  Dataset dataset("alloc-sched");
  for (int i = 0; i < 256; ++i) dataset.Add(RandomWalk(&rng, 24));
  const Trajectory query = RandomWalk(&rng, 10);

  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = false;  // every trajectory is a candidate
  options.use_kpf = true;
  options.sample_rate = 1.0;
  options.top_k = 8;
  options.threads = 4;  // chunked tasks on the DefaultScheduler pool
  const SearchEngine engine(&dataset, options);

  // Warm-up: sizes the plan pool to the worker count, the scheduler's
  // queue, every pool thread's thread-local scratch, and the bound cache.
  for (int pass = 0; pass < 4; ++pass) (void)engine.Query(query);

  const int kQueries = 16;
  const long long kPerQueryBudget = 64;  // << 256 candidates
  const long long before = AllocationCount();
  for (int pass = 0; pass < kQueries; ++pass) (void)engine.Query(query);
  const long long per_query = (AllocationCount() - before) / kQueries;
  EXPECT_LE(per_query, kPerQueryBudget)
      << "scheduler path allocates per candidate, not per query";
}

TEST(SnapshotLoadAllocTest, SnapshotLoadReservesExactlyFromHeader) {
  // The snapshot loader must size every buffer exactly from the header: a
  // constant number of allocations regardless of corpus size (the mapping
  // plus header-sized vectors, never per-trajectory or growth
  // reallocations), and zero over-allocation (capacity == size for the
  // offsets table and the point pool).
  Rng rng(31337);
  auto make_corpus = [&](int count) {
    Dataset dataset("allocsnap");  // same name → same string allocations
    for (int i = 0; i < count; ++i) dataset.Add(RandomWalk(&rng, 24));
    return dataset;
  };
  auto audited_load = [](const std::string& path, long long* allocations) {
    const long long before = AllocationCount();
    Result<Dataset> loaded = ReadSnapshot(path);
    *allocations = AllocationCount() - before;
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.MoveValue();
  };

  const std::string small_path = ::testing::TempDir() + "/alloc_a.snap";
  const std::string large_path = ::testing::TempDir() + "/alloc_b.snap";
  ASSERT_TRUE(WriteSnapshotV4(make_corpus(16), small_path).ok());
  ASSERT_TRUE(WriteSnapshotV4(make_corpus(256), large_path).ok());

  long long small_allocs = 0, large_allocs = 0;
  const Dataset small = audited_load(small_path, &small_allocs);
  const Dataset large = audited_load(large_path, &large_allocs);
  EXPECT_EQ(small_allocs, large_allocs)
      << "load allocation count must not scale with the corpus";

  for (const Dataset* dataset : {&small, &large}) {
    const DatasetStats stats = dataset->Stats();
    EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
    EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
  }
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
}

TEST(SnapshotLoadAllocTest, LiveSaveLoadDoesNotOverAllocate) {
  // SaveSnapshot of a corpus with a live delta flattens base + delta into
  // one file; loading it must still size every buffer exactly.
  Rng rng(424242);
  Dataset base("allocsnap");
  for (int i = 0; i < 32; ++i) base.Add(RandomWalk(&rng, 20));
  ServiceOptions options;
  options.compact_delta_trajectories = 0;
  QueryService service(std::move(base), options);
  std::vector<Trajectory> delta;
  std::vector<TrajectoryView> views;
  for (int i = 0; i < 12; ++i) {
    delta.push_back(RandomWalk(&rng, 16));
    views.push_back(delta.back().View());
  }
  service.AppendBatch(views);
  ASSERT_EQ(service.Shape().delta_trajectories, 12);
  const std::string path = ::testing::TempDir() + "/alloc_live.snap";
  ASSERT_TRUE(service.SaveSnapshot(path).ok());

  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 44);
  const DatasetStats stats = loaded.value().Stats();
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
  std::remove(path.c_str());
}

TEST(SnapshotLoadAllocTest, MmapOpenAllocationCountIsCorpusSizeIndependent) {
  // Zero-copy serving means *zero payload allocations*: MmapSnapshot::Open
  // borrows the offsets table, point pool and grid index
  // straight from the mapping, so its heap traffic is a small constant
  // (the MappedFile object, Status/Result plumbing, section bookkeeping) no
  // matter how large the corpus is. An accidental copy of any section
  // would scale with the corpus and trip this audit.
  Rng rng(62830);
  auto make_corpus = [&](int count) {
    Dataset dataset("allocmmap");  // same name → same string allocations
    for (int i = 0; i < count; ++i) dataset.Add(RandomWalk(&rng, 24));
    return dataset;
  };
  auto audited_open = [](const std::string& path, long long* allocations) {
    const long long before = AllocationCount();
    Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
    *allocations = AllocationCount() - before;
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.MoveValue();
  };

  const std::string small_path = ::testing::TempDir() + "/alloc_m4a.snap";
  const std::string large_path = ::testing::TempDir() + "/alloc_m4b.snap";
  ASSERT_TRUE(WriteSnapshotV4(make_corpus(16), small_path).ok());
  ASSERT_TRUE(WriteSnapshotV4(make_corpus(256), large_path).ok());

  long long small_allocs = 0, large_allocs = 0;
  const MmapSnapshot small = audited_open(small_path, &small_allocs);
  const MmapSnapshot large = audited_open(large_path, &large_allocs);
  EXPECT_EQ(small_allocs, large_allocs)
      << "v4 mmap open allocation count must not scale with the corpus";

  // Borrowed storage reports capacity == bytes by construction: there is
  // no owned buffer that could be over-allocated.
  for (const MmapSnapshot* snapshot : {&small, &large}) {
    const DatasetStats stats = snapshot->dataset().Stats();
    EXPECT_TRUE(stats.borrowed);
    EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
    EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
    ASSERT_NE(snapshot->grid(), nullptr);
    EXPECT_TRUE(snapshot->grid()->borrowed());
  }
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
}

TEST(SnapshotLoadAllocTest, CompressedDecodeDoesNotOverAllocate) {
  // The compressed tier decodes into exactly-sized heap columns: the
  // decoder resizes each output once from the header counts, so the served
  // dataset must show zero slack, like every other load path.
  Rng rng(271828);
  Dataset dataset("allocpacked");
  for (int i = 0; i < 48; ++i) dataset.Add(RandomWalk(&rng, 24));
  const std::string path = ::testing::TempDir() + "/alloc_m4c.snap";
  V4WriteOptions options;
  options.compress = true;
  options.codec.store_residuals = true;
  ASSERT_TRUE(WriteSnapshotV4(dataset, path, options).ok());

  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const DatasetStats stats = opened.value().dataset().Stats();
  EXPECT_FALSE(stats.borrowed);
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);
  std::remove(path.c_str());
}

TEST(PlanAllocTest, KpfBoundPlanLowerBoundDoesNotAllocate) {
  Rng rng(888);
  const Trajectory query = RandomWalk(&rng, 12);
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 6; ++i) corpus.push_back(RandomWalk(&rng, 40));
  KpfBoundPlan plan;
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    plan.Bind(spec, query, 0.5);
    const long long before = AllocationCount();
    double sum = 0;
    for (const Trajectory& data : corpus) sum += plan.LowerBound(data);
    EXPECT_EQ(AllocationCount() - before, 0)
        << ToString(spec.kind) << " bound allocated (checksum " << sum << ")";
  }
}

// Publishing a live delta shares its entry table instead of copying it, so
// the bytes one AppendBatch allocates (ids, the published views, and now and
// then a chunk or a table regrowth) do not depend on how large the delta
// already is. The minimum over a few consecutive batches skips the
// occasional chunk allocation and table doubling.
TEST(LiveAppendAllocTest, AppendBatchBytesDoNotGrowWithDeltaSize) {
  Rng rng(515);
  Dataset base("alloc");
  for (int i = 0; i < 16; ++i) base.Add(RandomWalk(&rng, 20));
  LiveDataset live(std::move(base));
  std::vector<Trajectory> trajectories;
  for (int i = 0; i < 8; ++i) trajectories.push_back(RandomWalk(&rng, 20));
  const std::vector<TrajectoryView> batch(trajectories.begin(),
                                          trajectories.end());

  auto min_batch_bytes = [&]() {
    long long best = -1;
    for (int rep = 0; rep < 4; ++rep) {
      const long long before = AllocatedBytes();
      live.AppendBatch(batch);
      const long long bytes = AllocatedBytes() - before;
      if (best < 0 || bytes < best) best = bytes;
    }
    return best;
  };

  const long long at_empty = min_batch_bytes();
  while (live.View().delta_size() < 4096) live.AppendBatch(batch);
  ASSERT_EQ(live.View().delta_size(), 4096);
  const long long at_4096 = min_batch_bytes();
  EXPECT_GT(at_empty, 0);
  EXPECT_EQ(at_4096, at_empty)
      << "an AppendBatch of 8 allocates more with a larger delta";
}

}  // namespace
}  // namespace trajsearch
