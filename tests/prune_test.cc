#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/taxi.h"
#include "io/snapshot_v4.h"
#include "prune/delta_grid.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/cma.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::PaperGpsSpecs;
using testing::RandomWalk;

Dataset SmallDataset(int count, int mean_len, uint64_t seed) {
  Dataset dataset("test");
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    dataset.Add(RandomWalk(&rng, mean_len + static_cast<int>(rng.UniformInt(
                                     -mean_len / 2, mean_len / 2))));
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// GridIndex (GBP).
// ---------------------------------------------------------------------------

TEST(GridIndexTest, CloseCountsMatchDirectComputation) {
  const Dataset dataset = SmallDataset(12, 20, 3);
  const double cell = 2.0;
  const GridIndex index(dataset, cell);
  Rng rng(9);
  const Trajectory query = RandomWalk(&rng, 8);

  // Direct: a query point is close to T iff some point of T lies in its
  // 3x3 cell neighbourhood.
  auto cell_of = [&](double v) {
    return static_cast<long long>(std::floor(v / cell));
  };
  std::vector<int> direct(static_cast<size_t>(dataset.size()), 0);
  for (const Point& qp : query.points()) {
    for (int id = 0; id < dataset.size(); ++id) {
      bool close = false;
      for (const Point& dp : dataset[id].points()) {
        if (std::llabs(cell_of(qp.x) - cell_of(dp.x)) <= 1 &&
            std::llabs(cell_of(qp.y) - cell_of(dp.y)) <= 1) {
          close = true;
          break;
        }
      }
      if (close) ++direct[static_cast<size_t>(id)];
    }
  }
  std::vector<int> indexed(static_cast<size_t>(dataset.size()), 0);
  for (const auto& [id, count] : index.CloseCounts(query)) {
    indexed[static_cast<size_t>(id)] = count;
  }
  for (int id = 0; id < dataset.size(); ++id) {
    EXPECT_EQ(indexed[static_cast<size_t>(id)],
              direct[static_cast<size_t>(id)])
        << "trajectory " << id;
  }
}

TEST(CellKeyTest, InRangeKeysMatchTheUnclampedFormula) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double cell = 0.001 + rng.Uniform() * 10.0;
    const double x = (rng.Uniform() - 0.5) * 1e6;
    const double y = (rng.Uniform() - 0.5) * 1e6;
    const auto ix = static_cast<int64_t>(std::floor(x / cell));
    const auto iy = static_cast<int64_t>(std::floor(y / cell));
    EXPECT_EQ(CellKey(x, y, cell), (ix << 32) ^ (iy & 0xffffffffLL));
  }
  EXPECT_EQ(CellIndex(-0.5, 1.0), -1);
  EXPECT_EQ(CellIndex(kMaxCellIndex + 0.5, 1.0), kMaxCellIndex);
}

TEST(CellKeyTest, OutOfRangeAndNaNSaturateToFixedCells) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(CellIndex(nan, 1.0), kMaxCellIndex);
  EXPECT_EQ(CellIndex(-nan, 0.25), kMaxCellIndex);
  EXPECT_EQ(CellIndex(1e300, 1.0), kMaxCellIndex);
  EXPECT_EQ(CellIndex(inf, 1.0), kMaxCellIndex);
  EXPECT_EQ(CellIndex(-1e300, 1.0), -kMaxCellIndex);
  EXPECT_EQ(CellIndex(-inf, 1.0), -kMaxCellIndex);
  EXPECT_EQ(CellIndex(3e9, 1.0), kMaxCellIndex);  // just past 2^31
  // NaN in either coordinate lands in one fixed cell.
  EXPECT_EQ(CellKey(nan, 0.5, 1.0), PackCellKey(kMaxCellIndex, 0));
  EXPECT_EQ(CellKey(nan, nan, 1.0), CellKey(1e300, 1e300, 1.0));
  // The neighbourhood of a saturated cell stays inside the key's halves:
  // every key unpacks back to the index it was packed from.
  for (const double v : {nan, 1e300, -1e300}) {
    const std::array<int64_t, 9> keys = CloseCellKeys(v, -v, 1.0);
    const int64_t ix = CellIndex(v, 1.0);
    const int64_t iy = CellIndex(-v, 1.0);
    size_t k = 0;
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const int64_t key = keys[k++];
        EXPECT_EQ(key >> 32, ix + dx);
        EXPECT_EQ(static_cast<int32_t>(key & 0xffffffffLL), iy + dy);
      }
    }
  }
}

TEST(CellKeyTest, GridIndexCountsNonFinitePointsInTheirFixedCell) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Dataset dataset("hostile");
  dataset.Add(Trajectory{{0.0, 0.0}, {1.0, 1.0}});
  dataset.Add(Trajectory{{nan, 0.5}, {1e300, -1e300}});
  const GridIndex grid(dataset, 1.0);
  // A NaN query point is close to the NaN-bearing trajectory only.
  EXPECT_EQ(grid.CloseCounts(Trajectory{{nan, 0.0}}.View()),
            (std::vector<std::pair<int, int>>{{1, 1}}));
  EXPECT_EQ(grid.CloseCounts(Trajectory{{1e300, -1e300}}.View()),
            (std::vector<std::pair<int, int>>{{1, 1}}));
  EXPECT_EQ(grid.CloseCounts(Trajectory{{0.5, 0.5}}.View()),
            (std::vector<std::pair<int, int>>{{0, 1}}));
}

TEST(GridIndexTest, CandidatesRespectMuThreshold) {
  const Dataset dataset = SmallDataset(20, 15, 5);
  const GridIndex index(dataset, 1.5);
  Rng rng(11);
  const Trajectory query = RandomWalk(&rng, 10);
  const auto counts = index.CloseCounts(query);
  for (const double mu : {0.1, 0.4, 0.9}) {
    const auto candidates = index.Candidates(query, mu);
    size_t expected = 0;
    for (const auto& [id, count] : counts) {
      if (count >= mu * query.size()) ++expected;
    }
    EXPECT_EQ(candidates.size(), expected) << "mu=" << mu;
    // Larger mu never yields more candidates.
  }
  EXPECT_GE(index.Candidates(query, 0.1).size(),
            index.Candidates(query, 0.9).size());
}

TEST(GridIndexTest, TrajectoryContainingQueryAlwaysSurvives) {
  // A data trajectory that embeds the query must have close count == m.
  Rng rng(17);
  Dataset dataset("embed");
  const Trajectory host = RandomWalk(&rng, 40);
  dataset.Add(host);
  dataset.Add(RandomWalk(&rng, 30));
  std::vector<Point> qpts(host.points().begin() + 10,
                          host.points().begin() + 16);
  const Trajectory query(std::move(qpts));
  const GridIndex index(dataset, 0.5);
  const auto counts = index.CloseCounts(query);
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front().first, 0);
  EXPECT_EQ(counts.front().second, query.size());
}

// ---------------------------------------------------------------------------
// Grid build identity: the counting CSR build against the sort-based build
// it replaced.
// ---------------------------------------------------------------------------

/// The five serving arrays of a grid.
struct GridArrays {
  std::vector<int64_t> cell_keys;
  std::vector<uint64_t> cell_offsets;
  std::vector<int32_t> posting_ids;
  std::vector<int64_t> slot_keys;
  std::vector<int32_t> slot_cells;
};

GridArrays ArraysOf(const GridIndex& grid) {
  return {{grid.cell_keys().begin(), grid.cell_keys().end()},
          {grid.cell_offsets().begin(), grid.cell_offsets().end()},
          {grid.posting_ids().begin(), grid.posting_ids().end()},
          {grid.slot_keys().begin(), grid.slot_keys().end()},
          {grid.slot_cells().begin(), grid.slot_cells().end()}};
}

/// The slot table's hash (splitmix64's finalizer), copied so the reference
/// below stays the build the snapshot format was written with.
uint64_t ReferenceHashKey(int64_t key) {
  uint64_t x = static_cast<uint64_t>(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The sort-based build, kept as the reference: every (cell, id) posting,
/// sorted and deduplicated, laid out as CSR, then a linear-probing slot
/// table at load factor <= 0.5 filled in ascending key order.
GridArrays SortUniqueGrid(DatasetView data, double cell_size) {
  std::vector<std::pair<int64_t, int32_t>> entries;
  for (int id = 0; id < data.size(); ++id) {
    for (const Point& p : data[id].points()) {
      entries.emplace_back(CellKey(p.x, p.y, cell_size), id);
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  GridArrays out;
  out.cell_offsets.push_back(0);
  for (const auto& [key, id] : entries) {
    if (out.cell_keys.empty() || out.cell_keys.back() != key) {
      if (!out.cell_keys.empty()) {
        out.cell_offsets.push_back(out.posting_ids.size());
      }
      out.cell_keys.push_back(key);
    }
    out.posting_ids.push_back(id);
  }
  if (!out.cell_keys.empty()) {
    out.cell_offsets.push_back(out.posting_ids.size());
  }
  size_t slots = 16;
  while (slots < out.cell_keys.size() * 2) slots <<= 1;
  out.slot_keys.assign(slots, 0);
  out.slot_cells.assign(slots, -1);
  for (size_t c = 0; c < out.cell_keys.size(); ++c) {
    size_t h = ReferenceHashKey(out.cell_keys[c]) & (slots - 1);
    while (out.slot_cells[h] != -1) h = (h + 1) & (slots - 1);
    out.slot_keys[h] = out.cell_keys[c];
    out.slot_cells[h] = static_cast<int32_t>(c);
  }
  return out;
}

void ExpectSameGrid(DatasetView data, double cell_size,
                    const std::string& context) {
  const GridIndex grid(data, cell_size);
  const GridArrays built = ArraysOf(grid);
  const GridArrays reference = SortUniqueGrid(data, cell_size);
  EXPECT_EQ(built.cell_keys, reference.cell_keys) << context;
  EXPECT_EQ(built.cell_offsets, reference.cell_offsets) << context;
  EXPECT_EQ(built.posting_ids, reference.posting_ids) << context;
  EXPECT_EQ(built.slot_keys, reference.slot_keys) << context;
  EXPECT_EQ(built.slot_cells, reference.slot_cells) << context;
  EXPECT_EQ(grid.stats().cell_count, reference.cell_keys.size()) << context;
  EXPECT_EQ(grid.stats().entry_count, reference.posting_ids.size())
      << context;
}

/// A random walk over a few cells that revisits them out of order, with
/// empty and 1-point trajectories and, when `hostile`, NaN, +-inf, +-1e300
/// and -0.0 coordinates (CellIndex saturates those into fixed cells).
Dataset RevisitingCorpus(Rng* rng, int count, bool hostile) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {nan, inf, -inf, 1e300, -1e300, -0.0};
  Dataset dataset("revisits");
  for (int t = 0; t < count; ++t) {
    const int length = static_cast<int>(rng->UniformInt(0, 40));
    std::vector<Point> points;
    double x = rng->Uniform(-3, 3);
    double y = rng->Uniform(-3, 3);
    for (int i = 0; i < length; ++i) {
      // Short hops across a 6x6-cell area: cells recur, seldom in a row.
      x = std::clamp(x + rng->Uniform(-1.5, 1.5), -3.0, 3.0);
      y = std::clamp(y + rng->Uniform(-1.5, 1.5), -3.0, 3.0);
      Point p{x, y};
      if (hostile && rng->Uniform() < 0.1) {
        p.x = specials[rng->UniformInt(0, 5)];
      }
      if (hostile && rng->Uniform() < 0.1) {
        p.y = specials[rng->UniformInt(0, 5)];
      }
      points.push_back(p);
    }
    dataset.Add(Trajectory(std::move(points)));
  }
  return dataset;
}

TEST(GridBuildIdentityTest, CountingBuildMatchesSortUniqueBitForBit) {
  // Degenerate corpora first: empty, all-empty trajectories, 1-point.
  ExpectSameGrid(Dataset("empty"), 1.0, "empty dataset");
  Dataset blanks("blanks");
  for (int i = 0; i < 3; ++i) blanks.Add(Trajectory{});
  ExpectSameGrid(blanks, 1.0, "empty trajectories");
  Dataset singles("singles");
  singles.Add(Trajectory{{0.5, 0.5}});
  singles.Add(Trajectory{});
  singles.Add(Trajectory{{0.5, 0.5}});
  singles.Add(Trajectory{{-7.0, 2.0}});
  ExpectSameGrid(singles, 1.0, "1-point trajectories");
  // A -> B -> A: the revisit of A is not consecutive and adds no posting.
  Dataset revisit("aba");
  revisit.Add(Trajectory{{0.1, 0.1}, {1.5, 0.1}, {0.2, 0.3}, {0.2, 0.4}});
  revisit.Add(Trajectory{{1.5, 0.1}, {0.1, 0.1}, {1.5, 0.2}});
  ExpectSameGrid(revisit, 1.0, "non-consecutive revisit");
  // Every special value alone, so each saturated cell gets a posting.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Dataset specials("specials");
  specials.Add(Trajectory{{nan, nan}, {inf, -inf}, {1e300, -1e300},
                          {nan, nan}, {-0.0, 0.0}, {-inf, inf}});
  specials.Add(Trajectory{{-1e300, 1e300}, {nan, 2.0}, {nan, nan}});
  ExpectSameGrid(specials, 0.5, "non-finite and huge coordinates");

  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const bool hostile = seed % 2 == 0;
    const Dataset corpus = RevisitingCorpus(&rng, 300, hostile);
    const std::string context =
        "seed " + std::to_string(seed) + (hostile ? " hostile" : "");
    for (const double cell : {0.3, 1.0, 4.0}) {
      ExpectSameGrid(corpus, cell, context + " cell " + std::to_string(cell));
    }
    // Shard views with begin_id() > 0 build over view-local ids.
    for (const auto& [begin, count] :
         std::vector<std::pair<int, int>>{{0, 97}, {97, 101}, {198, 102},
                                          {150, 0}, {299, 1}}) {
      ExpectSameGrid(DatasetView(corpus, begin, count), 1.0,
                     context + " view " + std::to_string(begin) + "+" +
                         std::to_string(count));
    }
  }
  const Dataset porto = GenerateTaxiDataset(PortoProfile(400));
  const double cell = DefaultCellSize(porto.Bounds());
  ExpectSameGrid(porto, cell, "porto");
  ExpectSameGrid(DatasetView(porto, 133, 200), cell, "porto shard");
}

// ---------------------------------------------------------------------------
// KPF / OSF lower bounds (Theorem B.1).
// ---------------------------------------------------------------------------

class KpfBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(KpfBoundTest, FullRateBoundNeverExceedsOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 2);
  const Trajectory q = RandomWalk(&rng, static_cast<int>(rng.UniformInt(2, 8)));
  const Trajectory d =
      RandomWalk(&rng, static_cast<int>(rng.UniformInt(4, 25)));
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    const double optimum = CmaSearch(spec, q, d).distance;
    const double bound = OsfLowerBound(spec, q, d);
    EXPECT_LE(bound, optimum + 1e-9)
        << ToString(spec.kind) << ": Theorem B.1 violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KpfBoundTest, ::testing::Range(0, 24));

TEST(KpfBoundTest, SampledEstimateIsFiniteAndNonNegative) {
  Rng rng(77);
  const Trajectory q = RandomWalk(&rng, 20);
  const Trajectory d = RandomWalk(&rng, 50);
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    for (const double r : {0.05, 0.2, 0.5, 1.0}) {
      const double est = KpfLowerBoundEstimate(spec, q, d, r);
      EXPECT_GE(est, 0.0);
      EXPECT_LT(est, 1e200);
    }
  }
}

TEST(KpfBoundTest, BoundIsZeroWhenQueryEmbedded) {
  Rng rng(31);
  const Trajectory host = RandomWalk(&rng, 30);
  std::vector<Point> qpts(host.points().begin() + 5,
                          host.points().begin() + 12);
  const Trajectory query(std::move(qpts));
  // Every query point coincides with a data point => min sub = 0, and for
  // EDR/DTW/FD the bound must be exactly 0.
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Dtw(), query, host), 0.0);
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Edr(0.1), query, host), 0.0);
  EXPECT_DOUBLE_EQ(OsfLowerBound(DistanceSpec::Frechet(), query, host), 0.0);
}

TEST(KpfBoundTest, PointMinCostUsesDeletionWhenCheaper) {
  // ERP: a query point on the gap point has free deletion, so its minCost
  // term must be 0 even when all data points are far away.
  const Trajectory q{Point{0, 0}};
  const Trajectory d{Point{100, 100}, Point{200, 200}};
  const DistanceSpec spec = DistanceSpec::Erp(Point{0, 0});
  EXPECT_DOUBLE_EQ(KpfPointMinCost(spec, q, 0, d), 0.0);
}

// ---------------------------------------------------------------------------
// GBP counting identity: the block-mask count against the per-point stamp
// count it replaced.
// ---------------------------------------------------------------------------

/// The stamp-based close count the mask count replaced, over the grid's raw
/// CSR arrays (cells found by binary search on the sorted keys): one token
/// per query point dedupes the postings of its nine cells, and a counter
/// per touched id counts the tokens. Ascending id.
std::vector<std::pair<int, int>> ReferenceCloseCounts(const GridIndex& grid,
                                                      TrajectoryView query) {
  const std::span<const int64_t> keys = grid.cell_keys();
  const std::span<const uint64_t> offsets = grid.cell_offsets();
  const std::span<const int32_t> ids = grid.posting_ids();
  const auto size = static_cast<size_t>(grid.dataset_size());
  std::vector<uint64_t> point_stamp(size, 0);
  std::vector<int> counts(size, 0);
  std::vector<int> touched;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const uint64_t token = qi + 1;
    const Point& p = query[qi];
    for (const int64_t key : CloseCellKeys(p.x, p.y, grid.cell_size())) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      if (it == keys.end() || *it != key) continue;
      const auto c = static_cast<size_t>(it - keys.begin());
      for (uint64_t at = offsets[c]; at < offsets[c + 1]; ++at) {
        const auto id = static_cast<size_t>(ids[at]);
        if (point_stamp[id] == token) continue;
        point_stamp[id] = token;
        if (counts[id]++ == 0) touched.push_back(static_cast<int>(id));
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  std::vector<std::pair<int, int>> out;
  for (const int id : touched) {
    out.emplace_back(id, counts[static_cast<size_t>(id)]);
  }
  return out;
}

/// The GBP filter's output given the true close counts (ascending id):
/// survivors of close(q, T) >= mu * m in ascending id order, or with
/// `ordered` by descending count then ascending id.
std::vector<int> ExpectedCandidates(
    const std::vector<std::pair<int, int>>& counts, size_t m, double mu,
    bool ordered) {
  const double threshold = mu * static_cast<double>(m);
  std::vector<std::pair<int, int>> order;
  for (const auto& [id, count] : counts) {
    if (static_cast<double>(count) >= threshold) order.emplace_back(-count, id);
  }
  if (ordered) std::sort(order.begin(), order.end());
  std::vector<int> ids;
  for (const auto& [neg_count, id] : order) ids.push_back(id);
  return ids;
}

/// Every GBP output of `grid` for `query` against the stamp reference.
void ExpectCountsMatchReference(const GridIndex& grid, TrajectoryView query,
                                const std::string& where) {
  const std::vector<std::pair<int, int>> expected =
      ReferenceCloseCounts(grid, query);
  ASSERT_EQ(grid.CloseCounts(query), expected) << where;
  for (const double mu : {0.0, 0.1, 0.5, 1.0}) {
    ASSERT_EQ(grid.Candidates(query, mu),
              ExpectedCandidates(expected, query.size(), mu, false))
        << where << " mu=" << mu;
    std::vector<int> got;
    grid.OrderedCandidates(query, mu, &got);
    ASSERT_EQ(got, ExpectedCandidates(expected, query.size(), mu, true))
        << where << " mu=" << mu;
  }
}

/// The identity inputs: 300 Porto trajectories plus 12 copies with one
/// point each in a saturated edge cell (huge, infinite or NaN coordinates),
/// the default cell of the 300, and queries of m = 1, 63, 64, 65 and 130
/// points (one, one full and a spilling mask block, two full blocks plus
/// two points), walked through corpus points so they touch many
/// trajectories, with repeated cells (every point taken twice in a row) and
/// special points mixed in.
struct CountIdentityInputs {
  Dataset corpus;
  double cell = 0;
  std::vector<Trajectory> queries;
};

CountIdentityInputs MakeCountIdentityInputs() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  CountIdentityInputs in;
  in.corpus = GenerateTaxiDataset(PortoProfile(300));
  in.cell = DefaultCellSize(in.corpus.Bounds());
  const std::vector<Point> specials = {
      Point{1e300, -1e300}, Point{-1e300, 1e300}, Point{inf, 2.0},
      Point{-inf, -inf},    Point{nan, 1.0},      Point{2.0, nan}};
  Rng rng(2024);
  for (int i = 0; i < 12; ++i) {
    const TrajectoryRef source =
        in.corpus[static_cast<int>(rng.UniformInt(0, 299))];
    std::vector<Point> pts(source.points().begin(), source.points().end());
    pts[static_cast<size_t>(i) % pts.size()] =
        specials[static_cast<size_t>(i) % specials.size()];
    in.corpus.Add(Trajectory(std::move(pts)));
  }
  for (const int m : {1, 63, 64, 65, 130}) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<Point> pts;
      while (static_cast<int>(pts.size()) < m) {
        const TrajectoryRef source =
            in.corpus[static_cast<int>(rng.UniformInt(0, 299))];
        for (const Point& p : source.points()) {
          if (static_cast<int>(pts.size()) == m) break;
          pts.push_back(p);
          if (variant == 1 && static_cast<int>(pts.size()) < m) {
            pts.push_back(p);
          }
        }
      }
      if (variant == 2) {
        for (size_t k = 0; k < specials.size(); ++k) {
          pts[(k * 37) % pts.size()] = specials[k];
        }
      }
      in.queries.push_back(Trajectory(std::move(pts)));
    }
  }
  return in;
}

TEST(GridCountIdentityTest, MaskCountMatchesStampCountOnEveryShape) {
  const CountIdentityInputs in = MakeCountIdentityInputs();
  const Dataset& corpus = in.corpus;
  const double cell = in.cell;

  // The whole corpus, two shard views (one with begin_id() > 0) and a grid
  // borrowed from a v4 snapshot.
  std::vector<std::pair<std::string, GridIndex>> grids;
  grids.emplace_back("whole", GridIndex(corpus, cell));
  grids.emplace_back("shard 0", GridIndex(DatasetView(corpus, 0, 150), cell));
  grids.emplace_back("shard 1",
                     GridIndex(DatasetView(corpus, 150, corpus.size() - 150),
                               cell));
  const std::string path = ::testing::TempDir() + "/gbp_identity.snap";
  V4WriteOptions options;
  options.grid_cell = cell;
  ASSERT_TRUE(WriteSnapshotV4(corpus, path, options).ok());
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(opened.value().grid(), nullptr);
  ASSERT_TRUE(opened.value().grid()->borrowed());
  grids.emplace_back("v4", *opened.value().grid());

  for (const auto& [name, grid] : grids) {
    for (const Trajectory& query : in.queries) {
      ExpectCountsMatchReference(
          grid, query, name + " m=" + std::to_string(query.size()));
    }
  }
  // A grid on the same thread after a larger one: the scratch stays clean.
  ExpectCountsMatchReference(grids[1].second, in.queries.back(),
                             "shard again");
  std::remove(path.c_str());
}

// The live delta's grid goes through the same counter, its read cap cutting
// each cell's postings: a DeltaGridIndex over the identity corpus, read at
// caps 0, 1, size/2 and size (and uncapped), must give what the stamp
// reference gives over a CSR grid of the same prefix.
TEST(GridCountIdentityTest, DeltaCountMatchesStampCountAtEveryCap) {
  const CountIdentityInputs in = MakeCountIdentityInputs();
  DeltaGridIndex delta(in.cell);
  for (int id = 0; id < in.corpus.size(); ++id) delta.Add(in.corpus[id].View());
  const int size = in.corpus.size();
  for (const int cap : {0, 1, size / 2, size, DeltaGridIndex::kAll}) {
    const GridIndex prefix(DatasetView(in.corpus, 0, std::min(cap, size)),
                           in.cell);
    for (const Trajectory& query : in.queries) {
      const std::string where = "cap=" + std::to_string(cap) +
                                " m=" + std::to_string(query.size());
      const std::vector<std::pair<int, int>> expected =
          ReferenceCloseCounts(prefix, query);
      std::vector<std::pair<int, int>> counts;
      delta.CloseCounts(query, &counts, cap);
      ASSERT_EQ(counts, expected) << where;
      for (const double mu : {0.0, 0.1, 0.5, 1.0}) {
        std::vector<int> got;
        delta.Candidates(query, mu, &got, cap);
        ASSERT_EQ(got, ExpectedCandidates(expected, query.size(), mu, false))
            << where << " mu=" << mu;
        delta.OrderedCandidates(query, mu, &got, cap);
        ASSERT_EQ(got, ExpectedCandidates(expected, query.size(), mu, true))
            << where << " mu=" << mu;
      }
    }
  }
}

// Copying a grid shares its arrays, built or adopted: a copy keeps counting
// identically after its source (and, for a v4 grid, the snapshot) is gone.
TEST(GridCountIdentityTest, CopiedGridCountsAfterItsSourceIsGone) {
  const CountIdentityInputs in = MakeCountIdentityInputs();
  auto built = std::make_unique<GridIndex>(in.corpus, in.cell);
  const GridIndex copy(*built);
  GridIndex assigned;
  assigned = *built;
  EXPECT_EQ(copy.posting_ids().data(), built->posting_ids().data());
  EXPECT_FALSE(copy.borrowed());
  EXPECT_EQ(copy.stats().index_bytes, built->stats().index_bytes);
  built.reset();

  const std::string path = ::testing::TempDir() + "/gbp_copy.snap";
  V4WriteOptions options;
  options.grid_cell = in.cell;
  ASSERT_TRUE(WriteSnapshotV4(in.corpus, path, options).ok());
  auto opened =
      std::make_unique<Result<MmapSnapshot>>(MmapSnapshot::Open(path));
  ASSERT_TRUE(opened->ok()) << opened->status().ToString();
  ASSERT_NE(opened->value().grid(), nullptr);
  const GridIndex mapped_copy(*opened->value().grid());
  opened.reset();
  std::remove(path.c_str());
  EXPECT_TRUE(mapped_copy.borrowed());

  for (const Trajectory& query : in.queries) {
    const std::string m = " m=" + std::to_string(query.size());
    ExpectCountsMatchReference(copy, query, "copy" + m);
    ExpectCountsMatchReference(assigned, query, "assigned" + m);
    ExpectCountsMatchReference(mapped_copy, query, "v4 copy" + m);
    ASSERT_EQ(copy.CloseCounts(query), mapped_copy.CloseCounts(query)) << m;
  }
}

// ---------------------------------------------------------------------------
// KpfBoundPlan: the vector min-scan and the early abandon against the scalar
// KpfLowerBoundEstimate oracle.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Every spec the plan distinguishes: the three Euclidean substitution
/// costs (vector scan) and EDR/WED (scalar MinSub).
std::vector<DistanceSpec> AllBoundSpecs(const WedCostFns* wed) {
  return {DistanceSpec::Dtw(), DistanceSpec::Frechet(),
          DistanceSpec::Erp(Point{5.0, 5.0}), DistanceSpec::Edr(1.5),
          DistanceSpec::Wed(wed)};
}

WedCostFns TestWedFns() {
  WedCostFns fns;
  fns.sub = [](const Point& a, const Point& b) {
    return 0.5 * EuclideanDistance(a, b);
  };
  fns.ins = [](const Point& p) { return 1.0 + 0.01 * std::fabs(p.x); };
  fns.del = [](const Point& p) { return 0.75 + 0.01 * std::fabs(p.y); };
  return fns;
}

/// Seeded random walks plus the adversarial shapes: data lengths 1-9 (every
/// vector tail), 1-point queries, duplicate points, +-1e300, infinite and
/// NaN coordinates at the front, middle and back of a trajectory.
std::vector<Trajectory> BoundCorpus(Rng* rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Trajectory> corpus;
  for (int len = 1; len <= 9; ++len) corpus.push_back(RandomWalk(rng, len));
  for (int i = 0; i < 12; ++i) {
    corpus.push_back(
        RandomWalk(rng, static_cast<int>(rng->UniformInt(10, 70))));
  }
  corpus.push_back(Trajectory(std::vector<Point>(7, Point{3.0, 4.0})));
  const std::vector<Point> specials = {
      Point{1e300, -1e300}, Point{-1e300, 1e300}, Point{inf, 2.0},
      Point{-inf, -inf},    Point{nan, 1.0},      Point{2.0, nan}};
  for (const Point& special : specials) {
    for (const int len : {1, 5, 13}) {
      for (const int at : {0, len / 2, len - 1}) {
        const Trajectory walk = RandomWalk(rng, len);
        std::vector<Point> pts(walk.points().begin(), walk.points().end());
        pts[static_cast<size_t>(at)] = special;
        corpus.push_back(Trajectory(std::move(pts)));
      }
    }
  }
  return corpus;
}

/// Abandon thresholds for a candidate whose full bound is `full`: the
/// bound itself and its neighbours, the extremes, and six random fractions
/// of it.
std::vector<double> AbandonThresholds(double full, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> thresholds = {0.0,
                                    full,
                                    std::nextafter(full, 0.0),
                                    std::nextafter(full, inf),
                                    inf,
                                    1e-300,
                                    1e300};
  for (int t = 0; t < 6; ++t) {
    thresholds.push_back(rng->Uniform(0.0, 3.0) *
                         (std::isfinite(full) ? full : 50.0));
  }
  return thresholds;
}

class KpfBoundPlanIdentityTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    was_enabled_ = simd::Enabled();
    simd::SetEnabled(GetParam());
  }
  void TearDown() override { simd::SetEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_P(KpfBoundPlanIdentityTest, MatchesScalarEstimateBitForBitAndAbandons) {
  Rng rng(4242);
  const WedCostFns wed = TestWedFns();
  const std::vector<Trajectory> corpus = BoundCorpus(&rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Queries: a 1-point query, random walks and duplicates, then a NaN, huge
  // or infinite point first, in the middle (a key point at r = 0.3) and
  // last, so the abandon meets such terms after a prefix.
  std::vector<Trajectory> queries = {
      Trajectory{Point{4.0, 6.0}}, RandomWalk(&rng, 3), RandomWalk(&rng, 40),
      Trajectory(std::vector<Point>(5, Point{2.0, 2.0}))};
  for (const Point special :
       {Point{nan, 1.0}, Point{1e300, -1e300}, Point{2.0, inf}}) {
    for (const int at : {0, 6, 11}) {
      const Trajectory walk = RandomWalk(&rng, 12);
      std::vector<Point> pts(walk.points().begin(), walk.points().end());
      pts[static_cast<size_t>(at)] = special;
      queries.push_back(Trajectory(std::move(pts)));
    }
  }

  KpfBoundPlan plan;
  int compared = 0;
  int abandoned = 0;
  for (const DistanceSpec& spec : AllBoundSpecs(&wed)) {
    for (const double rate : {0.3, 1.0}) {
      for (const Trajectory& query : queries) {
        plan.Bind(spec, query, rate);
        for (const Trajectory& data : corpus) {
          const double full = KpfLowerBoundEstimate(spec, query, data, rate);
          const std::string where = std::string(ToString(spec.kind)) +
                                    " r=" + std::to_string(rate) + " m=" +
                                    std::to_string(query.size()) +
                                    " n=" + std::to_string(data.size());
          ASSERT_EQ(Bits(plan.LowerBound(data)), Bits(full)) << where;
          ++compared;
          for (const double t : AbandonThresholds(full, &rng)) {
            if (std::isnan(t)) continue;
            const double partial = plan.LowerBound(data, t);
            ASSERT_EQ(partial >= t, full >= t) << where << " t=" << t;
            if (Bits(partial) != Bits(full)) {
              // An abandon returns a bound that decides, never above the
              // full one.
              ++abandoned;
              ASSERT_LE(partial, full) << where << " t=" << t;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
  EXPECT_GT(abandoned, 0);  // the thresholds do reach the abandon path
}

// Finite walks of every length 1-70 (every chunk tail, boxes of one to nine
// chunks) against queries whose key counts leave every key-group padding:
// the box path serves all of them, so its box-prefix and box-suffix
// abandons run wherever a threshold falls below the full bound.
TEST_P(KpfBoundPlanIdentityTest, FiniteWalksAbandonAtOrBelowTheFullBound) {
  Rng rng(977);
  const WedCostFns wed = TestWedFns();
  std::vector<Trajectory> corpus;
  for (int len = 1; len <= 70; ++len) corpus.push_back(RandomWalk(&rng, len));
  std::vector<Trajectory> queries;
  for (const int len : {1, 2, 7, 9, 16, 17, 33, 40, 65}) {
    queries.push_back(RandomWalk(&rng, len));
  }
  KpfBoundPlan plan;
  int compared = 0;
  int abandoned = 0;
  for (const DistanceSpec& spec : AllBoundSpecs(&wed)) {
    for (const double rate : {0.3, 1.0}) {
      for (const Trajectory& query : queries) {
        plan.Bind(spec, query, rate);
        for (const Trajectory& data : corpus) {
          const double full = KpfLowerBoundEstimate(spec, query, data, rate);
          const std::string where = std::string(ToString(spec.kind)) +
                                    " r=" + std::to_string(rate) + " m=" +
                                    std::to_string(query.size()) +
                                    " n=" + std::to_string(data.size());
          ASSERT_EQ(Bits(plan.LowerBound(data)), Bits(full)) << where;
          ++compared;
          for (const double t : AbandonThresholds(full, &rng)) {
            const double partial = plan.LowerBound(data, t);
            ASSERT_EQ(partial >= t, full >= t) << where << " t=" << t;
            ASSERT_LE(partial, full) << where << " t=" << t;
            if (Bits(partial) != Bits(full)) ++abandoned;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 6000);
  EXPECT_GT(abandoned, 10000);
}

INSTANTIATE_TEST_SUITE_P(Dispatch, KpfBoundPlanIdentityTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Vector" : "Scalar";
                         });

}  // namespace
}  // namespace trajsearch
