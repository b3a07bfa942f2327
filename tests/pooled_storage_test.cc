// Storage-engine equivalence: the pooled Dataset (flat point pool + offset
// table, CSR grid index) must be hit-for-hit identical to a per-trajectory
// baseline that replicates the pre-refactor layout — heap-allocated
// trajectories and a node-based hash-map grid — across search algorithms and
// every pruning toggle combination. Also pins down the pool layout
// invariants that the snapshot sections and the shard views rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/fingerprint.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/engine.h"
#include "search/topk.h"
#include "tests/legacy_baseline.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

std::vector<Trajectory> WalkTrajectories(int count, int mean_len,
                                         uint64_t seed) {
  std::vector<Trajectory> trajs;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    trajs.push_back(RandomWalk(
        &rng, mean_len + static_cast<int>(rng.UniformInt(-5, 5))));
  }
  return trajs;
}

Dataset Pooled(const std::vector<Trajectory>& trajs) {
  Dataset dataset("pooled");
  for (const Trajectory& t : trajs) dataset.Add(t);
  return dataset;
}

/// \brief Pre-refactor reference engine: owns one heap allocation per
/// trajectory and the shared LegacyGrid hash-map index, and replicates
/// Algorithm 3's stage order (GBP candidates ascending, bound check against
/// the current K-th best, then the per-trajectory search) line for line.
class BaselineEngine {
 public:
  BaselineEngine(const std::vector<Trajectory>& data, EngineOptions options)
      : data_(data), options_(options) {
    if (options_.use_gbp && !data.empty()) {
      double cell = options_.cell_size;
      if (cell <= 0) {
        BoundingBox box;
        for (const Trajectory& t : data) {
          for (const Point& p : t.points()) box.Extend(p);
        }
        cell = std::max(box.Width(), box.Height()) / 256.0;
        if (cell <= 0) cell = 1.0;
      }
      std::vector<TrajectoryView> views(data.begin(), data.end());
      grid_ = std::make_unique<testing::LegacyGrid>(views, cell);
    }
    auto made = MakeSearcher(options_.algorithm, options_.spec);
    searcher_ = made.MoveValue();
  }

  std::vector<std::pair<int, int>> CloseCounts(TrajectoryView query) const {
    return grid_->CloseCounts(query, static_cast<int>(data_.size()));
  }

  std::vector<EngineHit> Query(TrajectoryView query,
                               int excluded_id = -1) const {
    std::vector<int> candidates;
    if (options_.use_gbp) {
      const double threshold = options_.mu * static_cast<double>(query.size());
      for (const auto& [id, count] : CloseCounts(query)) {
        if (static_cast<double>(count) >= threshold) candidates.push_back(id);
      }
    } else {
      for (int id = 0; id < static_cast<int>(data_.size()); ++id) {
        candidates.push_back(id);
      }
    }
    const bool bound_enabled = options_.use_kpf || options_.use_osf;
    TopKHeap heap(options_.top_k);
    for (const int id : candidates) {
      if (id == excluded_id) continue;
      const Trajectory& data = data_[static_cast<size_t>(id)];
      if (data.empty()) continue;
      if (bound_enabled && heap.Full()) {
        const double bound =
            options_.use_osf
                ? OsfLowerBound(options_.spec, query, data)
                : KpfLowerBoundEstimate(options_.spec, query, data,
                                        options_.sample_rate);
        if (bound >= heap.Worst()) continue;
      }
      heap.Offer(EngineHit{id, searcher_->Bind(query)->Run(data, kNoCutoff)});
    }
    return heap.Sorted();
  }

 private:
  const std::vector<Trajectory>& data_;
  EngineOptions options_;
  std::unique_ptr<testing::LegacyGrid> grid_;
  std::unique_ptr<Searcher> searcher_;
};

void ExpectIdenticalHits(const std::vector<EngineHit>& pooled,
                         const std::vector<EngineHit>& baseline,
                         const std::string& label) {
  ASSERT_EQ(pooled.size(), baseline.size()) << label;
  for (size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].trajectory_id, baseline[i].trajectory_id)
        << label << " rank " << i;
    // Bitwise-equal distances: same storage bits in, same arithmetic out.
    EXPECT_EQ(pooled[i].result.distance, baseline[i].result.distance)
        << label << " rank " << i;
    EXPECT_EQ(pooled[i].result.range, baseline[i].result.range)
        << label << " rank " << i;
  }
}

TEST(PooledStorageTest, PoolLayoutIsBitwiseIdenticalToSources) {
  const std::vector<Trajectory> trajs = WalkTrajectories(20, 15, 301);
  const Dataset dataset = Pooled(trajs);
  ASSERT_EQ(dataset.size(), static_cast<int>(trajs.size()));
  size_t expected_points = 0;
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef ref = dataset[id];
    EXPECT_EQ(ref.id(), id);
    ASSERT_EQ(ref.size(), trajs[static_cast<size_t>(id)].size());
    for (int i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i], trajs[static_cast<size_t>(id)][i]);
    }
    // Views are zero-copy: each trajectory starts where the previous ended.
    EXPECT_EQ(ref.points().data(), dataset.pool().data() + expected_points);
    expected_points += static_cast<size_t>(ref.size());
    EXPECT_EQ(Fingerprint(ref.View()),
              Fingerprint(trajs[static_cast<size_t>(id)].View()));
  }
  EXPECT_EQ(dataset.point_count(), expected_points);
  EXPECT_EQ(dataset.offsets().size(), trajs.size() + 1);
  EXPECT_EQ(dataset.offsets().back(), expected_points);
}

TEST(PooledStorageTest, CsrGridMatchesHashMapGridExactly) {
  const std::vector<Trajectory> trajs = WalkTrajectories(25, 20, 303);
  const Dataset dataset = Pooled(trajs);
  const GridIndex index(dataset, /*cell_size=*/1.5);
  EngineOptions ref_options;
  ref_options.use_gbp = true;
  ref_options.cell_size = 1.5;
  const BaselineEngine reference(trajs, ref_options);
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    const Trajectory query = RandomWalk(&rng, 4 + round);
    EXPECT_EQ(index.CloseCounts(query), reference.CloseCounts(query))
        << "round " << round;
  }
}

class PooledEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PooledEquivalenceTest, EngineMatchesPerTrajectoryBaseline) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 53 + 19;
  const std::vector<Trajectory> trajs = WalkTrajectories(30, 16, seed);
  const Dataset dataset = Pooled(trajs);
  Rng rng(seed + 1);
  const Trajectory query = RandomWalk(&rng, 6);

  // Pruning toggle grid: GBP x (KPF | OSF | neither), the engine's full
  // configuration space (OSF replaces KPF when both are set, so the pair
  // (kpf, osf) = (true, true) is not a distinct configuration).
  struct Toggle {
    bool gbp, kpf, osf;
  };
  const Toggle toggles[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, false},   {false, false, true}, {true, false, true},
  };
  for (const Algorithm algorithm :
       {Algorithm::kCma, Algorithm::kExactS, Algorithm::kPos,
        Algorithm::kPss}) {
    for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
      for (const Toggle& t : toggles) {
        EngineOptions options;
        options.spec = spec;
        options.algorithm = algorithm;
        options.use_gbp = t.gbp;
        options.use_kpf = t.kpf;
        options.use_osf = t.osf;
        options.mu = 0.2;
        options.sample_rate = 0.5;  // sampled KPF: estimate, still exact DP
        options.top_k = 3;
        // The baseline evaluates candidates in ascending id order; under a
        // *sampled* (unsound) estimate the evaluation order can change
        // which candidates the estimate prunes, so pin the engine to the
        // same order (this test is about storage equivalence, not the
        // PR-4 ordering — plan_equivalence_test gates that under a sound
        // bound).
        options.order_candidates = false;
        const SearchEngine engine(&dataset, options);
        const BaselineEngine baseline(trajs, options);
        const std::string label =
            std::string(ToString(algorithm)) + "/" +
            std::string(ToString(spec.kind)) + " gbp=" +
            std::to_string(t.gbp) + " kpf=" + std::to_string(t.kpf) +
            " osf=" + std::to_string(t.osf);
        ExpectIdenticalHits(engine.Query(query), baseline.Query(query),
                            label);
        // Exclusion routes identically through both storage layouts.
        ExpectIdenticalHits(engine.Query(query, nullptr, 3),
                            baseline.Query(query, 3), label + " excl");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PooledEquivalenceTest, ::testing::Range(0, 4));

TEST(PooledStorageTest, AddingAViewOfTheOwnPoolIsSafe) {
  // Add(dataset[i]) duplicates a trajectory; the inserted view aliases the
  // pool that grows underneath it, which must not invalidate the copy.
  Dataset dataset("self");
  Rng rng(11);
  for (int i = 0; i < 4; ++i) dataset.Add(RandomWalk(&rng, 50));
  const Trajectory snapshot(dataset[2].View());
  for (int round = 0; round < 6; ++round) {  // force pool reallocations
    const int id = dataset.Add(dataset[2]);
    ASSERT_EQ(dataset[id].size(), snapshot.size());
    for (int i = 0; i < snapshot.size(); ++i) {
      ASSERT_EQ(dataset[id][i], snapshot[i]) << "round " << round;
    }
  }
}

TEST(DatasetViewTest, RangeViewsCoverTheCorpusWithStableIds) {
  const std::vector<Trajectory> trajs = WalkTrajectories(17, 12, 307);
  const Dataset dataset = Pooled(trajs);
  const DatasetView all(dataset);
  EXPECT_EQ(all.size(), dataset.size());
  EXPECT_EQ(all.point_count(), dataset.point_count());

  const DatasetView mid(dataset, 5, 7);
  EXPECT_EQ(mid.size(), 7);
  EXPECT_EQ(mid.begin_id(), 5);
  for (int local = 0; local < mid.size(); ++local) {
    EXPECT_EQ(mid.global_id(local), 5 + local);
    // The view hands out the same pool bytes as the global accessor.
    EXPECT_EQ(mid[local].points().data(), dataset[5 + local].points().data());
    EXPECT_EQ(mid[local].id(), 5 + local);
  }
  // A view's bounds equal the bounds over exactly its trajectories.
  BoundingBox expected;
  for (int id = 5; id < 12; ++id) {
    for (const Point& p : dataset[id].points()) expected.Extend(p);
  }
  const BoundingBox got = mid.Bounds();
  EXPECT_EQ(got.min_x, expected.min_x);
  EXPECT_EQ(got.max_x, expected.max_x);
  EXPECT_EQ(got.min_y, expected.min_y);
  EXPECT_EQ(got.max_y, expected.max_y);
}

// Dataset::Bounds and DatasetView::Bounds run one vector pass over the pool
// on AVX2 under vector dispatch, and the BoundingBox::Extend loop otherwise
// (scalar dispatch, NEON, -DTRAJSEARCH_SIMD=OFF). Both return the same
// extremes: NaN coordinates are skipped, +-inf and +-1e300 are ordinary
// values. The sign of a zero extreme MAY differ: the lanes see the points
// in another order, and of two equal zeros each path keeps the first it
// saw, so one may return -0.0 where the other returns +0.0. Nothing reads
// that sign: Width(), Height() and Center() compare equal, and
// DefaultCellSize() — what shapes every grid and every written snapshot —
// is bit-identical.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Equal as values: == (so -0.0 matches +0.0), or both NaN (an infinite
/// box has a NaN centre, and an all-infinite one a NaN width).
bool SameValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

void ExpectSameBox(const BoundingBox& got, const BoundingBox& want,
                   const std::string& context) {
  const double got_edges[] = {got.min_x, got.min_y, got.max_x, got.max_y};
  const double want_edges[] = {want.min_x, want.min_y, want.max_x,
                               want.max_y};
  for (int e = 0; e < 4; ++e) {
    const bool zero_pair = got_edges[e] == 0 && want_edges[e] == 0;
    EXPECT_TRUE(SameBits(got_edges[e], want_edges[e]) || zero_pair)
        << context << " edge " << e << ": " << got_edges[e] << " vs "
        << want_edges[e];
  }
  EXPECT_TRUE(SameValue(got.Width(), want.Width())) << context;
  EXPECT_TRUE(SameValue(got.Height(), want.Height())) << context;
  EXPECT_TRUE(SameValue(got.Center().x, want.Center().x)) << context;
  EXPECT_TRUE(SameValue(got.Center().y, want.Center().y)) << context;
  EXPECT_TRUE(SameBits(DefaultCellSize(got), DefaultCellSize(want)))
      << context;
}

TEST(DatasetBoundsTest, VectorPassMatchesTheExtendLoop) {
  const bool dispatch = simd::Enabled();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {nan, inf, -inf, 1e300, -1e300, 0.0, -0.0};
  Rng rng(4242);
  // mode 0: ordinary values; 1: a fifth special; 2: only zeros, NaN and
  // one ordinary value, so zero extremes of both signs are common; 3: all
  // NaN, so the box stays at its initial edges.
  for (int mode = 0; mode < 4; ++mode) {
    for (int length = 0; length <= 37; ++length) {
      for (int pad = 0; pad < 4; ++pad) {
        Dataset dataset("bounds");
        // `pad` 1-point trajectories put the measured one at pool offset
        // `pad`, so the vector loads start unaligned to a point pair too.
        for (int i = 0; i < pad; ++i) dataset.Add(Trajectory{{-5.0, 9.0}});
        std::vector<Point> points;
        for (int i = 0; i < length; ++i) {
          Point p{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
          double* coords[] = {&p.x, &p.y};
          for (double* c : coords) {
            if (mode == 1 && rng.Uniform() < 0.2) {
              *c = specials[rng.UniformInt(0, 6)];
            } else if (mode == 2) {
              const double pick[] = {0.0, -0.0, nan, *c};
              *c = pick[rng.UniformInt(0, 3)];
            } else if (mode == 3) {
              *c = nan;
            }
          }
          points.push_back(p);
        }
        dataset.Add(Trajectory(points));
        BoundingBox view_want;
        for (const Point& p : points) view_want.Extend(p);
        BoundingBox all_want;
        for (const Point& p : dataset.pool()) all_want.Extend(p);
        const DatasetView view(dataset, pad, 1);
        for (const bool vector : {false, true}) {
          simd::SetEnabled(vector);
          const std::string context =
              "mode " + std::to_string(mode) + " length " +
              std::to_string(length) + " pad " + std::to_string(pad) +
              (vector ? " vector" : " scalar");
          ExpectSameBox(view.Bounds(), view_want, context + " view");
          ExpectSameBox(dataset.Bounds(), all_want, context + " dataset");
          ExpectSameBox(dataset.Stats().bounds, all_want, context + " stats");
        }
      }
    }
  }
  simd::SetEnabled(dispatch);
}

}  // namespace
}  // namespace trajsearch
