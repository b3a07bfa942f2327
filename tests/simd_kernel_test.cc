// SIMD column-kernel identity gate: the vectorized WED sweep (distance/dp.h)
// must be bit-for-bit identical to the scalar loop it replaces — per-Extend
// return values, SweepLowerBound after every step (the one-ulp-exact
// early-abandon contract), and every column cell — across ragged query
// lengths that exercise full lane groups, tail lanes, and all-tail columns.
// Also gates the structure-of-arrays plumbing the kernels read: Dataset /
// LiveDataset coordinate columns must mirror the AoS point storage exactly,
// on static corpora, live deltas, and across compaction re-homing.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/live_dataset.h"
#include "distance/dp.h"
#include "io/snapshot_v4.h"
#include "search/searcher.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

/// Scoped override of the runtime SIMD dispatch switch.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(bool on) : prev_(simd::Enabled()) {
    simd::SetEnabled(on);
  }
  ~SimdModeGuard() { simd::SetEnabled(prev_); }

 private:
  bool prev_;
};

/// Bitwise equality — EXPECT_EQ on doubles would conflate +0.0/-0.0 and the
/// contract is stronger than numeric equality.
void ExpectSameBits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << label << ": " << a << " vs " << b;
}

/// Runs a scalar-dispatch and a vector-dispatch stepper of the same type in
/// lockstep over `n` data points (with one mid-stream Reset, the RLS split
/// pattern) and requires bit-identical Extend values, SweepLowerBound after
/// every step, and final column cells.
template <typename Dp>
void ExpectLockstep(Dp& scalar_dp, Dp& vector_dp, int n, int m,
                    const std::string& label) {
  ASSERT_FALSE(scalar_dp.vectorized()) << label;
  for (int pass = 0; pass < 2; ++pass) {
    scalar_dp.Reset();
    vector_dp.Reset();
    for (int j = 0; j < n; ++j) {
      if (pass == 1 && j == n / 2) {  // split mid-sweep like the RLS scan
        scalar_dp.Reset();
        vector_dp.Reset();
      }
      const double a = scalar_dp.Extend(j);
      const double b = vector_dp.Extend(j);
      ExpectSameBits(a, b, label + " extend j=" + std::to_string(j));
      ExpectSameBits(scalar_dp.SweepLowerBound(), vector_dp.SweepLowerBound(),
                     label + " lower bound j=" + std::to_string(j));
    }
    for (int x = 0; x < m; ++x) {
      ExpectSameBits(scalar_dp.Cell(x), vector_dp.Cell(x),
                     label + " cell x=" + std::to_string(x));
    }
  }
}

class SimdKernelTest : public ::testing::Test {
 protected:
  // Ragged query lengths around the lane width: all-tail (m < lanes), exactly
  // one lane group, full groups plus every possible tail remainder.
  std::vector<int> RaggedLengths() const {
    std::vector<int> lengths;
    for (int m = 1; m <= 2 * simd::kLanes + 3; ++m) lengths.push_back(m);
    lengths.push_back(33);
    return lengths;
  }
};

TEST_F(SimdKernelTest, DispatchProbeReportsIsa) {
  // Logged so a dispatch difference between CI runners is diagnosable from
  // the test output alone.
  std::printf("dispatch: isa=%s, lanes=%d, batch lanes=%d, runtime %s\n",
              simd::IsaName(), simd::Width(), simd::BatchLanes(),
              simd::Enabled() ? "enabled" : "disabled (scalar)");
  EXPECT_GE(simd::Width(), 1);
  EXPECT_STRNE(simd::IsaName(), "");
  // The toggle round-trips (SetEnabled(true) is clamped to hardware support,
  // so Enabled() afterwards equals "vector lanes actually available").
  const bool prev = simd::Enabled();
  simd::SetEnabled(false);
  EXPECT_FALSE(simd::Enabled());
  simd::SetEnabled(true);
  EXPECT_EQ(simd::Enabled(), simd::kLanes > 1);
  simd::SetEnabled(prev);
}

TEST_F(SimdKernelTest, WedSteppersBitIdenticalAcrossDispatch) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(20250801);
  for (const int m : RaggedLengths()) {
    const Trajectory query = RandomWalk(&rng, m);
    const Trajectory data = RandomWalk(&rng, 17 + m);
    const int n = static_cast<int>(data.size());
    DpArena arena;
    const PointCols qc = FillCols(query.View(), &arena);

    const EdrCosts edr_scalar{query, data, 1.5};
    const EdrCosts edr_vector{query, data, 1.5, qc};
    WedColumnDp<EdrCosts> edr_s(m, edr_scalar);
    WedColumnDp<EdrCosts> edr_v(m, edr_vector);
    ASSERT_TRUE(edr_v.vectorized());
    ExpectLockstep(edr_s, edr_v, n, m, "edr m=" + std::to_string(m));

    const ErpCosts erp_scalar{query, data, Point{5.0, 5.0}};
    const ErpCosts erp_vector{query, data, Point{5.0, 5.0}, qc};
    WedColumnDp<ErpCosts> erp_s(m, erp_scalar);
    WedColumnDp<ErpCosts> erp_v(m, erp_vector);
    ASSERT_TRUE(erp_v.vectorized());
    ExpectLockstep(erp_s, erp_v, n, m, "erp m=" + std::to_string(m));
  }
}

TEST_F(SimdKernelTest, DisabledDispatchFallsBackToScalar) {
  SimdModeGuard guard(false);
  Rng rng(3);
  const Trajectory query = RandomWalk(&rng, 9);
  const Trajectory data = RandomWalk(&rng, 12);
  DpArena arena;
  const PointCols qc = FillCols(query.View(), &arena);
  // Columns bound but dispatch off: the stepper must capture the scalar path.
  const ErpCosts costs{query, data, Point{5.0, 5.0}, qc};
  WedColumnDp<ErpCosts> dp(9, costs);
  EXPECT_FALSE(dp.vectorized());
  dp.Reset();
  const double got = dp.Extend(0);
  const simd::CellCounts counts = dp.TakeCellCounts();
  EXPECT_EQ(counts.vector_cells, 0u);
  EXPECT_EQ(counts.scalar_cells, 9u);
  EXPECT_GT(got, 0);
}

TEST_F(SimdKernelTest, CellCountersAccountForEveryCell) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(4);
  const int m = 2 * simd::kLanes + 1;  // full groups + a 1-wide tail
  const Trajectory query = RandomWalk(&rng, m);
  const Trajectory data = RandomWalk(&rng, 10);
  DpArena arena;
  const PointCols qc = FillCols(query.View(), &arena);
  const ErpCosts costs{query, data, Point{5.0, 5.0}, qc};
  WedColumnDp<ErpCosts> dp(m, costs);
  ASSERT_TRUE(dp.vectorized());
  dp.Reset();
  const int extends = 7;
  for (int j = 0; j < extends; ++j) (void)dp.Extend(j);
  const simd::CellCounts counts = dp.TakeCellCounts();
  const uint64_t vec_per_col = static_cast<uint64_t>(m - m % simd::kLanes);
  EXPECT_EQ(counts.vector_cells, vec_per_col * extends);
  EXPECT_EQ(counts.scalar_cells,
            static_cast<uint64_t>(m) * extends - vec_per_col * extends);
  // TakeCellCounts drains.
  const simd::CellCounts drained = dp.TakeCellCounts();
  EXPECT_EQ(drained.vector_cells, 0u);
  EXPECT_EQ(drained.scalar_cells, 0u);
}

TEST_F(SimdKernelTest, DatasetColumnsMirrorThePool) {
  Rng rng(5);
  Dataset dataset("soa");
  std::vector<Trajectory> source;
  for (int i = 0; i < 6; ++i) {
    source.push_back(RandomWalk(&rng, 8 + i * 3));
    dataset.Add(source.back());
  }
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef traj = dataset[id];
    const PointCols cols = dataset.cols(id);
    ASSERT_FALSE(cols.empty());
    for (int k = 0; k < traj.size(); ++k) {
      ExpectSameBits(cols.x[k], traj.points()[static_cast<size_t>(k)].x,
                     "x id=" + std::to_string(id));
      ExpectSameBits(cols.y[k], traj.points()[static_cast<size_t>(k)].y,
                     "y id=" + std::to_string(id));
    }
  }

  // The snapshot round trip (shadow-column sections written, then copied
  // into owned columns by the heap loader) must keep the same columns.
  const std::string path = ::testing::TempDir() + "/soa_cols.snap";
  ASSERT_TRUE(WriteSnapshotV4(dataset, path).ok());
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int id = 0; id < loaded.value().size(); ++id) {
    const TrajectoryRef traj = loaded.value()[id];
    const PointCols cols = loaded.value().cols(id);
    for (int k = 0; k < traj.size(); ++k) {
      ExpectSameBits(cols.x[k], traj.points()[static_cast<size_t>(k)].x,
                     "snap x id=" + std::to_string(id));
      ExpectSameBits(cols.y[k], traj.points()[static_cast<size_t>(k)].y,
                     "snap y id=" + std::to_string(id));
    }
  }
  std::remove(path.c_str());
}

TEST_F(SimdKernelTest, LiveCorpusColumnsSurviveAppendsAndCompaction) {
  Rng rng(6);
  Dataset base("live-soa");
  for (int i = 0; i < 4; ++i) base.Add(RandomWalk(&rng, 10));
  LiveDataset live(std::move(base));
  std::vector<Trajectory> appended;
  for (int i = 0; i < 5; ++i) {
    appended.push_back(RandomWalk(&rng, 7 + i));
    live.Append(appended.back());
  }

  auto expect_cols_match = [](const CorpusView& view, const std::string& tag) {
    for (int id = 0; id < view.size(); ++id) {
      const TrajectoryRef traj = view[id];
      const PointCols cols = view.cols(id);
      ASSERT_FALSE(cols.empty()) << tag << " id=" << id;
      for (int k = 0; k < traj.size(); ++k) {
        ExpectSameBits(cols.x[k], traj.points()[static_cast<size_t>(k)].x,
                       tag + " x id=" + std::to_string(id));
        ExpectSameBits(cols.y[k], traj.points()[static_cast<size_t>(k)].y,
                       tag + " y id=" + std::to_string(id));
      }
    }
  };

  expect_cols_match(live.View(), "delta");

  // Compact exactly the delta the compactor pinned; trajectories appended
  // while the "rebuild" was in flight survive and are re-homed into fresh
  // chunks, which must carry their columns with them.
  const CorpusView pinned = live.View();
  for (int i = 0; i < 2; ++i) live.Append(RandomWalk(&rng, 11));  // racers
  Dataset merged = LiveDataset::Merge(pinned);
  live.AdoptBase(std::make_shared<const Dataset>(std::move(merged)),
                 pinned.delta_size());
  const CorpusView after = live.View();
  EXPECT_EQ(after.delta_size(), 2);  // the racers survived the swap
  expect_cols_match(after, "post-compaction");

  // Fresh appends after the swap land in new chunks with columns.
  live.Append(RandomWalk(&rng, 9));
  expect_cols_match(live.View(), "post-compaction append");
}

TEST_F(SimdKernelTest, ErpInsCachePathBitIdenticalToRecomputation) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(7);
  Dataset dataset("erp-cache");
  for (int i = 0; i < 8; ++i) dataset.Add(RandomWalk(&rng, 20 + i));
  const Trajectory query = RandomWalk(&rng, 9);

  auto searcher = MakeSearcher(Algorithm::kExactS, DistanceSpec::Erp(Point{5.0, 5.0}));
  ASSERT_TRUE(searcher.ok());
  std::unique_ptr<QueryRun> plan = searcher.value()->Bind(query);
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef traj = dataset[id];
    const SearchResult plain = plan->Run(traj, kNoCutoff);
    const SearchResult cached = plan->RunCols(traj, dataset.cols(id), kNoCutoff);
    ExpectSameBits(plain.distance, cached.distance,
                   "erp ins-cache id=" + std::to_string(id));
    EXPECT_EQ(plain.range, cached.range) << "id=" << id;
  }
}

}  // namespace
}  // namespace trajsearch
