// SIMD column-kernel identity gate: the vectorized WED sweep (distance/dp.h)
// must be bit-for-bit identical to the scalar loop it replaces — per-Extend
// return values, SweepLowerBound after every step (the one-ulp-exact
// early-abandon contract), and every column cell — across ragged query
// lengths that exercise full lane groups, tail lanes, and all-tail columns.
// Also gates the ExactS/ERP insertion cache, which vector dispatch fills
// from a column copy of each candidate: Run must match scalar dispatch.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "distance/dp.h"
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

TEST_F(SimdKernelTest, ErpInsCachePathBitIdenticalToRecomputation) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  Rng rng(7);
  Dataset dataset("erp-cache");
  for (int i = 0; i < 8; ++i) dataset.Add(RandomWalk(&rng, 20 + i));
  const Trajectory query = RandomWalk(&rng, 9);

  auto searcher = MakeSearcher(Algorithm::kExactS, DistanceSpec::Erp(Point{5.0, 5.0}));
  ASSERT_TRUE(searcher.ok());
  // Dispatch is captured at Bind: the scalar plan recomputes every gap
  // distance, the vector plan reads the per-candidate cache.
  std::unique_ptr<QueryRun> plain_plan;
  {
    SimdModeGuard off(false);
    plain_plan = searcher.value()->Bind(query);
  }
  SimdModeGuard on(true);
  std::unique_ptr<QueryRun> cached_plan = searcher.value()->Bind(query);
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef traj = dataset[id];
    const SearchResult plain = plain_plan->Run(traj, kNoCutoff);
    const SearchResult cached = cached_plan->Run(traj, kNoCutoff);
    ExpectSameBits(plain.distance, cached.distance,
                   "erp ins-cache id=" + std::to_string(id));
    EXPECT_EQ(plain.range, cached.range) << "id=" << id;
  }
}

}  // namespace
}  // namespace trajsearch
