// Batch-kernel identity gate (second SIMD axis): the multi-sweep batch
// steppers (distance/dp.h) and the drivers built on them — multi-sweep
// ExactS, the scan plans' batched suffix sweeps, lane-parallel CMA — must be
// bit-for-bit identical to the scalar oracles they replace, across ragged
// lengths, adversarial cutoffs that kill lanes mid-sweep, lane refill, and
// every lane-clamp width (1, 2, kLanes). Also gates cell-counter
// conservation: vector_cells + scalar_cells is dispatch-invariant, and
// lane_abandons fires only for cutoff-retired lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "distance/dp.h"
#include "search/cma.h"
#include "search/exacts.h"
#include "search/pos_pss.h"
#include "search/searcher.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

class SimdModeGuard {
 public:
  explicit SimdModeGuard(bool on) : prev_(simd::Enabled()) {
    simd::SetEnabled(on);
  }
  ~SimdModeGuard() { simd::SetEnabled(prev_); }

 private:
  bool prev_;
};

/// Scoped lane-count clamp (restores the full width on exit).
class LaneClampGuard {
 public:
  explicit LaneClampGuard(int lanes) { simd::SetBatchLanes(lanes); }
  ~LaneClampGuard() { simd::SetBatchLanes(simd::kLanes); }
};

void ExpectSameBits(double a, double b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << label << ": " << a << " vs " << b;
}

/// Drives the batch stepper with each lane sweeping the same data from a
/// different start position (the multi-sweep ExactS shape, lanes ragged by
/// construction) and a scalar stepper replaying each lane's sweep, requiring
/// bit-identical per-step results and bounds.
template <typename BatchDp, typename ScalarDp, typename Costs>
void ExpectLaneLockstep(BatchDp& bdp, ScalarDp& sdp, const Costs& costs,
                        TrajectoryView data, const std::string& label) {
  constexpr int kW = simd::kLanes;
  const int n = static_cast<int>(data.size());
  ASSERT_GE(n, kW);
  int start[kW];
  int j[kW];
  double sx[kW] = {};
  double sy[kW] = {};
  double ins[kW] = {};
  // Scalar replay per lane: distances and bounds recorded per step.
  std::vector<std::vector<double>> want_dist(kW), want_bound(kW);
  for (int l = 0; l < kW; ++l) {
    start[l] = l * (n / kW);  // ragged: lane l sweeps n - start[l] steps
    j[l] = start[l];
    sdp.Reset();
    for (int t = start[l]; t < n; ++t) {
      want_dist[static_cast<size_t>(l)].push_back(sdp.Extend(t));
      want_bound[static_cast<size_t>(l)].push_back(sdp.SweepLowerBound());
    }
    bdp.ResetLane(l);
  }
  const auto stage = [&](int l, int t) {
    const Point p = data[static_cast<size_t>(t)];
    sx[l] = p.x;
    sy[l] = p.y;
    if constexpr (requires { costs.Ins(t); }) ins[l] = costs.Ins(t);
  };
  bool done = false;
  for (int step = 0; !done; ++step) {
    done = true;
    int live = 0;
    for (int l = 0; l < kW; ++l) {
      if (j[l] < n) {
        stage(l, j[l]);
        ++live;
      }
    }
    if (live == 0) break;
    bdp.Extend(sx, sy, ins, live);
    for (int l = 0; l < kW; ++l) {
      if (j[l] >= n) continue;
      const std::string at = label + " lane=" + std::to_string(l) +
                             " step=" + std::to_string(step);
      ExpectSameBits(bdp.LaneResult(l),
                     want_dist[static_cast<size_t>(l)][static_cast<size_t>(
                         j[l] - start[l])],
                     at + " result");
      ExpectSameBits(bdp.LaneBound(l),
                     want_bound[static_cast<size_t>(l)][static_cast<size_t>(
                         j[l] - start[l])],
                     at + " bound");
      if (++j[l] < n) done = false;
    }
  }
}

class BatchKernelTest : public ::testing::Test {
 protected:
  // Query lengths around the lane width: all-tail, one group, ragged tails.
  std::vector<int> RaggedLengths() const {
    std::vector<int> lengths;
    for (int m = 1; m <= 2 * simd::kLanes + 3; ++m) lengths.push_back(m);
    lengths.push_back(33);
    return lengths;
  }
};

TEST_F(BatchKernelTest, BatchSteppersLockstepWithScalarOracle) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(20250807);
  for (const int m : RaggedLengths()) {
    const Trajectory query = RandomWalk(&rng, m);
    const Trajectory data = RandomWalk(&rng, 3 * simd::kLanes + 5);
    const std::string tag = " m=" + std::to_string(m);

    const EdrCosts edr{query, data, 1.5};
    WedColumnDp<EdrCosts> edr_s(m, edr);
    WedBatchDp<EdrCosts> edr_b(m, edr);
    ExpectLaneLockstep(edr_b, edr_s, edr, data, "edr" + tag);

    const ErpCosts erp{query, data, Point{5.0, 5.0}};
    WedColumnDp<ErpCosts> erp_s(m, erp);
    WedBatchDp<ErpCosts> erp_b(m, erp);
    ExpectLaneLockstep(erp_b, erp_s, erp, data, "erp" + tag);

    const EuclideanSub sub{query, data};
    DtwColumnDp<EuclideanSub> dtw_s(m, sub);
    DtwBatchDp<SubRef<EuclideanSub>> dtw_b(m, SubRef<EuclideanSub>{&sub});
    ExpectLaneLockstep(dtw_b, dtw_s, sub, data, "dtw" + tag);

    FrechetColumnDp<EuclideanSub> fre_s(m, sub);
    FrechetBatchDp<SubRef<EuclideanSub>> fre_b(m, SubRef<EuclideanSub>{&sub});
    ExpectLaneLockstep(fre_b, fre_s, sub, data, "frechet" + tag);
  }
}

TEST_F(BatchKernelTest, ExactSBatchMatchesScalarUnderAdversarialCutoffs) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(20250808);
  const int m = simd::kLanes + 2;
  const Trajectory query = RandomWalk(&rng, m);
  // n well above kLanes so lanes retire and refill several times over.
  const Trajectory data = RandomWalk(&rng, 4 * simd::kLanes + 7);
  const int n = static_cast<int>(data.size());
  const EdrCosts costs{query, data, 1.5};
  WedColumnDp<EdrCosts> sdp(m, costs);
  const SearchResult unbounded = ExactSWithDp(sdp, n);
  ASSERT_TRUE(unbounded.found());
  const auto stage = [&](int l, int j, double* sx, double* sy, double* ins) {
    const Point p = data[static_cast<size_t>(j)];
    sx[l] = p.x;
    sy[l] = p.y;
    ins[l] = costs.Ins(j);
  };
  // Cutoffs straddling the optimum: tiny (kills every lane at its first
  // abandon opportunity), at/below/above the best, and unbounded.
  const double cutoffs[] = {1e-6,
                            unbounded.distance * 0.5,
                            unbounded.distance,
                            unbounded.distance * 1.0000001,
                            unbounded.distance * 2.0,
                            kNoCutoff};
  for (const double cutoff : cutoffs) {
    const std::string tag = "cutoff=" + std::to_string(cutoff);
    WedColumnDp<EdrCosts> oracle(m, costs);
    const SearchResult want = ExactSWithDp(oracle, n, cutoff);
    WedBatchDp<EdrCosts> bdp(m, costs);
    const SearchResult got =
        ExactSBatchWithDp(bdp, n, cutoff, simd::kLanes, stage);
    ExpectSameBits(got.distance, want.distance, tag + " distance");
    EXPECT_EQ(got.range, want.range) << tag;
    // Cell conservation: the batch driver extends exactly the cells the
    // scalar schedule does (bit-identical bounds abandon on the same step).
    const simd::CellCounts sc = oracle.TakeCellCounts();
    const simd::CellCounts bc = bdp.TakeCellCounts();
    EXPECT_EQ(bc.vector_cells, sc.scalar_cells) << tag;
    EXPECT_EQ(bc.scalar_cells, 0u) << tag;
    if (cutoff != kNoCutoff && cutoff <= unbounded.distance) {
      // A tight cutoff must retire lanes mid-sweep (n - 1 starts can abandon
      // before their final end position).
      EXPECT_GT(bc.lane_abandons, 0u) << tag;
    }
    if (cutoff == kNoCutoff) {
      EXPECT_EQ(bc.lane_abandons, 0u) << tag;
    }
  }
}

TEST_F(BatchKernelTest, ExactSBatchRefillsLanesAcrossWidths) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(20250809);
  const int m = 2 * simd::kLanes + 1;
  const Trajectory query = RandomWalk(&rng, m);
  const Trajectory data = RandomWalk(&rng, 5 * simd::kLanes + 3);
  const int n = static_cast<int>(data.size());
  const EuclideanSub sub{query, data};
  DtwColumnDp<EuclideanSub> oracle(m, sub);
  const SearchResult want = ExactSWithDp(oracle, n);
  const auto stage = [&](int l, int j, double* sx, double* sy,
                         double* /*ins*/) {
    const Point p = data[static_cast<size_t>(j)];
    sx[l] = p.x;
    sy[l] = p.y;
  };
  // Every lane count (1 = scalar schedule in lane 0, 2 = NEON shape, kLanes)
  // merges refilled sweeps to the same lexicographic best.
  for (int lanes = 1; lanes <= simd::kLanes; ++lanes) {
    DtwBatchDp<SubRef<EuclideanSub>> bdp(m, SubRef<EuclideanSub>{&sub});
    const SearchResult got = ExactSBatchWithDp(bdp, n, kNoCutoff, lanes, stage);
    const std::string tag = "lanes=" + std::to_string(lanes);
    ExpectSameBits(got.distance, want.distance, tag);
    EXPECT_EQ(got.range, want.range) << tag;
  }
}

/// End-to-end plan identity across lane clamps: results from a batched plan
/// must be bit-identical to scalar dispatch for every clamp width, for both
/// Run (per candidate) and RunBatch (cross-candidate lanes).
void ExpectPlanBatchIdentity(Algorithm algorithm, const DistanceSpec& spec,
                             const std::string& label) {
  Rng rng(20250810);
  Dataset dataset("batch-identity");
  for (int i = 0; i < 9; ++i) dataset.Add(RandomWalk(&rng, 14 + i));
  const Trajectory query = RandomWalk(&rng, 7);

  auto made = MakeSearcher(algorithm, spec);
  ASSERT_TRUE(made.ok()) << label;
  std::unique_ptr<Searcher> searcher = made.MoveValue();

  // Scalar oracle results (dispatch off).
  std::vector<SearchResult> want(static_cast<size_t>(dataset.size()));
  {
    SimdModeGuard off(false);
    std::unique_ptr<QueryRun> plan = searcher->Bind(query);
    EXPECT_EQ(plan->batch_width(), 1) << label;
    for (int id = 0; id < dataset.size(); ++id) {
      want[static_cast<size_t>(id)] =
          plan->Run(dataset[id], kNoCutoff);
    }
  }

  SimdModeGuard on(true);
  for (const int lanes : {1, 2, simd::kLanes}) {
    LaneClampGuard clamp(lanes);
    std::unique_ptr<QueryRun> plan = searcher->Bind(query);
    const int width = plan->batch_width();
    EXPECT_LE(width, lanes) << label;
    const std::string tag = label + " lanes=" + std::to_string(lanes);
    // Per-candidate path.
    for (int id = 0; id < dataset.size(); ++id) {
      const SearchResult got =
          plan->Run(dataset[id], kNoCutoff);
      ExpectSameBits(got.distance, want[static_cast<size_t>(id)].distance,
                     tag + " run id=" + std::to_string(id));
      EXPECT_EQ(got.range, want[static_cast<size_t>(id)].range) << tag;
    }
    // Cross-candidate batches (full lanes, then a ragged final batch).
    std::vector<QueryRun::RunBatchItem> items;
    for (int id = 0; id < dataset.size(); ++id) {
      items.push_back({dataset[id].View(), {}});
    }
    std::vector<SearchResult> got(items.size());
    for (size_t begin = 0; begin < items.size();) {
      const int count = static_cast<int>(
          std::min(static_cast<size_t>(width), items.size() - begin));
      plan->RunBatch(items.data() + begin, count, kNoCutoff,
                     got.data() + begin);
      begin += static_cast<size_t>(count);
    }
    for (size_t id = 0; id < got.size(); ++id) {
      ExpectSameBits(got[id].distance, want[id].distance,
                     tag + " runbatch id=" + std::to_string(id));
      EXPECT_EQ(got[id].range, want[id].range) << tag;
    }
  }
}

TEST_F(BatchKernelTest, CmaRunBatchBitIdenticalAcrossLaneClamps) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    ExpectPlanBatchIdentity(Algorithm::kCma, spec,
                            "cma/" + std::string(ToString(spec.kind)));
  }
}

TEST_F(BatchKernelTest, ExactSRunBatchBitIdenticalAcrossLaneClamps) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    ExpectPlanBatchIdentity(Algorithm::kExactS, spec,
                            "exacts/" + std::string(ToString(spec.kind)));
  }
}

TEST_F(BatchKernelTest, PssRunBatchBitIdenticalAcrossLaneClamps) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    ExpectPlanBatchIdentity(Algorithm::kPss, spec,
                            "pss/" + std::string(ToString(spec.kind)));
  }
}

TEST_F(BatchKernelTest, CmaBatchCutoffsMatchSequentialAbandons) {
  if (simd::kLanes == 1) GTEST_SKIP() << "built without SIMD lanes";
  SimdModeGuard guard(true);
  Rng rng(20250811);
  Dataset dataset("cma-cutoff");
  for (int i = 0; i < 2 * simd::kLanes; ++i) {
    dataset.Add(RandomWalk(&rng, 18 + i));
  }
  const Trajectory query = RandomWalk(&rng, 8);
  uint64_t total_abandons = 0;
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    const std::string label = "cma-cutoff/" + std::string(ToString(spec.kind));
    auto made = MakeSearcher(Algorithm::kCma, spec);
    ASSERT_TRUE(made.ok()) << label;
    std::unique_ptr<QueryRun> plan = made.value()->Bind(query);
    const int width = plan->batch_width();
    if (width <= 1) continue;
    // A mid-range cutoff: some candidates abandon (per-lane row-floor
    // crossings), others complete — both paths must match the sequential
    // Run results exactly, and lane abandons must be recorded.
    std::vector<double> full(static_cast<size_t>(dataset.size()));
    for (int id = 0; id < dataset.size(); ++id) {
      full[static_cast<size_t>(id)] =
          plan->Run(dataset[id], kNoCutoff).distance;
    }
    std::vector<double> sorted = full;
    std::sort(sorted.begin(), sorted.end());
    const double cutoff = sorted[sorted.size() / 2];  // median kills ~half
    (void)plan->TakeSimdStats();
    std::vector<SearchResult> want(static_cast<size_t>(dataset.size()));
    for (int id = 0; id < dataset.size(); ++id) {
      want[static_cast<size_t>(id)] =
          plan->Run(dataset[id], cutoff);
    }
    std::vector<QueryRun::RunBatchItem> items;
    for (int id = 0; id < dataset.size(); ++id) {
      items.push_back({dataset[id].View(), {}});
    }
    (void)plan->TakeSimdStats();
    std::vector<SearchResult> got(items.size());
    for (size_t begin = 0; begin < items.size();) {
      const int count = static_cast<int>(
          std::min(static_cast<size_t>(width), items.size() - begin));
      plan->RunBatch(items.data() + begin, count, cutoff, got.data() + begin);
      begin += static_cast<size_t>(count);
    }
    // A lane retires once its row floor plus suffix floor reaches the
    // cutoff (search/cma.h). For WED the row floor includes the deleted
    // prefix, but the suffix floor adds what the remaining query points
    // must still cost, so the prefix alone no longer has to cross the
    // cutoff. Whether a given distance retires a lane on this data is not
    // guaranteed, so retirements are asserted in aggregate after the loop.
    total_abandons += plan->TakeSimdStats().lane_abandons;
    for (size_t id = 0; id < got.size(); ++id) {
      const std::string tag = label + " id=" + std::to_string(id);
      // Exact-below-cutoff contract: below the cutoff, bit-identical; at or
      // above, both report >= cutoff.
      if (want[id].distance < cutoff) {
        ExpectSameBits(got[id].distance, want[id].distance, tag);
        EXPECT_EQ(got[id].range, want[id].range) << tag;
      } else {
        EXPECT_GE(got[id].distance, cutoff) << tag;
      }
    }
  }
  EXPECT_GT(total_abandons, 0u) << "no lane ever retired under the cutoff";
}

/// Candidates the CMA suffix floor must survive: ragged random walks
/// (1-point ones included), duplicates, and +-1e300, +-inf and NaN
/// coordinates at the start, middle and end.
std::vector<Trajectory> SuffixFloorCorpus(Rng* rng) {
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 8; ++i) corpus.push_back(RandomWalk(rng, 1 + 3 * i));
  corpus.push_back(RandomWalk(rng, 1));
  corpus.push_back(corpus[4]);
  corpus.push_back(corpus[4]);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Point odd[] = {{1e300, 2.0}, {-1e300, -1e300}, {inf, 3.0},
                       {4.0, -inf}, {nan, 1.0}, {2.0, nan}};
  int at = 0;
  for (const Point p : odd) {
    std::vector<Point> pts(corpus[5].View().begin(), corpus[5].View().end());
    pts[static_cast<size_t>(at % 3 == 0 ? 0 : at % 3 == 1 ? 7 : 15)] = p;
    corpus.emplace_back(std::move(pts));
    ++at;
  }
  return corpus;
}

/// Fixed-cutoff window sink that records each result and its cutoff.
class RecordingSink final : public QueryRun::WindowSink {
 public:
  RecordingSink(double cutoff, size_t count)
      : cutoff_(cutoff), results_(count), done_(count, 0) {}
  double Cutoff() override { return cutoff_; }
  void Done(int item, const SearchResult& result, double cutoff) override {
    results_[static_cast<size_t>(item)] = result;
    ++done_[static_cast<size_t>(item)];
    EXPECT_EQ(cutoff, cutoff_);
  }
  const std::vector<SearchResult>& results() const { return results_; }
  const std::vector<int>& done() const { return done_; }

 private:
  double cutoff_;
  std::vector<SearchResult> results_;
  std::vector<int> done_;
};

uint64_t Cells(const simd::CellCounts& c) {
  return c.vector_cells + c.scalar_cells;
}

// The suffix floor must keep every CMA path exact below the cutoff and make
// them all abandon at the same row: the scalar rows (Run under scalar
// dispatch), the column rows (Run under vector dispatch), the lane kernel
// (RunBatch, RunWindow with refills) at every lane clamp. Cutoffs sit on
// every distinct full distance and its nextafter neighbours, where an
// unsound floor (one that rounds above what the DP computes) would abandon
// a run that ties or beats the cutoff.
TEST_F(BatchKernelTest, CmaSuffixFloorExactAndSameAbandonRowOnEveryPath) {
  Rng rng(20261018);
  const std::vector<Trajectory> corpus = SuffixFloorCorpus(&rng);
  Dataset dataset("suffix-floor");
  for (const Trajectory& t : corpus) dataset.Add(t);
  const int size = dataset.size();
  std::vector<Trajectory> queries = {RandomWalk(&rng, 7), RandomWalk(&rng, 1),
                                     RandomWalk(&rng, 13)};
  for (const Point p : {Point{1e300, 1.0}, Point{-std::numeric_limits<
                                                      double>::infinity(),
                                                  2.0},
                        Point{3.0, std::numeric_limits<double>::quiet_NaN()}}) {
    std::vector<Point> pts(queries[0].View().begin(), queries[0].View().end());
    pts[3] = p;
    queries.emplace_back(std::move(pts));
  }
  WedCostFns fns;
  fns.sub = [](const Point& a, const Point& b) {
    return EuclideanDistance(a, b);
  };
  fns.ins = [](const Point&) { return 0.5; };
  fns.del = [](const Point&) { return 0.75; };
  std::vector<DistanceSpec> specs = testing::PaperGpsSpecs();
  specs.push_back(DistanceSpec::Wed(&fns));

  uint64_t abandons = 0;
  for (const DistanceSpec& spec : specs) {
    auto made = MakeSearcher(Algorithm::kCma, spec);
    ASSERT_TRUE(made.ok());
    const Searcher& searcher = *made.value();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string label = std::string(ToString(spec.kind)) +
                                " query=" + std::to_string(qi);
      SimdModeGuard off(false);
      std::unique_ptr<QueryRun> oracle = searcher.Bind(queries[qi]);
      std::vector<double> cutoffs;
      std::vector<SearchResult> full(static_cast<size_t>(size));
      for (int id = 0; id < size; ++id) {
        full[static_cast<size_t>(id)] = oracle->Run(dataset[id], kNoCutoff);
        const double d = full[static_cast<size_t>(id)].distance;
        if (std::isnan(d) || d == kNoCutoff) continue;
        cutoffs.push_back(d);
        cutoffs.push_back(std::nextafter(d, 0.0));
        cutoffs.push_back(std::nextafter(d, kNoCutoff));
      }
      std::sort(cutoffs.begin(), cutoffs.end());
      cutoffs.erase(std::unique(cutoffs.begin(), cutoffs.end()),
                    cutoffs.end());
      for (const double cutoff : cutoffs) {
        const std::string tag = label + " cutoff=" + std::to_string(cutoff);
        // Scalar rows: the reference results and abandon rows.
        std::vector<SearchResult> want(static_cast<size_t>(size));
        std::vector<uint64_t> want_cells(static_cast<size_t>(size));
        (void)oracle->TakeSimdStats();
        for (int id = 0; id < size; ++id) {
          want[static_cast<size_t>(id)] = oracle->Run(dataset[id], cutoff);
          want_cells[static_cast<size_t>(id)] = Cells(oracle->TakeSimdStats());
          const SearchResult& f = full[static_cast<size_t>(id)];
          const SearchResult& w = want[static_cast<size_t>(id)];
          if (f.distance < cutoff) {
            ExpectSameBits(w.distance, f.distance, tag + " exact");
            EXPECT_EQ(w.range, f.range) << tag;
          } else {
            EXPECT_GE(w.distance, cutoff) << tag << " id=" << id;
          }
        }
        const auto expect_same = [&](const SearchResult& got, int id,
                                     const std::string& path) {
          ExpectSameBits(got.distance, want[static_cast<size_t>(id)].distance,
                         tag + " " + path + " id=" + std::to_string(id));
          EXPECT_EQ(got.range, want[static_cast<size_t>(id)].range)
              << tag << " " << path << " id=" << id;
        };
        SimdModeGuard on(true);
        for (const int lanes : {1, 2, simd::kLanes}) {
          LaneClampGuard clamp(lanes);
          std::unique_ptr<QueryRun> plan = searcher.Bind(queries[qi]);
          const std::string at = "lanes=" + std::to_string(lanes);
          for (int id = 0; id < size; ++id) {
            expect_same(plan->Run(dataset[id], cutoff),
                        id, at + " run");
            EXPECT_EQ(Cells(plan->TakeSimdStats()),
                      want_cells[static_cast<size_t>(id)])
                << tag << " " << at << " run cells id=" << id;
          }
          std::vector<QueryRun::RunBatchItem> items;
          for (int id = 0; id < size; ++id) {
            items.push_back({dataset[id].View(), {}});
          }
          // Per-candidate abandon rows in the lane kernel: each candidate
          // beside itself.
          const int width = plan->batch_width();
          if (width >= 2) {
            for (int id = 0; id < size; ++id) {
              const QueryRun::RunBatchItem pair[2] = {
                  items[static_cast<size_t>(id)],
                  items[static_cast<size_t>(id)]};
              SearchResult got[2];
              plan->RunBatch(pair, 2, cutoff, got);
              expect_same(got[0], id, at + " runbatch pair");
              expect_same(got[1], id, at + " runbatch pair");
              EXPECT_EQ(Cells(plan->TakeSimdStats()),
                        2 * want_cells[static_cast<size_t>(id)])
                  << tag << " " << at << " runbatch cells id=" << id;
            }
          }
          // Mixed batches of batch_width().
          std::vector<SearchResult> got(items.size());
          uint64_t batch_cells = 0;
          for (size_t begin = 0; begin < items.size();) {
            const int count = static_cast<int>(std::min(
                static_cast<size_t>(width), items.size() - begin));
            plan->RunBatch(items.data() + begin, count, cutoff,
                           got.data() + begin);
            begin += static_cast<size_t>(count);
          }
          const simd::CellCounts batch = plan->TakeSimdStats();
          batch_cells = Cells(batch);
          abandons += batch.lane_abandons;
          uint64_t total = 0;
          for (int id = 0; id < size; ++id) {
            expect_same(got[static_cast<size_t>(id)], id, at + " runbatch");
            total += want_cells[static_cast<size_t>(id)];
          }
          EXPECT_EQ(batch_cells, total) << tag << " " << at << " runbatch";
          // The whole corpus as one window: lanes refill as they finish.
          RecordingSink sink(cutoff, items.size());
          plan->RunWindow(items.data(), size, &sink);
          for (int id = 0; id < size; ++id) {
            EXPECT_EQ(sink.done()[static_cast<size_t>(id)], 1) << tag;
            expect_same(sink.results()[static_cast<size_t>(id)], id,
                        at + " runwindow");
          }
          EXPECT_EQ(Cells(plan->TakeSimdStats()), total)
              << tag << " " << at << " runwindow";
        }
      }
    }
  }
  if (simd::kLanes > 1) {
    EXPECT_GT(abandons, 0u) << "no lane ever retired under the cutoffs";
  }
}

// The floor itself: never above what the complete DP computes (scaled for
// sums), all zero-rule under kNoCutoff, absent for custom WED costs and for
// non-finite inputs, and the same under both dispatch modes.
TEST_F(BatchKernelTest, CmaSuffixFloorNeverExceedsTheFullDistance) {
  Rng rng(20261019);
  const std::vector<Trajectory> corpus = SuffixFloorCorpus(&rng);
  WedCostFns fns;
  fns.sub = [](const Point& a, const Point& b) {
    return EuclideanDistance(a, b);
  };
  fns.ins = [](const Point&) { return 1.0; };
  fns.del = [](const Point&) { return 1.0; };
  std::vector<DistanceSpec> specs = testing::PaperGpsSpecs();
  specs.push_back(DistanceSpec::Wed(&fns));
  for (const DistanceSpec& spec : specs) {
    for (int qlen : {1, 5, 12}) {
      const Trajectory query = RandomWalk(&rng, qlen);
      for (const Trajectory& data : corpus) {
        const std::string tag = std::string(ToString(spec.kind)) +
                                " m=" + std::to_string(qlen) +
                                " n=" + std::to_string(data.size());
        std::vector<double> sfx[2];
        CmaAbandonRule rule[2];
        for (const bool vector : {false, true}) {
          SimdModeGuard mode(vector);
          DpArena arena;
          CmaSuffixFloor floor;
          floor.Bind(spec, query, &arena);
          EXPECT_EQ(floor.Fill(data, kNoCutoff, nullptr).sfx, nullptr) << tag;
          std::vector<double>& out = sfx[vector ? 1 : 0];
          out.assign(static_cast<size_t>(qlen) + 1, -1.0);
          rule[vector ? 1 : 0] = floor.Fill(data, 1.0, out.data());
        }
        bool finite = true;
        for (const Point& p : data.View()) {
          finite = finite && std::isfinite(p.x) && std::isfinite(p.y);
        }
        if (spec.kind == DistanceKind::kWed || !finite) {
          EXPECT_EQ(rule[0].sfx, nullptr) << tag;
          EXPECT_EQ(rule[1].sfx, nullptr) << tag;
          continue;
        }
        ASSERT_NE(rule[0].sfx, nullptr) << tag;
        for (size_t i = 0; i <= static_cast<size_t>(qlen); ++i) {
          ExpectSameBits(sfx[0][i], sfx[1][i], tag + " dispatch");
        }
        EXPECT_EQ(sfx[0][static_cast<size_t>(qlen)], 0.0) << tag;
        const double full = CmaSearch(spec, query, data).distance;
        const double floor0 =
            rule[0].max ? sfx[0][0] : sfx[0][0] * rule[0].scale;
        EXPECT_LE(floor0, full) << tag;
        // The floor is monotone: a suffix never costs more than a longer one.
        for (int i = 1; i <= qlen; ++i) {
          EXPECT_LE(sfx[0][static_cast<size_t>(i)],
                    sfx[0][static_cast<size_t>(i - 1)])
              << tag;
        }
      }
    }
  }
}

// EDR compares squared distances with <= eps^2, so a data point exactly eps
// away matches. Its box is exactly eps away too, and the floor must count
// it as a match (0), not a miss: here every point ties, the full distance
// is 0, and a floor above 0 would abandon the exact match.
TEST_F(BatchKernelTest, CmaSuffixFloorCountsEdrTiesAsMatches) {
  const double eps = 1.5;
  std::vector<Point> q, d;
  for (int i = 0; i < 9; ++i) {
    q.push_back(Point{static_cast<double>(i), static_cast<double>(2 * i)});
    d.push_back(Point{i + eps, static_cast<double>(2 * i)});
  }
  const Trajectory query(q), data(d);
  const DistanceSpec spec = DistanceSpec::Edr(eps);
  ASSERT_EQ(CmaSearch(spec, query, data).distance, 0.0);
  DpArena arena;
  CmaSuffixFloor floor;
  floor.Bind(spec, query, &arena);
  std::vector<double> sfx(q.size() + 1);
  const CmaAbandonRule rule = floor.Fill(data, 1.0, sfx.data());
  ASSERT_NE(rule.sfx, nullptr);
  EXPECT_EQ(sfx[0], 0.0);
  auto made = MakeSearcher(Algorithm::kCma, spec);
  ASSERT_TRUE(made.ok());
  std::unique_ptr<QueryRun> plan = made.value()->Bind(query);
  EXPECT_EQ(plan->Run(data, 0.5).distance, 0.0);
}

/// Window sink that behaves like a top-1: every result below the current
/// cutoff tightens it to one ulp above that result. Records the cutoff each
/// Cutoff() call returned, in call order.
class TighteningSink final : public QueryRun::WindowSink {
 public:
  TighteningSink(double start, size_t count)
      : current_(start), results_(count), cutoffs_(count, -1.0) {}
  double Cutoff() override {
    calls_.push_back(current_);
    return current_;
  }
  void Done(int item, const SearchResult& result, double cutoff) override {
    results_[static_cast<size_t>(item)] = result;
    cutoffs_[static_cast<size_t>(item)] = cutoff;
    if (result.distance < current_) {
      current_ = std::nextafter(result.distance, kNoCutoff);
    }
  }
  const std::vector<double>& calls() const { return calls_; }
  const std::vector<SearchResult>& results() const { return results_; }
  const std::vector<double>& cutoffs() const { return cutoffs_; }

 private:
  double current_;
  std::vector<SearchResult> results_;
  std::vector<double> cutoffs_;
  std::vector<double> calls_;
};

// A refilled lane starts under the cutoff read when it starts, not the one
// its lane started with: CMA reads the sink once per candidate, in window
// order, and reports that value back with the candidate's result, which
// equals the scalar run under it.
TEST_F(BatchKernelTest, CmaWindowReadsTheCutoffWhenEachLaneRefills) {
  Rng rng(20261020);
  Dataset dataset("cma-window");
  for (int i = 0; i < 5 * simd::kLanes + 3; ++i) {
    dataset.Add(RandomWalk(&rng, 40 - i));
  }
  const Trajectory query = RandomWalk(&rng, 9);
  std::vector<QueryRun::RunBatchItem> items;
  for (int id = 0; id < dataset.size(); ++id) {
    items.push_back({dataset[id].View(), {}});
  }
  for (const DistanceSpec& spec : testing::PaperGpsSpecs()) {
    auto made = MakeSearcher(Algorithm::kCma, spec);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<QueryRun> oracle;
    {
      SimdModeGuard off(false);
      oracle = made.value()->Bind(query);
    }
    for (const int lanes : {1, 2, simd::kLanes}) {
      SimdModeGuard on(true);
      LaneClampGuard clamp(lanes);
      const std::string tag = std::string(ToString(spec.kind)) +
                              " lanes=" + std::to_string(lanes);
      std::unique_ptr<QueryRun> plan = made.value()->Bind(query);
      TighteningSink sink(kNoCutoff, items.size());
      plan->RunWindow(items.data(), static_cast<int>(items.size()), &sink);
      ASSERT_EQ(sink.calls().size(), items.size()) << tag;
      bool tightened = false;
      for (size_t id = 0; id < items.size(); ++id) {
        const double cutoff = sink.cutoffs()[id];
        EXPECT_EQ(cutoff, sink.calls()[id]) << tag << " id=" << id;
        tightened = tightened || cutoff != kNoCutoff;
        const SearchResult want =
            oracle->Run(dataset[static_cast<int>(id)], cutoff);
        ExpectSameBits(sink.results()[id].distance, want.distance,
                       tag + " id=" + std::to_string(id));
        EXPECT_EQ(sink.results()[id].range, want.range) << tag;
      }
      EXPECT_TRUE(tightened) << tag;
    }
  }
}

TEST_F(BatchKernelTest, BatchLanesClampRoundTrips) {
  const int prev = simd::BatchLanes();
  simd::SetBatchLanes(1);
  EXPECT_EQ(simd::BatchLanes(), 1);
  simd::SetBatchLanes(2);
  EXPECT_EQ(simd::BatchLanes(), std::min(2, simd::kLanes));
  simd::SetBatchLanes(1000);
  EXPECT_EQ(simd::BatchLanes(), simd::kLanes);
  simd::SetBatchLanes(-3);
  EXPECT_EQ(simd::BatchLanes(), 1);
  simd::SetBatchLanes(prev);
}

}  // namespace
}  // namespace trajsearch
