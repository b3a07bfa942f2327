#include <gtest/gtest.h>

#include "search/cma.h"
#include "search/exacts.h"
#include "search/greedy_backtracking.h"
#include "search/oracle.h"
#include "search/pos_pss.h"
#include "search/rls.h"
#include "search/searcher.h"
#include "search/spring.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::BruteForceSearch;
using testing::PaperGpsSpecs;
using testing::RandomTrajectory;
using testing::RandomWalk;

// ---------------------------------------------------------------------------
// Spring: exact for DTW, agrees with CMA; reports disjoint threshold matches.
// ---------------------------------------------------------------------------

class SpringSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SpringSweepTest, SpringBestMatchEqualsCmaDtw) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 1);
  const Trajectory q = RandomWalk(&rng, static_cast<int>(rng.UniformInt(1, 6)));
  const Trajectory d =
      RandomWalk(&rng, static_cast<int>(rng.UniformInt(3, 20)));
  const SearchResult spring = SpringDtw::BestMatch(q, d);
  const SearchResult cma = CmaSearch(DistanceSpec::Dtw(), q, d);
  EXPECT_NEAR(spring.distance, cma.distance, 1e-9);
  // The reported range must reproduce the distance.
  const double direct =
      Dtw(q, d.View().subspan(static_cast<size_t>(spring.range.start),
                              static_cast<size_t>(spring.range.Length())));
  EXPECT_NEAR(direct, spring.distance, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpringSweepTest, ::testing::Range(0, 20));

TEST(SpringTest, ThresholdMatchesAreDisjointAndUnderThreshold) {
  Rng rng(42);
  const Trajectory q = RandomWalk(&rng, 4);
  const Trajectory d = RandomWalk(&rng, 60);
  const double epsilon = 3.0;
  const std::vector<SpringMatch> matches =
      SpringDtw::AllMatches(q, d, epsilon);
  int prev_end = -1;
  for (const SpringMatch& match : matches) {
    EXPECT_LE(match.distance, epsilon);
    EXPECT_GT(match.range.start, prev_end);  // disjoint, ordered
    prev_end = match.range.end;
    const double direct =
        Dtw(q, d.View().subspan(static_cast<size_t>(match.range.start),
                                static_cast<size_t>(match.range.Length())));
    EXPECT_NEAR(direct, match.distance, 1e-9);
  }
}

TEST(SpringTest, FindsBothEmbeddedOccurrences) {
  // Data contains two noisy copies of the query; with a generous threshold
  // Spring must report (at least) two disjoint matches.
  Rng rng(7);
  const Trajectory q = RandomWalk(&rng, 5);
  std::vector<Point> data;
  for (int i = 0; i < 10; ++i) data.push_back(Point{100.0 + i, 100.0});
  for (const Point& p : q.points()) data.push_back(p);
  for (int i = 0; i < 10; ++i) data.push_back(Point{200.0 + i, 200.0});
  for (const Point& p : q.points()) data.push_back(p);
  const Trajectory d(std::move(data));
  const std::vector<SpringMatch> matches = SpringDtw::AllMatches(q, d, 0.5);
  ASSERT_GE(matches.size(), 2u);
  EXPECT_NEAR(matches[0].distance, 0.0, 1e-9);
  EXPECT_NEAR(matches[1].distance, 0.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Greedy Backtracking: exact for Fréchet, agrees with CMA and brute force.
// ---------------------------------------------------------------------------

class GbSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(GbSweepTest, GbEqualsCmaFrechetAndBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  const Trajectory q =
      RandomTrajectory(&rng, static_cast<int>(rng.UniformInt(1, 6)));
  const Trajectory d =
      RandomTrajectory(&rng, static_cast<int>(rng.UniformInt(1, 14)));
  const SearchResult gb = GreedyBacktrackingSearch(q, d);
  const SearchResult cma = CmaSearch(DistanceSpec::Frechet(), q, d);
  const SearchResult brute = BruteForceSearch(DistanceSpec::Frechet(), q, d);
  EXPECT_NEAR(gb.distance, brute.distance, 1e-9);
  EXPECT_NEAR(cma.distance, brute.distance, 1e-9);
  const double direct = Frechet(
      q, d.View().subspan(static_cast<size_t>(gb.range.start),
                          static_cast<size_t>(gb.range.Length())));
  EXPECT_NEAR(direct, gb.distance, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbSweepTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// POS / PSS: valid approximations (AR >= 1, honest reported distances).
// ---------------------------------------------------------------------------

class SplitSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitSweepTest, PosAndPssReturnValidRangesWithHonestDistances) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 11);
  const Trajectory q = RandomWalk(&rng, static_cast<int>(rng.UniformInt(2, 6)));
  const Trajectory d =
      RandomWalk(&rng, static_cast<int>(rng.UniformInt(4, 24)));
  const int n = d.size();
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    const double optimal = CmaSearch(spec, q, d).distance;
    for (const bool use_pss : {false, true}) {
      const SearchResult r =
          use_pss ? PssSearch(spec, q, d) : PosSearch(spec, q, d);
      ASSERT_TRUE(r.range.WithinLength(n)) << ToString(spec.kind);
      const double direct = FullDistance(
          spec, q,
          d.View().subspan(static_cast<size_t>(r.range.start),
                           static_cast<size_t>(r.range.Length())));
      EXPECT_NEAR(direct, r.distance, 1e-9) << ToString(spec.kind);
      EXPECT_GE(r.distance + 1e-9, optimal) << ToString(spec.kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitSweepTest, ::testing::Range(0, 16));

TEST(SplitTest, PssIsNeverWorseThanPosOnEmbeddedQueries) {
  // When an exact copy of the query is embedded, both should usually find
  // it; this is a smoke property, evaluated in aggregate.
  Rng rng(5);
  int pss_wins_or_ties = 0;
  const int kRounds = 30;
  for (int round = 0; round < kRounds; ++round) {
    const Trajectory full = RandomWalk(&rng, 40);
    std::vector<Point> qpts(full.points().begin() + 15,
                            full.points().begin() + 20);
    const Trajectory q(std::move(qpts));
    const DistanceSpec spec = DistanceSpec::Dtw();
    const double pos = PosSearch(spec, q, full).distance;
    const double pss = PssSearch(spec, q, full).distance;
    if (pss <= pos + 1e-9) ++pss_wins_or_ties;
  }
  EXPECT_GE(pss_wins_or_ties, kRounds / 2);
}

// ---------------------------------------------------------------------------
// RLS / RLS-Skip: the policies train and return valid approximations.
// ---------------------------------------------------------------------------

TEST(RlsTest, TrainedPolicyReturnsValidResults) {
  Rng rng(8);
  std::vector<Trajectory> corpus;
  for (int i = 0; i < 6; ++i) corpus.push_back(RandomWalk(&rng, 30));
  const Trajectory query = RandomWalk(&rng, 5);
  const DistanceSpec spec = DistanceSpec::Dtw();

  std::vector<std::pair<TrajectoryView, TrajectoryView>> pairs;
  for (const Trajectory& t : corpus) pairs.push_back({query.View(), t.View()});

  for (const bool skip : {false, true}) {
    RlsOptions options;
    options.allow_skip = skip;
    options.training_episodes = 30;
    const RlsPolicy policy = TrainRlsPolicy(spec, pairs, options);
    for (const Trajectory& t : corpus) {
      const SearchResult r = RlsSearch(spec, policy, query, t);
      ASSERT_TRUE(r.range.WithinLength(t.size()));
      const double direct = FullDistance(
          spec, query,
          t.View().subspan(static_cast<size_t>(r.range.start),
                           static_cast<size_t>(r.range.Length())));
      EXPECT_NEAR(direct, r.distance, 1e-9);
      const double optimal = CmaSearch(spec, query, t).distance;
      EXPECT_GE(r.distance + 1e-9, optimal);
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle: ranks are consistent with brute force.
// ---------------------------------------------------------------------------

TEST(OracleTest, RanksAndRatiosAreConsistent) {
  Rng rng(21);
  const Trajectory q = RandomTrajectory(&rng, 4);
  const Trajectory d = RandomTrajectory(&rng, 9);
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    const SubtrajectoryOracle oracle(spec, q, d);
    EXPECT_EQ(oracle.total(), 9u * 10u / 2u);
    const SearchResult brute = BruteForceSearch(spec, q, d);
    EXPECT_NEAR(oracle.OptimalDistance(), brute.distance, 1e-9);
    // The optimum has rank 1 / RR 0 / AR 1.
    const EffectivenessSample s = Evaluate(oracle, brute.distance);
    EXPECT_EQ(s.mean_rank, 1.0);
    EXPECT_EQ(s.relative_rank, 0.0);
    EXPECT_NEAR(s.approximate_ratio, 1.0, 1e-12);
    // Anything above the max has rank total+1.
    EXPECT_EQ(oracle.RankOf(1e200), oracle.total() + 1);
  }
}

// ---------------------------------------------------------------------------
// Searcher factory: capability matrix mirrors Tables 2/3 dashes.
// ---------------------------------------------------------------------------

TEST(SearcherFactoryTest, CapabilityMatrixMatchesPaper) {
  EXPECT_TRUE(Supports(Algorithm::kCma, DistanceKind::kErp));
  EXPECT_TRUE(Supports(Algorithm::kExactS, DistanceKind::kFrechet));
  EXPECT_FALSE(Supports(Algorithm::kSpring, DistanceKind::kEdr));
  EXPECT_FALSE(Supports(Algorithm::kGreedyBacktracking, DistanceKind::kDtw));
  EXPECT_TRUE(IsExact(Algorithm::kCma, DistanceKind::kDtw));
  EXPECT_FALSE(IsExact(Algorithm::kPos, DistanceKind::kDtw));

  EXPECT_FALSE(MakeSearcher(Algorithm::kSpring, DistanceSpec::Edr(1)).ok());
  auto cma = MakeSearcher(Algorithm::kCma, DistanceSpec::Dtw());
  ASSERT_TRUE(cma.ok());
  EXPECT_EQ(cma.value()->name(), "CMA");
}

TEST(SearcherFactoryTest, AllSearchersAgreeOnExactness) {
  Rng rng(31);
  const Trajectory q = RandomWalk(&rng, 4);
  const Trajectory d = RandomWalk(&rng, 15);
  for (const DistanceSpec& spec : PaperGpsSpecs()) {
    const double optimal = CmaSearch(spec, q, d).distance;
    for (const Algorithm algo :
         {Algorithm::kCma, Algorithm::kExactS, Algorithm::kSpring,
          Algorithm::kGreedyBacktracking, Algorithm::kPos, Algorithm::kPss,
          Algorithm::kRls, Algorithm::kRlsSkip}) {
      if (!Supports(algo, spec.kind)) continue;
      auto searcher = MakeSearcher(algo, spec);
      ASSERT_TRUE(searcher.ok());
      const SearchResult r = searcher.value()->Bind(q)->Run(d, kNoCutoff);
      if (IsExact(algo, spec.kind)) {
        EXPECT_NEAR(r.distance, optimal, 1e-9)
            << ToString(algo) << "/" << ToString(spec.kind);
      } else {
        EXPECT_GE(r.distance + 1e-9, optimal)
            << ToString(algo) << "/" << ToString(spec.kind);
      }
    }
  }
}

}  // namespace
}  // namespace trajsearch
