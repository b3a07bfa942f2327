#include <gtest/gtest.h>

#include <cstdio>

#include "gen/taxi.h"
#include "gen/workload.h"
#include "io/traj_csv.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

// ---------------------------------------------------------------------------
// Taxi generators: the profiles must reproduce the paper's dataset shape.
// ---------------------------------------------------------------------------

TEST(TaxiGenTest, PortoProfileMatchesPaperStatistics) {
  const TaxiProfile profile = PortoProfile(400);
  const Dataset dataset = GenerateTaxiDataset(profile);
  const DatasetStats stats = dataset.Stats();
  EXPECT_EQ(stats.trajectory_count, 400u);
  // Paper: mean length 67. Allow generous sampling slack.
  EXPECT_GT(stats.mean_length, 45);
  EXPECT_LT(stats.mean_length, 95);
  EXPECT_GE(stats.min_length, 4);
  // All points inside the Porto bbox.
  EXPECT_GE(stats.bounds.min_x, profile.bbox.min_x - 1e-9);
  EXPECT_LE(stats.bounds.max_x, profile.bbox.max_x + 1e-9);
  EXPECT_GE(stats.bounds.min_y, profile.bbox.min_y - 1e-9);
  EXPECT_LE(stats.bounds.max_y, profile.bbox.max_y + 1e-9);
  // Short trips (the Figure 6 Porto query buckets, lengths 4-20) exist.
  int short_trips = 0;
  for (const TrajectoryRef t : dataset) {
    if (t.size() >= 4 && t.size() <= 20) ++short_trips;
  }
  EXPECT_GT(short_trips, 5);
}

TEST(TaxiGenTest, XianAndBeijingProfilesHaveTheRightScale) {
  const Dataset xian = GenerateTaxiDataset(XianProfile(120));
  EXPECT_GT(xian.Stats().mean_length, 280);
  EXPECT_LT(xian.Stats().mean_length, 540);

  const Dataset beijing = GenerateTaxiDataset(BeijingProfile(30));
  EXPECT_GT(beijing.Stats().mean_length, 1200);
  EXPECT_LT(beijing.Stats().mean_length, 2300);
}

TEST(TaxiGenTest, BeijingLongProfileHitsRequestedMean) {
  const Dataset d = GenerateTaxiDataset(BeijingLongProfile(10, 3500));
  EXPECT_GT(d.Stats().mean_length, 2800);
  EXPECT_LT(d.Stats().mean_length, 4200);
}

TEST(TaxiGenTest, GenerationIsDeterministic) {
  const Dataset a = GenerateTaxiDataset(PortoProfile(50));
  const Dataset b = GenerateTaxiDataset(PortoProfile(50));
  ASSERT_EQ(a.size(), b.size());
  for (int id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a[id].size(), b[id].size());
    for (int i = 0; i < a[id].size(); ++i) {
      EXPECT_EQ(a[id][i], b[id][i]);
    }
  }
}

TEST(TaxiGenTest, TrajectoriesAreSpatiallyContinuous) {
  const TaxiProfile profile = XianProfile(5);
  const Dataset dataset = GenerateTaxiDataset(profile);
  for (const TrajectoryRef t : dataset) {
    for (int i = 1; i < t.size(); ++i) {
      // No teleporting: each step bounded by ~2x the nominal step size.
      EXPECT_LE(EuclideanDistance(t[i - 1], t[i]), profile.step * 2.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Workload sampling.
// ---------------------------------------------------------------------------

TEST(WorkloadTest, SamplesQueriesInLengthRange) {
  const Dataset dataset = GenerateTaxiDataset(PortoProfile(500));
  WorkloadOptions options;
  options.count = 20;
  options.min_length = 8;
  options.max_length = 12;
  const Workload workload = SampleQueries(dataset, options);
  ASSERT_EQ(workload.queries.size(), 20u);
  ASSERT_EQ(workload.source_ids.size(), 20u);
  for (const Trajectory& q : workload.queries) {
    EXPECT_GE(q.size(), 8);
    EXPECT_LE(q.size(), 12);
  }
}

TEST(WorkloadTest, SynthesizesWhenBucketIsEmpty) {
  // Nobody has length exactly in [481, 482]; windows must be sliced.
  const Dataset dataset = GenerateTaxiDataset(XianProfile(60));
  WorkloadOptions options;
  options.count = 5;
  options.min_length = 481;
  options.max_length = 482;
  const Workload workload = SampleQueries(dataset, options);
  ASSERT_EQ(workload.queries.size(), 5u);
  for (const Trajectory& q : workload.queries) {
    EXPECT_GE(q.size(), 481);
    EXPECT_LE(q.size(), 482);
  }
}

TEST(WorkloadTest, SourceTrackingWorks) {
  const Dataset dataset = GenerateTaxiDataset(PortoProfile(100));
  WorkloadOptions options;
  options.count = 10;
  const Workload workload = SampleQueries(dataset, options);
  for (const int id : workload.source_ids) {
    EXPECT_TRUE(IsQuerySource(workload, id));
  }
  EXPECT_FALSE(IsQuerySource(workload, -1));
}

// ---------------------------------------------------------------------------
// CSV round trip.
// ---------------------------------------------------------------------------

TEST(CsvTest, RoundTripPreservesDataset) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(20));
  const std::string path = ::testing::TempDir() + "/traj_roundtrip.csv";
  ASSERT_TRUE(WriteTrajectoryCsv(original, path).ok());
  const Result<Dataset> loaded = ReadTrajectoryCsv(path, "porto-copy");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& copy = loaded.value();
  ASSERT_EQ(copy.size(), original.size());
  for (int id = 0; id < original.size(); ++id) {
    ASSERT_EQ(copy[id].size(), original[id].size());
    for (int i = 0; i < original[id].size(); ++i) {
      EXPECT_NEAR(copy[id][i].x, original[id][i].x, 1e-8);
      EXPECT_NEAR(copy[id][i].y, original[id][i].y, 1e-8);
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsAnIoError) {
  const Result<Dataset> r = ReadTrajectoryCsv("/nonexistent/x.csv", "x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MalformedRowIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/traj_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("traj_id,seq,x,y\n0,0,1.0,2.0\nnot-a-row\n", f);
    fclose(f);
  }
  const Result<Dataset> r = ReadTrajectoryCsv(path, "bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Writes `body` under the CSV header and returns the loader's result.
Result<Dataset> ReadCsvBody(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    FILE* f = fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return Status::IoError("cannot write " + path);
    fputs(("traj_id,seq,x,y\n" + body).c_str(), f);
    fclose(f);
  }
  Result<Dataset> r = ReadTrajectoryCsv(path, "csv");
  std::remove(path.c_str());
  return r;
}

TEST(CsvTest, NonFiniteCoordinateIsInvalidArgumentNamingTheLine) {
  // %lf parses all three; none is a coordinate any cost model accepts.
  for (const char* bad : {"nan", "inf", "-inf", "1e400"}) {
    for (const bool in_x : {true, false}) {
      const std::string value(bad);
      const std::string row = in_x ? "0,1," + value + ",2.0\n"
                                   : "0,1,1.0," + value + "\n";
      const Result<Dataset> r =
          ReadCsvBody("traj_nonfinite.csv", "0,0,1.0,2.0\n" + row);
      ASSERT_FALSE(r.ok()) << bad;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
          << r.status().ToString();
    }
  }
  // The largest finite double still loads.
  const Result<Dataset> ok =
      ReadCsvBody("traj_finite.csv", "0,0,1.7976931348623157e308,-2.0\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value()[0][0].x, 1.7976931348623157e308);
}

TEST(CsvTest, NegativeTrajectoryIdIsInvalidArgumentNamingTheLine) {
  // traj_id -1 equals the reader's "no trajectory yet" sentinel; accepted,
  // its points would be merged into the trajectory that follows.
  for (const char* body : {"-1,0,1.0,2.0\n0,0,3.0,4.0\n",
                           "0,0,1.0,2.0\n-1,0,3.0,4.0\n",
                           "0,0,1.0,2.0\n-7,0,3.0,4.0\n"}) {
    const Result<Dataset> r = ReadCsvBody("traj_negative.csv", body);
    ASSERT_FALSE(r.ok()) << body;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << body;
    const std::string line = body[0] == '-' ? "line 2" : "line 3";
    EXPECT_NE(r.status().message().find(line), std::string::npos)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace trajsearch
