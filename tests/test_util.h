#pragma once

#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/trajectory.h"
#include "distance/distance.h"
#include "gen/taxi.h"
#include "gen/workload.h"
#include "search/result.h"
#include "util/rng.h"

namespace trajsearch::testing {

/// Uniform random trajectory within [0, box)^2.
inline Trajectory RandomTrajectory(Rng* rng, int length, double box = 10.0) {
  std::vector<Point> pts;
  pts.reserve(static_cast<size_t>(length));
  for (int i = 0; i < length; ++i) {
    pts.push_back(Point{rng->Uniform(0, box), rng->Uniform(0, box)});
  }
  return Trajectory(std::move(pts));
}

/// Heading-persistent random walk (spatially continuous, like GPS traces).
inline Trajectory RandomWalk(Rng* rng, int length, double step = 1.0) {
  std::vector<Point> pts;
  pts.reserve(static_cast<size_t>(length));
  Point p{rng->Uniform(0, 10), rng->Uniform(0, 10)};
  double heading = rng->Uniform(0, 6.28318530718);
  for (int i = 0; i < length; ++i) {
    pts.push_back(p);
    heading += rng->Normal(0, 0.4);
    p.x += step * std::cos(heading);
    p.y += step * std::sin(heading);
  }
  return Trajectory(std::move(pts));
}

/// Trajectory over a small "alphabet" of grid points (for edit-distance
/// style examples mirroring the paper's Figures 4-5).
inline Trajectory LetterTrajectory(const std::string& letters) {
  std::vector<Point> pts;
  for (char c : letters) {
    pts.push_back(Point{static_cast<double>(c - 'a'), 0.0});
  }
  return Trajectory(std::move(pts));
}

/// Ground truth by definition: min over all O(n^2) subranges of the full
/// distance (O(mn^3) total — only for small instances).
inline SearchResult BruteForceSearch(const DistanceSpec& spec,
                                     TrajectoryView q, TrajectoryView d) {
  SearchResult best;
  const int n = static_cast<int>(d.size());
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double dist = FullDistance(
          spec, q, d.subspan(static_cast<size_t>(i),
                             static_cast<size_t>(j - i + 1)));
      if (dist < best.distance) {
        best.distance = dist;
        best.range = Subrange{i, j};
      }
    }
  }
  return best;
}

/// The four GPS distance specs evaluated in the paper's §6 (Tables 2-3).
inline std::vector<DistanceSpec> PaperGpsSpecs() {
  return {DistanceSpec::Dtw(), DistanceSpec::Edr(1.5),
          DistanceSpec::Erp(Point{5.0, 5.0}), DistanceSpec::Frechet()};
}

/// \brief Porto-shaped GPS input for the identity gates, next to their
/// small random walks: 200 generated Porto taxi trajectories (mean 67
/// points, lengths from 4 to a few hundred, coordinates in degrees) and
/// queries of 30-50 points sampled from the corpus. Queries that long run
/// many full lane groups plus a ragged tail in every vector kernel, at any
/// lane width. The corpus is city-sized and sparse, so GBP at mu 0.1 keeps
/// only a few candidates per query.
struct PortoWorkbench {
  Dataset corpus;
  std::vector<Trajectory> queries;
  /// Source trajectory of each query, to pass as the excluded id.
  std::vector<int> excluded;
  /// PaperGpsSpecs() in the same order, with EDR's epsilon and ERP's gap
  /// point rescaled to the corpus (~300 m, the bounding-box centre).
  std::vector<DistanceSpec> specs;
};

inline PortoWorkbench MakePortoWorkbench(int query_count) {
  PortoWorkbench w;
  w.corpus = GenerateTaxiDataset(PortoProfile(200));
  WorkloadOptions options;
  options.count = query_count;
  options.min_length = 30;
  options.max_length = 50;
  Workload workload = SampleQueries(w.corpus, options);
  w.queries = std::move(workload.queries);
  w.excluded = std::move(workload.source_ids);
  w.specs = {DistanceSpec::Dtw(), DistanceSpec::Edr(0.003),
             DistanceSpec::Erp(w.corpus.Bounds().Center()),
             DistanceSpec::Frechet()};
  return w;
}

}  // namespace trajsearch::testing
