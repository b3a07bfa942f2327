#include "io/traj_csv.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace trajsearch {

Status WriteTrajectoryCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << "traj_id,seq,x,y\n";
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef t = dataset[id];
    for (int i = 0; i < t.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%d,%d,%.9f,%.9f\n", id, i, t[i].x,
                    t[i].y);
      out << buf;
    }
  }
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> ReadTrajectoryCsv(const std::string& path,
                                  const std::string& dataset_name) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("empty file: " + path);
  }
  if (line.rfind("traj_id", 0) != 0) {
    return Status::InvalidArgument("missing header in " + path);
  }
  std::vector<Trajectory> trajectories;
  int current_id = -1;
  std::vector<Point> points;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    int id = 0, seq = 0;
    double x = 0, y = 0;
    if (std::sscanf(line.c_str(), "%d,%d,%lf,%lf", &id, &seq, &x, &y) != 4) {
      return Status::InvalidArgument("malformed row at line " +
                                     std::to_string(line_no) + " of " + path);
    }
    // %lf accepts "nan", "inf" and overflowing literals such as 1e400; no
    // cost model is defined on them. A negative id would also collide with
    // the -1 "no trajectory yet" sentinel and merge into the next one.
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument("non-finite coordinate at line " +
                                     std::to_string(line_no) + " of " + path);
    }
    if (id < 0) {
      return Status::InvalidArgument("negative traj_id at line " +
                                     std::to_string(line_no) + " of " + path);
    }
    if (id != current_id) {
      if (current_id >= 0 && !points.empty()) {
        trajectories.emplace_back(std::move(points));
        points = {};
      }
      current_id = id;
    }
    points.push_back(Point{x, y});
  }
  if (current_id >= 0 && !points.empty()) {
    trajectories.emplace_back(std::move(points));
  }
  if (trajectories.empty()) {
    return Status::InvalidArgument("no trajectories in " + path);
  }
  Dataset dataset(dataset_name);
  dataset.AddAll(std::move(trajectories));
  return dataset;
}

}  // namespace trajsearch
