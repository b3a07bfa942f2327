#include "core/dataset.h"

#include <algorithm>

namespace trajsearch {

Dataset::Dataset(const Dataset& other)
    : name_(other.name_),
      borrowed_(other.borrowed_),
      pool_(other.pool_),
      offsets_(other.offsets_),
      pool_data_(other.pool_data_),
      pool_size_(other.pool_size_),
      offsets_data_(other.offsets_data_),
      offsets_size_(other.offsets_size_),
      keepalive_(other.keepalive_) {
  // A borrowed copy shares the keepalive and the source's views stay valid;
  // an owned copy got fresh vector buffers and must repoint at them.
  if (!borrowed_) SyncViews();
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  borrowed_ = other.borrowed_;
  pool_ = other.pool_;
  offsets_ = other.offsets_;
  pool_data_ = other.pool_data_;
  pool_size_ = other.pool_size_;
  offsets_data_ = other.offsets_data_;
  offsets_size_ = other.offsets_size_;
  keepalive_ = other.keepalive_;
  if (!borrowed_) SyncViews();
  return *this;
}

int Dataset::Add(TrajectoryView points) {
  TRAJ_CHECK(!borrowed_);
  const int id = size();
  if (!points.empty() && points.data() >= pool_.data() &&
      points.data() < pool_.data() + pool_.size()) {
    // The view aliases this dataset's own pool (e.g. Add(dataset[i]) to
    // duplicate a trajectory): materialize it first, since the insert below
    // may reallocate the buffer the view points into.
    const std::vector<Point> copy(points.begin(), points.end());
    pool_.insert(pool_.end(), copy.begin(), copy.end());
  } else {
    pool_.insert(pool_.end(), points.begin(), points.end());
  }
  offsets_.push_back(static_cast<uint64_t>(pool_.size()));
  SyncViews();
  return id;
}

void Dataset::AddAll(std::vector<Trajectory> trajs) {
  Reserve(trajs.size());
  size_t total = 0;
  for (const Trajectory& t : trajs) total += static_cast<size_t>(t.size());
  ReservePoints(total);
  for (const Trajectory& t : trajs) Add(t);
}

Dataset Dataset::FromPool(std::string name, std::vector<Point> pool,
                          std::vector<uint64_t> offsets) {
  TRAJ_CHECK(!offsets.empty() && offsets.front() == 0 &&
             offsets.back() == pool.size());
  TRAJ_CHECK(std::is_sorted(offsets.begin(), offsets.end()));
  Dataset dataset(std::move(name));
  dataset.pool_ = std::move(pool);
  dataset.offsets_ = std::move(offsets);
  dataset.SyncViews();
  return dataset;
}

Dataset Dataset::FromMapped(std::string name, std::span<const Point> pool,
                            std::span<const uint64_t> offsets,
                            std::shared_ptr<const void> keepalive) {
  TRAJ_CHECK(!offsets.empty() && offsets.front() == 0 &&
             offsets.back() == pool.size());
  TRAJ_CHECK(std::is_sorted(offsets.begin(), offsets.end()));
  Dataset dataset(std::move(name));
  dataset.borrowed_ = true;
  dataset.offsets_.clear();  // the default {0} would shadow the borrowed table
  dataset.pool_data_ = pool.data();
  dataset.pool_size_ = pool.size();
  dataset.offsets_data_ = offsets.data();
  dataset.offsets_size_ = offsets.size();
  dataset.keepalive_ = std::move(keepalive);
  return dataset;
}

DatasetStats Dataset::Stats() const {
  DatasetStats stats;
  stats.trajectory_count = static_cast<size_t>(size());
  stats.point_count = pool_size_;
  stats.borrowed = borrowed_;
  stats.pool_bytes = pool_size_ * sizeof(Point);
  stats.offsets_bytes = offsets_size_ * sizeof(uint64_t);
  if (borrowed_) {
    // A mapped pool reserves exactly its payload: report the mapped bytes,
    // not the (empty) vectors' capacity, so the zero-over-allocation audit
    // holds for mmap-served corpora too.
    stats.pool_capacity_bytes = stats.pool_bytes;
    stats.offsets_capacity_bytes = stats.offsets_bytes;
  } else {
    stats.pool_capacity_bytes = pool_.capacity() * sizeof(Point);
    stats.offsets_capacity_bytes = offsets_.capacity() * sizeof(uint64_t);
  }
  stats.min_length = empty() ? 0 : length(0);
  for (int id = 0; id < size(); ++id) {
    stats.min_length = std::min(stats.min_length, length(id));
    stats.max_length = std::max(stats.max_length, length(id));
  }
  for (const Point& p : pool()) stats.bounds.Extend(p);
  stats.mean_length =
      empty() ? 0
              : static_cast<double>(stats.point_count) /
                    static_cast<double>(stats.trajectory_count);
  return stats;
}

BoundingBox Dataset::Bounds() const {
  BoundingBox box;
  for (const Point& p : pool()) box.Extend(p);
  return box;
}

size_t DatasetView::point_count() const {
  if (count_ == 0) return 0;
  const std::span<const uint64_t> offsets = dataset_->offsets();
  return static_cast<size_t>(offsets[static_cast<size_t>(begin_ + count_)] -
                             offsets[static_cast<size_t>(begin_)]);
}

BoundingBox DatasetView::Bounds() const {
  // The viewed trajectories are contiguous in the pool, so this is one flat
  // scan of the covered pool range.
  BoundingBox box;
  if (count_ == 0) return box;
  const std::span<const uint64_t> offsets = dataset_->offsets();
  const std::span<const Point> pool = dataset_->pool();
  const size_t lo = static_cast<size_t>(offsets[static_cast<size_t>(begin_)]);
  const size_t hi =
      static_cast<size_t>(offsets[static_cast<size_t>(begin_ + count_)]);
  for (size_t i = lo; i < hi; ++i) box.Extend(pool[i]);
  return box;
}

}  // namespace trajsearch
