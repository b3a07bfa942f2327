#include "core/dataset.h"

#include <algorithm>

#include "util/simd.h"

namespace trajsearch {

namespace {

/// Bounding box of `n` pool points: the BoundingBox::Extend loop, or on
/// AVX2 under vector dispatch one vector pass over the same bytes. Two AoS
/// points fill a VecD as x0 y0 x1 y1, so lanes 0 and 2 fold x and lanes 1
/// and 3 fold y. Min(p, acc) is MINPD's `p < acc ? p : acc` and Max(p, acc)
/// its `p > acc ? p : acc`: the compares Extend makes, so a NaN coordinate
/// leaves the box untouched on both paths and every extreme is the same
/// value. The one difference: the lanes see the points in another order, so
/// when a box edge is 0 the vector pass may return -0.0 where Extend returns
/// +0.0 or the reverse. Width(), Height() and DefaultCellSize() read the
/// same either way. NEON's fmin/fmax propagate NaN, so NEON (and the scalar
/// build) keeps the Extend loop.
BoundingBox PoolBounds(const Point* points, size_t n) {
  BoundingBox box;
  size_t i = 0;
#if defined(TRAJSEARCH_SIMD_AVX2)
  if (simd::Enabled() && n >= 2) {
    using simd::VecD;
    const double lo_init[4] = {box.min_x, box.min_y, box.min_x, box.min_y};
    const double hi_init[4] = {box.max_x, box.max_y, box.max_x, box.max_y};
    // Two accumulator pairs, so consecutive min/max do not wait on each
    // other.
    VecD lo0 = VecD::Load(lo_init);
    VecD hi0 = VecD::Load(hi_init);
    VecD lo1 = lo0;
    VecD hi1 = hi0;
    const double* xy = &points[0].x;
    for (; i + 4 <= n; i += 4) {
      const VecD a = VecD::Load(xy + 2 * i);
      const VecD b = VecD::Load(xy + 2 * i + 4);
      lo0 = VecD::Min(a, lo0);
      hi0 = VecD::Max(a, hi0);
      lo1 = VecD::Min(b, lo1);
      hi1 = VecD::Max(b, hi1);
    }
    if (i + 2 <= n) {
      const VecD a = VecD::Load(xy + 2 * i);
      lo0 = VecD::Min(a, lo0);
      hi0 = VecD::Max(a, hi0);
      i += 2;
    }
    double lo[4];
    double hi[4];
    VecD::Min(lo1, lo0).Store(lo);
    VecD::Max(hi1, hi0).Store(hi);
    // Min lanes fold into the mins only, max lanes into the maxes only.
    for (int lane = 0; lane < 4; lane += 2) {
      if (lo[lane] < box.min_x) box.min_x = lo[lane];
      if (lo[lane + 1] < box.min_y) box.min_y = lo[lane + 1];
      if (hi[lane] > box.max_x) box.max_x = hi[lane];
      if (hi[lane + 1] > box.max_y) box.max_y = hi[lane + 1];
    }
  }
#endif
  for (; i < n; ++i) box.Extend(points[i]);
  return box;
}

}  // namespace

Dataset::Dataset(const Dataset& other)
    : name_(other.name_),
      borrowed_(other.borrowed_),
      pool_(other.pool_),
      offsets_(other.offsets_),
      pool_data_(other.pool_data_),
      pool_size_(other.pool_size_),
      offsets_data_(other.offsets_data_),
      offsets_size_(other.offsets_size_),
      keepalive_(other.keepalive_),
      bounds_(other.bounds_) {
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
  bounds_ = other.bounds_;
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
                            std::shared_ptr<const void> keepalive,
                            std::optional<BoundingBox> bounds) {
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
  dataset.bounds_ = bounds;
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
  stats.bounds = Bounds();
  stats.mean_length =
      empty() ? 0
              : static_cast<double>(stats.point_count) /
                    static_cast<double>(stats.trajectory_count);
  return stats;
}

BoundingBox Dataset::Bounds() const {
  if (bounds_.has_value()) return *bounds_;
  return PoolBounds(pool_data_, pool_size_);
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
  if (count_ == 0) return BoundingBox{};
  const size_t lo = static_cast<size_t>(
      dataset_->offsets()[static_cast<size_t>(begin_)]);
  return PoolBounds(dataset_->pool().data() + lo, point_count());
}

}  // namespace trajsearch
