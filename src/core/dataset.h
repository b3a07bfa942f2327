#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/trajectory.h"

namespace trajsearch {

/// \brief Summary statistics of a trajectory dataset (mirrors the dataset
/// table in the paper's §6.1: count, average length, bounding box).
struct DatasetStats {
  size_t trajectory_count = 0;
  size_t point_count = 0;
  double mean_length = 0;
  int min_length = 0;
  int max_length = 0;
  BoundingBox bounds;
  /// True for a borrowed dataset: storage is spans over an external owner
  /// (an mmap'd snapshot, or the decoded pool of a compressed one), not the
  /// dataset's own vectors.
  bool borrowed = false;
  /// Bytes held by the contiguous point pool (capacity excluded).
  size_t pool_bytes = 0;
  /// Bytes *reserved* by the pool. Loaders size the pool exactly from
  /// snapshot headers, so after a load this equals pool_bytes; a gap means
  /// some path grew the pool incrementally (audited in plan_alloc_test).
  /// A borrowed pool reports its mapped bytes (== pool_bytes): there is no
  /// vector capacity, and the mapping reserves nothing beyond the payload.
  size_t pool_capacity_bytes = 0;
  /// Same size/capacity audit for the offset table.
  size_t offsets_bytes = 0;
  size_t offsets_capacity_bytes = 0;
};

/// \brief An in-memory collection of data trajectories, stored as one
/// contiguous array-of-structures point pool.
///
/// All points of all trajectories live back to back in a single flat buffer;
/// a per-trajectory offset table maps trajectory id i to the half-open pool
/// range [offsets[i], offsets[i+1]). Trajectory ids are assigned densely
/// (their index in the collection) so pruning indexes can use plain arrays,
/// and operator[] hands out zero-copy TrajectoryRef handles into the pool.
/// The pool is the only copy of every point: kernels that want coordinate
/// columns deinterleave a trajectory into their own scratch.
/// The offsets table and pool are also sections of the snapshot format, so a
/// mapped snapshot serves them in place (FromMapped).
///
/// Storage is either *owned* (heap vectors, mutable via Add/AddAll — the
/// default) or *borrowed* (FromMapped: read-only spans over storage someone
/// else owns, e.g. the page-aligned sections of an mmap'd v4 snapshot, kept
/// alive by a refcounted keepalive). Every read accessor goes through one
/// set of view pointers that covers both modes, so serving code — engines,
/// shards, the live-corpus base — is oblivious to where the bytes live.
/// Mutating a borrowed dataset is a programming error and CHECKs.
class Dataset {
 public:
  Dataset() { SyncViews(); }
  explicit Dataset(std::string name) : name_(std::move(name)) { SyncViews(); }

  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  // Moving a vector moves its heap buffer, so the source's view pointers
  // stay valid in the destination for owned and borrowed datasets alike.
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Copies the viewed points into the pool as a new trajectory; its id is
  /// its index. Returns the id. Accepts Trajectory via implicit conversion.
  /// Owned datasets only (CHECKs on a borrowed one).
  int Add(TrajectoryView points);

  /// Pre-allocates room for `n` more trajectories (loaders and generators
  /// know the final count up front; avoids per-Add reallocation).
  void Reserve(size_t n) {
    TRAJ_CHECK(!borrowed_);
    offsets_.reserve(offsets_.size() + n);
    SyncViews();
  }

  /// Pre-allocates room for `n` more points in the pool.
  void ReservePoints(size_t n) {
    TRAJ_CHECK(!borrowed_);
    pool_.reserve(pool_.size() + n);
    SyncViews();
  }

  /// Moves every trajectory of `trajs` into the dataset (ids reassigned).
  void AddAll(std::vector<Trajectory> trajs);

  /// Adopts an already-assembled pool. `offsets` must have one entry per
  /// trajectory plus a trailing entry equal to pool.size(), start at 0, and
  /// be non-decreasing (checked). Used by compaction (LiveDataset::Merge) so
  /// a merged corpus is assembled straight into place.
  static Dataset FromPool(std::string name, std::vector<Point> pool,
                          std::vector<uint64_t> offsets);

  /// Borrows an already-laid-out corpus without copying: spans over the AoS
  /// pool and the offset table — the page-aligned sections of a mapped
  /// snapshot, or the decoded pool of a compressed one. `keepalive` owns the
  /// storage (shared by copies of this dataset) and is released when the
  /// last borrower is destroyed. The spans must satisfy the same invariants
  /// FromPool checks; callers loading untrusted bytes validate first and
  /// fail soft. `bounds`, when given, is the pool's bounding box as recorded
  /// with it (a v4 grid section carries one): Bounds() then returns it
  /// without reading the pool, and copies keep it.
  static Dataset FromMapped(std::string name, std::span<const Point> pool,
                            std::span<const uint64_t> offsets,
                            std::shared_ptr<const void> keepalive,
                            std::optional<BoundingBox> bounds = std::nullopt);

  /// True when the storage is borrowed (FromMapped); such a dataset is
  /// immutable — grow it by compacting into an owned corpus first.
  bool borrowed() const { return borrowed_; }

  /// Number of trajectories.
  int size() const { return static_cast<int>(offsets_size_) - 1; }
  bool empty() const { return size() == 0; }

  /// Total points across all trajectories.
  size_t point_count() const { return pool_size_; }

  /// Point count of trajectory `id`.
  int length(int id) const {
    TRAJ_DCHECK(id >= 0 && id < size());
    return static_cast<int>(offsets_data_[static_cast<size_t>(id) + 1] -
                            offsets_data_[static_cast<size_t>(id)]);
  }

  /// Trajectory accessor by id/index: a zero-copy handle into the pool.
  TrajectoryRef operator[](int id) const {
    TRAJ_DCHECK(id >= 0 && id < size());
    return TrajectoryRef(pool_data_ + offsets_data_[static_cast<size_t>(id)],
                         length(id), id);
  }

  /// \brief Iteration over all trajectories as TrajectoryRef handles.
  class ConstIterator {
   public:
    ConstIterator(const Dataset* dataset, int id)
        : dataset_(dataset), id_(id) {}
    TrajectoryRef operator*() const { return (*dataset_)[id_]; }
    ConstIterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const ConstIterator& o) const { return id_ == o.id_; }
    bool operator!=(const ConstIterator& o) const { return id_ != o.id_; }

   private:
    const Dataset* dataset_;
    int id_;
  };
  ConstIterator begin() const { return ConstIterator(this, 0); }
  ConstIterator end() const { return ConstIterator(this, size()); }

  /// The shared point pool (trajectory-major, contiguous).
  std::span<const Point> pool() const { return {pool_data_, pool_size_}; }
  /// Per-trajectory pool offsets; size() + 1 entries, first 0, last
  /// point_count().
  std::span<const uint64_t> offsets() const {
    return {offsets_data_, offsets_size_};
  }

  const std::string& name() const { return name_; }

  /// Computes summary statistics over all trajectories.
  DatasetStats Stats() const;

  /// Bounding box over all points: the box FromMapped was handed, else one
  /// pass over the pool, vectorized on AVX2. Extremes equal the
  /// BoundingBox::Extend loop's, NaN skipped; only the sign of a zero
  /// extreme may differ from it.
  BoundingBox Bounds() const;

 private:
  /// Repoints the serving views at the owned vectors. Every owned-mode
  /// mutation ends with this; borrowed datasets never call it (their views
  /// point into the keepalive's storage and the vectors stay empty).
  void SyncViews() {
    pool_data_ = pool_.data();
    pool_size_ = pool_.size();
    offsets_data_ = offsets_.data();
    offsets_size_ = offsets_.size();
  }

  std::string name_;
  bool borrowed_ = false;
  /// Owned storage (empty in borrowed mode).
  std::vector<Point> pool_;
  std::vector<uint64_t> offsets_ = {0};
  /// Serving views: what every read accessor dereferences, regardless of
  /// whether the bytes live in the vectors above or in borrowed storage.
  const Point* pool_data_ = nullptr;
  size_t pool_size_ = 0;
  const uint64_t* offsets_data_ = nullptr;
  size_t offsets_size_ = 1;
  /// Owner of borrowed storage (e.g. the mapped snapshot file); shared by
  /// copies so the mapping lives exactly as long as its last borrower.
  std::shared_ptr<const void> keepalive_;
  /// The recorded box of a borrowed pool (FromMapped), if it came with one.
  std::optional<BoundingBox> bounds_;
};

/// \brief A contiguous range of a Dataset's trajectories.
///
/// The serving layer hands each shard a DatasetView over the one shared
/// corpus instead of physically re-partitioning it; search code indexes the
/// view with *local* ids [0, size()) and translates back with begin_id().
/// Converts implicitly from Dataset so single-shard call sites keep passing
/// the dataset itself.
class DatasetView {
 public:
  DatasetView() = default;
  /// Whole-dataset view (implicit: any API taking a view accepts a Dataset).
  DatasetView(const Dataset& dataset)
      : dataset_(&dataset), begin_(0), count_(dataset.size()) {}
  DatasetView(const Dataset* dataset) {
    TRAJ_CHECK(dataset != nullptr);
    dataset_ = dataset;
    count_ = dataset->size();
  }
  /// View of trajectories [begin, begin + count).
  DatasetView(const Dataset& dataset, int begin, int count)
      : dataset_(&dataset), begin_(begin), count_(count) {
    TRAJ_CHECK(begin >= 0 && count >= 0 && begin + count <= dataset.size());
  }

  int size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Trajectory accessor by view-local id in [0, size()).
  TrajectoryRef operator[](int local_id) const {
    TRAJ_DCHECK(local_id >= 0 && local_id < count_);
    return (*dataset_)[begin_ + local_id];
  }

  /// No coordinate columns: the pool is the only copy of the points. Kept
  /// only for perfbench/src/replay.cc, its one caller; delete with it.
  PointCols cols(int) const { return PointCols{}; }

  /// First global trajectory id covered; global id = begin_id() + local id.
  int begin_id() const { return begin_; }
  int global_id(int local_id) const { return begin_ + local_id; }

  /// Total points across the viewed trajectories.
  size_t point_count() const;

  const Dataset& dataset() const { return *dataset_; }

  /// Bounding box over the viewed trajectories' points.
  BoundingBox Bounds() const;

 private:
  const Dataset* dataset_ = nullptr;
  int begin_ = 0;
  int count_ = 0;
};

}  // namespace trajsearch
