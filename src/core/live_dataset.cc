#include "core/live_dataset.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace trajsearch {

LiveDataset::LiveDataset(Dataset base)
    : base_(std::make_shared<const Dataset>(std::move(base))) {
  MutexLock lock(mu_);
  ResetTableLocked(0);
  PublishLocked();
}

void LiveDataset::ResetTableLocked(size_t entries) {
  size_t capacity = kInitialTableEntries;
  while (capacity < entries) capacity *= 2;
  table_ = std::make_shared<DeltaTable>(capacity);
  delta_size_ = 0;
  last_chunk_used_ = 0;
  last_chunk_capacity_ = 0;
  delta_points_ = 0;
}

void LiveDataset::AddEntryLocked(TrajectoryView points) {
  const size_t slot = static_cast<size_t>(delta_size_);
  if (slot == table_->capacity) {
    // Full: move to a doubled copy. Published views keep the old table.
    auto grown = std::make_shared<DeltaTable>(2 * table_->capacity);
    std::copy(table_->entries.get(), table_->entries.get() + slot,
              grown->entries.get());
    grown->chunks = table_->chunks;
    table_ = std::move(grown);
  }
  DeltaEntry& entry = table_->entries[slot];
  const size_t n = points.size();
  if (n != 0) {
    std::vector<std::shared_ptr<DeltaChunk>>& chunks = table_->chunks;
    if (chunks.empty() || last_chunk_used_ + n > last_chunk_capacity_) {
      // A trajectory never spans chunks; oversized ones get a dedicated
      // chunk.
      const size_t capacity = std::max(kChunkPoints, n);
      chunks.push_back(std::make_shared<DeltaChunk>(capacity));
      last_chunk_used_ = 0;
      last_chunk_capacity_ = capacity;
    }
    DeltaChunk& chunk = *chunks.back();
    Point* dst = chunk.points.get() + last_chunk_used_;
    double* xs = chunk.xs.get() + last_chunk_used_;
    double* ys = chunk.ys.get() + last_chunk_used_;
    std::memcpy(dst, points.data(), n * sizeof(Point));
    for (size_t i = 0; i < n; ++i) {
      xs[i] = points[i].x;
      ys[i] = points[i].y;
    }
    last_chunk_used_ += n;
    entry = DeltaEntry{TrajectoryView(dst, n), PointCols{xs, ys}};
  }
  ++delta_size_;
  delta_points_ += n;
}

void LiveDataset::AttachMetrics(obs::Registry* registry) {
  MutexLock lock(mu_);
  metrics_ = registry;
  if (registry == nullptr) {
    generation_gauge_ = base_generation_gauge_ = nullptr;
    delta_trajectories_gauge_ = delta_points_gauge_ = nullptr;
    append_hist_ = adopt_hist_ = nullptr;
    return;
  }
  generation_gauge_ = registry->gauge("live.generation");
  base_generation_gauge_ = registry->gauge("live.base_generation");
  delta_trajectories_gauge_ = registry->gauge("live.delta_trajectories");
  delta_points_gauge_ = registry->gauge("live.delta_points");
  append_hist_ = registry->histogram("live.append_seconds");
  adopt_hist_ = registry->histogram("live.adopt_seconds");
  // Reflect the current generation immediately, not at the next publish.
  generation_gauge_->Set(static_cast<int64_t>(generation_));
  base_generation_gauge_->Set(static_cast<int64_t>(base_generation_));
  delta_trajectories_gauge_->Set(delta_size_);
  delta_points_gauge_->Set(static_cast<int64_t>(delta_points_));
}

void LiveDataset::PublishLocked() {
  auto delta = std::make_shared<DeltaView>();
  delta->table_ = table_;
  delta->size_ = delta_size_;
  delta->point_count_ = delta_points_;

  auto view = std::make_shared<CorpusView>();
  view->base_ = base_;
  view->delta_ = std::move(delta);
  view->generation_ = generation_;
  view->ingest_seq_ = ingest_seq_;
  view->base_generation_ = base_generation_;
  published_.store(std::move(view));

  if (metrics_ != nullptr && metrics_->enabled()) {
    generation_gauge_->Set(static_cast<int64_t>(generation_));
    base_generation_gauge_->Set(static_cast<int64_t>(base_generation_));
    delta_trajectories_gauge_->Set(delta_size_);
    delta_points_gauge_->Set(static_cast<int64_t>(delta_points_));
  }
}

int LiveDataset::Append(TrajectoryView trajectory) {
  MutexLock lock(mu_);
  const bool timed = metrics_ != nullptr && metrics_->enabled();
  const int64_t start = timed ? obs::NowNanos() : 0;
  const int id = base_->size() + delta_size_;
  AddEntryLocked(trajectory);
  ++ingest_seq_;
  ++generation_;
  PublishLocked();
  if (timed) append_hist_->RecordNanos(obs::NowNanos() - start);
  return id;
}

std::vector<int> LiveDataset::AppendBatch(
    const std::vector<TrajectoryView>& trajectories) {
  std::vector<int> ids;
  ids.reserve(trajectories.size());
  MutexLock lock(mu_);
  const bool timed = metrics_ != nullptr && metrics_->enabled();
  const int64_t start = timed ? obs::NowNanos() : 0;
  for (const TrajectoryView& trajectory : trajectories) {
    ids.push_back(base_->size() + delta_size_);
    AddEntryLocked(trajectory);
    ++ingest_seq_;
  }
  if (!trajectories.empty()) {
    ++generation_;
    PublishLocked();
    if (timed) append_hist_->RecordNanos(obs::NowNanos() - start);
  }
  return ids;
}

CorpusView LiveDataset::View() const { return *published_.load(); }

Dataset LiveDataset::Merge(const CorpusView& view) {
  const Dataset& base = view.base();
  const DeltaView& delta = view.delta();
  // Exact-size assembly straight into the pool layout: the merged corpus is
  // the base pool followed by the delta points, with offsets extended.
  std::vector<Point> pool;
  pool.reserve(base.point_count() + delta.point_count());
  pool.insert(pool.end(), base.pool().begin(), base.pool().end());
  std::vector<uint64_t> offsets;
  offsets.reserve(static_cast<size_t>(view.size()) + 1);
  offsets.insert(offsets.end(), base.offsets().begin(), base.offsets().end());
  for (int i = 0; i < delta.size(); ++i) {
    const TrajectoryView points = delta[i];
    pool.insert(pool.end(), points.begin(), points.end());
    offsets.push_back(static_cast<uint64_t>(pool.size()));
  }
  return Dataset::FromPool(base.name(), std::move(pool), std::move(offsets));
}

void LiveDataset::AdoptBase(std::shared_ptr<const Dataset> base,
                            int compacted_count) {
  TRAJ_CHECK(base != nullptr);
  MutexLock lock(mu_);
  const bool timed = metrics_ != nullptr && metrics_->enabled();
  const int64_t start = timed ? obs::NowNanos() : 0;
  TRAJ_CHECK(compacted_count >= 0 && compacted_count <= delta_size_);
  // The new base must be the old base plus exactly the compacted prefix, so
  // every already-assigned corpus id keeps its trajectory.
  TRAJ_CHECK(base->size() == base_->size() + compacted_count);

  // Re-home the surviving delta suffix (appends that raced the compactor)
  // into a fresh table and fresh chunks. Still-pinned views keep the old
  // table and its chunks alive; holding it here keeps the survivors' points
  // readable while they are copied.
  const std::shared_ptr<const DeltaTable> old_table = table_;
  const int old_size = delta_size_;
  ResetTableLocked(static_cast<size_t>(old_size - compacted_count));
  for (int i = compacted_count; i < old_size; ++i) {
    AddEntryLocked(old_table->entries[static_cast<size_t>(i)].view);
  }

  base_ = std::move(base);
  ++base_generation_;
  ++generation_;  // layout changed; content (and ingest_seq_) did not
  PublishLocked();
  if (timed) adopt_hist_->RecordNanos(obs::NowNanos() - start);
}

}  // namespace trajsearch
