#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "obs/registry.h"
#include "util/published_ptr.h"
#include "util/sync.h"

namespace trajsearch {

/// \brief The append-only entry table of one delta, shared by the writer
/// and every DeltaView published over it.
///
/// Each entry is the stable location of one delta trajectory's points inside
/// a chunk: a fixed-capacity block of points, filled by
/// LiveDataset::AddEntryLocked and never moved or resized after allocation.
/// The writer fills `entries` strictly in order under the ingest lock and
/// never rewrites a filled slot; a view reads only the slots below its own
/// size, all filled before the view was published, so the two never touch
/// the same slot. When the table is full the writer moves to a copy of
/// twice the capacity (amortised O(1) per append); views published before
/// keep the old table, and the chunks it points into, alive.
struct DeltaTable {
  explicit DeltaTable(size_t capacity_in)
      : entries(new TrajectoryView[capacity_in]), capacity(capacity_in) {}

  /// A chunk's storage and the slot of the first entry stored in it.
  struct Chunk {
    std::shared_ptr<Point[]> points;
    int first_slot;
  };

  std::unique_ptr<TrajectoryView[]> entries;
  size_t capacity;
  /// Keep-alives for every chunk the entries point into, in fill order.
  /// Only the writer touches this list; views hold it through the table.
  std::vector<Chunk> chunks;
};

/// \brief Immutable snapshot of the append-only delta: the trajectories
/// appended to a LiveDataset since its base was last compacted.
///
/// A DeltaView is a shared DeltaTable plus a size. Publishing a generation
/// is O(1): it records the current size and shares the table, copying
/// neither an entry nor a point, so appends cost the same however large the
/// delta has grown. Delta ids are dense [0, size()) in append order; the
/// owning CorpusView maps them to corpus ids by adding its base size.
class DeltaView {
 public:
  DeltaView() = default;

  /// Number of delta trajectories.
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Points of delta trajectory `delta_id` (contiguous within one chunk).
  TrajectoryView operator[](int delta_id) const {
    TRAJ_DCHECK(delta_id >= 0 && delta_id < size());
    return table_->entries[static_cast<size_t>(delta_id)];
  }

  /// Total points across the delta trajectories.
  size_t point_count() const { return point_count_; }

 private:
  friend class LiveDataset;
  /// Slots [0, size_) are filled and never change; the writer may be
  /// filling slots above them.
  std::shared_ptr<const DeltaTable> table_;
  int size_ = 0;
  size_t point_count_ = 0;
};

/// \brief One pinned generation of a live corpus: an immutable base Dataset
/// plus an immutable DeltaView, with a dense combined id space.
///
/// Corpus ids are base ids [0, base_size()) followed by delta ids
/// [base_size(), size()) in append order, and they are *stable*: an id
/// assigned by LiveDataset::Append never changes, including across
/// compaction (compacting k delta trajectories grows the base by exactly k,
/// so the remaining delta trajectories keep their corpus ids). Holding a
/// CorpusView pins the generation — appends and compactions published after
/// the view was taken are invisible to it, and the storage it references
/// stays alive for the view's lifetime.
class CorpusView {
 public:
  CorpusView() = default;

  /// Total trajectories (base + delta).
  int size() const { return base_size() + delta_size(); }
  int base_size() const { return base_ == nullptr ? 0 : base_->size(); }
  int delta_size() const { return delta_ == nullptr ? 0 : delta_->size(); }
  size_t point_count() const {
    return (base_ == nullptr ? 0 : base_->point_count()) +
           (delta_ == nullptr ? 0 : delta_->point_count());
  }

  /// Trajectory accessor by corpus id; the ref's id() is the corpus id.
  TrajectoryRef operator[](int id) const {
    TRAJ_DCHECK(id >= 0 && id < size());
    if (id < base_size()) return (*base_)[id];
    const TrajectoryView points = (*delta_)[id - base_size()];
    return TrajectoryRef(points.data(), static_cast<int>(points.size()), id);
  }

  const Dataset& base() const {
    TRAJ_DCHECK(base_ != nullptr);
    return *base_;
  }
  /// Shared ownership of the base (engines built over it outlive swaps).
  const std::shared_ptr<const Dataset>& base_ptr() const { return base_; }
  const DeltaView& delta() const {
    TRAJ_DCHECK(delta_ != nullptr);
    return *delta_;
  }

  /// Monotonic stamp bumped by every publication (append or compaction).
  uint64_t generation() const { return generation_; }
  /// Stamp bumped by appends only: two views with equal ingest_seq() hold
  /// the same trajectory *content* (compaction changes layout, not content),
  /// which is exactly what result-cache keys need.
  uint64_t ingest_seq() const { return ingest_seq_; }
  /// Number of compactions adopted so far.
  uint64_t base_generation() const { return base_generation_; }

 private:
  friend class LiveDataset;
  std::shared_ptr<const Dataset> base_;
  std::shared_ptr<const DeltaView> delta_;
  uint64_t generation_ = 0;
  uint64_t ingest_seq_ = 0;
  uint64_t base_generation_ = 0;
};

/// \brief A trajectory corpus that accepts appends while being read.
///
/// Generational storage: an immutable base Dataset (the pooled layout every
/// index and shard view is built over) plus an append-only
/// delta. Writers serialize on one mutex; readers never take it — View()
/// pins the most recently published CorpusView through an RCU-style
/// publication slot (util/published_ptr.h), so a reader picks up a
/// consistent generation in nanoseconds and in-flight queries keep their
/// pinned generation alive across any number of concurrent appends and
/// compaction swaps.
///
/// Delta points are stored in fixed-capacity chunks that never reallocate;
/// each append copies its points into chunk storage once and fills one slot
/// of the shared DeltaTable, and publication is O(1) (it copies no entry).
/// The delta is expected to stay small: when it exceeds a threshold the
/// owner compacts — builds one merged Dataset off-line via Merge(), then calls
/// AdoptBase() to swap it in and drop the compacted delta prefix.
class LiveDataset {
 public:
  /// Starts with `base` as generation 0 (the whole dataset, empty delta).
  explicit LiveDataset(Dataset base);

  LiveDataset(const LiveDataset&) = delete;
  LiveDataset& operator=(const LiveDataset&) = delete;

  /// Appends one trajectory (points are copied into delta chunk storage).
  /// Returns its corpus id — stable for the lifetime of this LiveDataset.
  int Append(TrajectoryView trajectory) TRAJ_EXCLUDES(mu_);

  /// Appends many trajectories under one lock acquisition and a single
  /// publication. Returns their corpus ids (consecutive).
  std::vector<int> AppendBatch(const std::vector<TrajectoryView>& trajectories)
      TRAJ_EXCLUDES(mu_);

  /// Pins the current generation. Readers never take the ingest mutex —
  /// only the publication slot's micro critical section — and the returned
  /// view stays valid (and unchanged) no matter what is appended or
  /// compacted afterwards.
  CorpusView View() const;

  /// Total trajectories in the current generation.
  int size() const { return View().size(); }

  /// Flattens a pinned generation into one pooled Dataset (base pool + delta
  /// points, ids preserved). Allocates exactly; runs without any lock, so a
  /// compactor can build the merged corpus while appends continue.
  static Dataset Merge(const CorpusView& view);

  /// Compaction swap: `base` replaces the current base and the first
  /// `compacted_count` delta trajectories (it must contain exactly the old
  /// base plus that delta prefix, in order — checked by size). Delta
  /// trajectories appended after the compactor pinned its view survive with
  /// their corpus ids unchanged and their points where they are; chunks
  /// holding only compacted trajectories are reclaimed once old views die.
  /// O(survivors) entry copies under the ingest lock, no point copies.
  void AdoptBase(std::shared_ptr<const Dataset> base, int compacted_count)
      TRAJ_EXCLUDES(mu_);

  /// Attaches (or, with null, detaches) storage observability: `live.*`
  /// gauges for generation/base-generation/delta size (refreshed at every
  /// publication) plus `live.append_seconds` and `live.adopt_seconds`
  /// latency histograms. The registry must outlive the dataset.
  void AttachMetrics(obs::Registry* registry) TRAJ_EXCLUDES(mu_);

 private:
  /// Points per delta chunk (a trajectory longer than this gets a dedicated
  /// chunk, so points of one trajectory are always contiguous).
  static constexpr size_t kChunkPoints = 4096;
  /// Entry slots of a fresh DeltaTable (it doubles when full).
  static constexpr size_t kInitialTableEntries = 64;

  /// Starts an empty DeltaTable with room for at least `entries` slots.
  void ResetTableLocked(size_t entries) TRAJ_REQUIRES(mu_);
  /// Copies `points` into chunk storage and fills the next table slot with
  /// their stable location.
  void AddEntryLocked(TrajectoryView points) TRAJ_REQUIRES(mu_);
  /// Publishes the current state as a new CorpusView.
  void PublishLocked() TRAJ_REQUIRES(mu_);

  mutable Mutex mu_;  // serializes writers; readers never take it

  // Writer state (guarded by mu_). Slots [0, delta_size_) of table_ are
  // filled and point into table_->chunks.
  std::shared_ptr<const Dataset> base_ TRAJ_GUARDED_BY(mu_);
  std::shared_ptr<DeltaTable> table_ TRAJ_GUARDED_BY(mu_);
  int delta_size_ TRAJ_GUARDED_BY(mu_) = 0;
  size_t last_chunk_used_ TRAJ_GUARDED_BY(mu_) = 0;
  size_t last_chunk_capacity_ TRAJ_GUARDED_BY(mu_) = 0;
  size_t delta_points_ TRAJ_GUARDED_BY(mu_) = 0;
  uint64_t generation_ TRAJ_GUARDED_BY(mu_) = 0;
  uint64_t ingest_seq_ TRAJ_GUARDED_BY(mu_) = 0;
  uint64_t base_generation_ TRAJ_GUARDED_BY(mu_) = 0;

  /// Observability (null when detached).
  obs::Registry* metrics_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* generation_gauge_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* base_generation_gauge_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* delta_trajectories_gauge_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* delta_points_gauge_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Histogram* append_hist_ TRAJ_GUARDED_BY(mu_) = nullptr;
  obs::Histogram* adopt_hist_ TRAJ_GUARDED_BY(mu_) = nullptr;

  /// RCU publication slot; store under mu_, load anywhere.
  PublishedPtr<const CorpusView> published_;
};

}  // namespace trajsearch
