#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/live_dataset.h"
#include "core/trajectory.h"
#include "obs/metrics.h"
#include "prune/grid_index.h"
#include "util/sync.h"

namespace trajsearch {

/// \brief Incremental GBP grid over a live corpus's delta.
///
/// The base corpus keeps its CSR GridIndex — contiguous, cache-friendly, and
/// immutable — while trajectories appended since the last compaction are
/// indexed here: a hash map from cell key to a growable vector of ids, which
/// supports O(points) Add() with no rebuild. Candidate generation over a
/// live corpus unions the two: base candidates from the CSR postings, delta
/// candidates from these. Both grids describe themselves as GbpPostings and
/// are counted by the one GBP counter (GbpCloseCounts) with the same cell
/// geometry (CellKey, the 3x3 close-neighbourhood, the mu threshold), so
/// for any common cell size
///   close counts(base CSR) ∪ close counts(delta grid)
///     == close counts(one grid over base + delta),
/// which is what the live-vs-fresh equivalence gate relies on.
///
/// Ids are delta-local ([0, size()) in Add order); the serving layer maps
/// them to corpus ids by adding the base size. Every cell's postings ascend,
/// so a read capped at `limit` — which hands the counter only each cell's
/// postings below the cap — sees exactly what a grid over the first `limit`
/// trajectories would: the service keeps one index per base generation
/// (SharedDeltaGrid below), extended as the delta grows, and each query
/// reads it capped at its pinned generation's delta size. Reads
/// (CloseCounts and friends) are const and safe from many threads; Add is
/// writer-side only.
class DeltaGridIndex {
 public:
  /// Read cap meaning "every indexed trajectory".
  static constexpr int kAll = std::numeric_limits<int>::max();

  explicit DeltaGridIndex(double cell_size);

  /// Indexes the next delta trajectory (id = number of prior Adds).
  void Add(TrajectoryView trajectory);

  /// This grid as the GBP counter reads it: the ids below `limit` (and
  /// size()).
  GbpPostings postings(int limit) const;

  /// close(q, T) for every delta trajectory with id < `limit` and a nonzero
  /// count, as (delta id, count) pairs in ascending id order — the same
  /// contract as GridIndex::CloseCounts. Reuses `out` capacity;
  /// concurrency-safe.
  void CloseCounts(TrajectoryView query,
                   std::vector<std::pair<int, int>>* out,
                   int limit = kAll) const;

  /// Delta ids < `limit` with close(q, T) >= mu * |query|, ascending id.
  void Candidates(TrajectoryView query, double mu, std::vector<int>* out,
                  int limit = kAll) const;

  /// Same candidate set ordered most-promising-first (descending close
  /// count, ascending id on ties), mirroring GridIndex::OrderedCandidates.
  void OrderedCandidates(TrajectoryView query, double mu,
                         std::vector<int>* out, int limit = kAll) const;

  double cell_size() const { return cell_size_; }
  /// Number of indexed delta trajectories.
  int size() const { return size_; }
  size_t cell_count() const { return cells_.size(); }
  /// Total (cell, id) postings (duplicates from cell revisits excluded).
  size_t entry_count() const { return entry_count_; }

 private:
  /// GbpPostings::cell over `cells_` (`grid` is a DeltaGridIndex): the
  /// cell's postings below `id_bound`.
  static PostingRange CellPostings(const void* grid, int64_t key,
                                   int id_bound);

  double cell_size_;
  int size_ = 0;
  size_t entry_count_ = 0;
  /// cell key -> delta ids passing through the cell (ascending, unique).
  std::unordered_map<int64_t, std::vector<int32_t>> cells_;
};

/// \brief One DeltaGridIndex shared by every published generation over the
/// same base, caught up lazily by the queries that read it.
///
/// Generations over one base have nested deltas (each a prefix of the
/// next), so one index serves them all: a (query, delta) task first calls
/// CatchUp with its pinned delta — indexing only the trajectories appended
/// since the grid last grew — then reads candidates capped at that delta's
/// size, so a query on an older generation never sees a newer append. A
/// compaction renumbers delta ids, so the service starts a fresh grid for
/// each new base. Catch-up holds the lock exclusively for the Adds only;
/// reads hold it shared, and nothing else (the DP in particular) runs under
/// it.
class SharedDeltaGrid {
 public:
  /// `indexed` (not owned, non-null) counts every trajectory CatchUp
  /// indexes.
  SharedDeltaGrid(double cell_size, obs::Counter* indexed);

  SharedDeltaGrid(const SharedDeltaGrid&) = delete;
  SharedDeltaGrid& operator=(const SharedDeltaGrid&) = delete;

  /// Extends the index to delta.size() trajectories. `delta` must extend
  /// every delta passed before (same base generation).
  void CatchUp(const DeltaView& delta) TRAJ_EXCLUDES(mu_);

  /// Runs fn(const DeltaGridIndex&) with the index held shared.
  template <typename Fn>
  void Read(Fn&& fn) const TRAJ_EXCLUDES(mu_) {
    ReaderLock lock(mu_);
    fn(static_cast<const DeltaGridIndex&>(grid_));
  }

 private:
  mutable SharedMutex mu_;
  DeltaGridIndex grid_ TRAJ_GUARDED_BY(mu_);
  obs::Counter* indexed_;
};

}  // namespace trajsearch
