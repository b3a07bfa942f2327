#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "util/status.h"

namespace trajsearch {

/// The engine's default GBP cell side for a corpus bounding box:
/// max(width, height) / 256, or 1.0 for degenerate boxes. Shared by
/// SearchEngine, QueryService (which pins it to the full-corpus box before
/// sharding) and the CLI, so every layer derives the same grid.
double DefaultCellSize(const BoundingBox& box);

/// Largest |cell index| a GBP cell key encodes: 2^31 - 2, so a
/// neighbour index (+-1) still fits the key's signed 32-bit halves.
inline constexpr int64_t kMaxCellIndex = (int64_t{1} << 31) - 2;

/// Saturating cell index of one coordinate: floor(v / cell_size), clamped to
/// [-kMaxCellIndex, kMaxCellIndex]; NaN maps to kMaxCellIndex. In-range
/// input is untouched, so keys (and prebuilt v4 grids) are unchanged for
/// every finite corpus whose extent stays under 2^31 cells; out-of-range and
/// non-finite input lands in a fixed edge cell instead of overflowing.
inline int64_t CellIndex(double v, double cell_size) {
  constexpr double kLimit = static_cast<double>(kMaxCellIndex);
  const double cell = std::floor(v / cell_size);
  // Branch-free clamp (minsd/maxsd): a NaN fails `<` and takes kLimit.
  const double upper = cell < kLimit ? cell : kLimit;
  return static_cast<int64_t>(upper > -kLimit ? upper : -kLimit);
}

/// Packs two cell indices into one grid key (x in the high half).
inline int64_t PackCellKey(int64_t ix, int64_t iy) {
  return (ix << 32) ^ (iy & 0xffffffffLL);
}

/// The GBP cell key of point (x, y) — the one key function GridIndex and
/// DeltaGridIndex share, so base and delta grids agree on cell geometry.
inline int64_t CellKey(double x, double y, double cell_size) {
  return PackCellKey(CellIndex(x, cell_size), CellIndex(y, cell_size));
}

/// Keys of the 3x3 neighbourhood around (x, y)'s cell: the cells whose
/// trajectories count as "close" to a query point (Appendix B).
inline std::array<int64_t, 9> CloseCellKeys(double x, double y,
                                            double cell_size) {
  const int64_t ix = CellIndex(x, cell_size);
  const int64_t iy = CellIndex(y, cell_size);
  std::array<int64_t, 9> keys;
  size_t k = 0;
  for (int64_t dx = -1; dx <= 1; ++dx) {
    for (int64_t dy = -1; dy <= 1; ++dy) {
      keys[k++] = PackCellKey(ix + dx, iy + dy);
    }
  }
  return keys;
}

/// \brief Size/cost breakdown of a built GridIndex (surfaced by the CLI's
/// `stats` subcommand so layout regressions are observable without a
/// profiler).
struct GridIndexStats {
  /// The cell side the index was actually built with. When EngineOptions
  /// leaves cell_size at 0 the engine derives one (DefaultCellSize) without
  /// mutating the caller's options; this field is where the derived value
  /// is observable.
  double cell_size = 0;
  /// Number of non-empty cells.
  size_t cell_count = 0;
  /// Total (cell, trajectory) postings across all cells.
  size_t entry_count = 0;
  /// Bytes held by the CSR arrays (keys + offsets + postings).
  size_t index_bytes = 0;
  /// Wall-clock seconds spent building the index.
  double build_seconds = 0;
};

/// Postings of one GBP cell: ascending trajectory ids in [first, second).
using PostingRange = std::pair<const int32_t*, const int32_t*>;

/// \brief What the GBP close counter reads from a grid.
///
/// GridIndex and DeltaGridIndex each describe themselves with one of these,
/// so the one counter below serves the base grid, the live delta and a
/// segment grid alike. `cell` runs once per distinct cell per block of
/// query points, so a function pointer plus the grid it reads is enough.
struct GbpPostings {
  double cell_size = 0;
  /// Exclusive bound on the ids the counter reports; sizes its per-id
  /// scratch.
  int id_bound = 0;
  /// The grid `cell` reads from.
  const void* grid = nullptr;
  /// Ascending postings of the cell with `key` whose ids lie below
  /// `id_bound`, or an empty range.
  PostingRange (*cell)(const void* grid, int64_t key, int id_bound) = nullptr;
};

/// The GBP close counter (Appendix B): close(q, T) of every trajectory with
/// a nonzero count, into `out` as (id, close count) pairs in ascending id
/// order.
///
/// Counting visits each distinct cell once per block of up to 64 query
/// points: the block's 9 * m neighbour keys are grouped by cell into a mask
/// of the block points each cell neighbours, and every posting of the cell
/// ORs that mask into a per-trajectory word; the popcount of the word is
/// then the block's close count for the trajectory. A cell that several
/// query points share — consecutive points mostly do — is read once instead
/// of once per point, and no per-visit dedupe test is needed. The per-id
/// words and counts live in thread-local scratch that every call leaves
/// zeroed, so steady-state queries allocate nothing. A posting id outside
/// [0, id_bound) — only a crafted or corrupt file holds one — is counted in
/// a sink slot that is never reported. Reuses `out`'s capacity; safe to
/// call concurrently from many threads.
void GbpCloseCounts(const GbpPostings& grid, TrajectoryView query,
                    std::vector<std::pair<int, int>>* out);

/// The GBP filter (Equation 27): ids with close(q, T) >= mu * |query|, into
/// `out` (capacity reused). Ascending id, or with `ordered`
/// most-promising-first: descending close count, ascending id within equal
/// counts. A high close count is a cheap proxy for a low distance, so
/// evaluating those first tightens the global top-K threshold early and
/// lets the bound filter and DP early abandoning prune the tail. Both
/// orders hold the same set.
void GbpCandidates(const GbpPostings& grid, TrajectoryView query, double mu,
                   bool ordered, std::vector<int>* out);

/// \brief Grid-Based Pruning index (GBP, Appendix B).
///
/// Space is divided into square cells of side `cell_size`; an inverted index
/// maps each cell to the ids of the data trajectories passing through it. A
/// query point is "close" to a trajectory if the trajectory has a point in
/// the query point's cell or one of its 8 neighbours; close(q, T) counts the
/// query points close to T. Trajectories with close(q, T) >= mu * m survive
/// the filter (Equation 27); GbpCloseCounts does the counting.
///
/// Storage is CSR: sorted unique cell keys, per-cell offsets and one flat
/// posting array of trajectory ids — contiguous buffers instead of a
/// node-based hash map — plus a flat open-addressed slot table for O(1)
/// key-to-cell lookup, so a cell probe is one hash, a short linear scan over
/// two flat arrays and a contiguous run of ids that prefetches cleanly. Ids
/// are local to the DatasetView the index was built over (identical to
/// global ids for a whole-dataset view).
/// The five arrays are immutable once served and live in storage a
/// refcounted keepalive holds: the builder's own block, or a FromParts
/// caller's (typically the CSR grid section of a mapped v4 snapshot). So
/// there is one storage mode, copying a grid shares its arrays, and the
/// probe path is the same for a built and an adopted grid.
class GridIndex {
 public:
  /// Builds the inverted index in O(total points + cells * log cells): a
  /// counting pass, a sort of the distinct cell keys and a scatter pass.
  GridIndex(DatasetView data, double cell_size);

  /// An empty index (no cells, no slots): the FromParts target and the
  /// Result<GridIndex> placeholder. Never probed — FromParts fills the
  /// views in before one escapes.
  GridIndex() = default;

  /// Adopts prebuilt CSR + slot arrays without copying (the zero-copy
  /// serving path for a grid section mapped from disk). `keepalive` owns the
  /// arrays' storage. Validates the structural invariants the probe path
  /// relies on — offset-table shape, power-of-two slot table, slot targets
  /// in range — and returns InvalidArgument instead of adopting bad bytes.
  /// Posting ids are not scanned, which keeps adoption inside the mmap-open
  /// latency budget: the counter sinks an out-of-range id instead of
  /// reading past its scratch, and MmapSnapshot::Verify() rejects one, as
  /// it does unsorted cell keys (an ordering nicety the hash-probed lookups
  /// never depend on).
  static Result<GridIndex> FromParts(double cell_size, int dataset_size,
                                     std::span<const int64_t> cell_keys,
                                     std::span<const uint64_t> cell_offsets,
                                     std::span<const int32_t> ids,
                                     std::span<const int64_t> slot_keys,
                                     std::span<const int32_t> slot_cells,
                                     std::shared_ptr<const void> keepalive);

  /// This grid as the GBP counter reads it: every id below dataset_size().
  GbpPostings postings() const;

  /// GbpCloseCounts over this grid.
  void CloseCounts(TrajectoryView query,
                   std::vector<std::pair<int, int>>* out) const;

  /// Allocating convenience wrapper around the scratch-reusing overload.
  std::vector<std::pair<int, int>> CloseCounts(TrajectoryView query) const;

  /// Ids of trajectories with close(q, T) >= mu * |query| (ascending), into
  /// `out` (capacity reused across calls).
  void Candidates(TrajectoryView query, double mu,
                  std::vector<int>* out) const;

  /// Allocating convenience wrapper around the scratch-reusing overload.
  std::vector<int> Candidates(TrajectoryView query, double mu) const;

  /// The same candidates most-promising-first (see GbpCandidates), the
  /// order the engine's shared-threshold search evaluates them in.
  void OrderedCandidates(TrajectoryView query, double mu,
                         std::vector<int>* out) const;

  double cell_size() const { return cell_size_; }
  size_t cell_count() const { return cell_count_; }
  int dataset_size() const { return dataset_size_; }
  /// True when the arrays were adopted through FromParts rather than built.
  bool borrowed() const { return borrowed_; }
  const GridIndexStats& stats() const { return stats_; }

  /// \name Raw serving arrays (the v4 snapshot writer serializes these;
  /// FromParts adopts the same five arrays back).
  /// @{
  std::span<const int64_t> cell_keys() const {
    return {cell_keys_, cell_count_};
  }
  std::span<const uint64_t> cell_offsets() const {
    return {cell_offsets_, cell_count_ + 1};
  }
  std::span<const int32_t> posting_ids() const { return {ids_, id_count_}; }
  std::span<const int64_t> slot_keys() const {
    return {slot_keys_, slot_mask_ + 1};
  }
  std::span<const int32_t> slot_cells() const {
    return {slot_cells_, slot_mask_ + 1};
  }
  /// @}

 private:
  /// Points the views at the five arrays `keepalive` holds and fills the
  /// size stats; the one way a grid gets its storage.
  void Adopt(std::span<const int64_t> cell_keys,
             std::span<const uint64_t> cell_offsets,
             std::span<const int32_t> ids, std::span<const int64_t> slot_keys,
             std::span<const int32_t> slot_cells,
             std::shared_ptr<const void> keepalive);
  /// GbpPostings::cell over the slot table (`grid` is a GridIndex).
  static PostingRange CellPostings(const void* grid, int64_t key,
                                   int id_bound);

  double cell_size_ = 0;
  int dataset_size_ = 0;
  bool borrowed_ = false;
  /// Serving views into `keepalive_`'s storage: cell keys sorted ascending;
  /// ids of cell c are ids_[cell_offsets_[c] .. cell_offsets_[c+1]),
  /// ascending. Open-addressed (linear probing) key -> cell slot table of
  /// power-of-two size; slot_cells_ is -1 for empty slots.
  const int64_t* cell_keys_ = nullptr;
  size_t cell_count_ = 0;
  const uint64_t* cell_offsets_ = nullptr;
  const int32_t* ids_ = nullptr;
  size_t id_count_ = 0;
  const int64_t* slot_keys_ = nullptr;
  const int32_t* slot_cells_ = nullptr;
  size_t slot_mask_ = 0;
  std::shared_ptr<const void> keepalive_;
  GridIndexStats stats_;
};

}  // namespace trajsearch
