#include "prune/grid_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/stopwatch.h"

namespace trajsearch {

namespace {

/// Per-thread counting scratch, shared by every grid the thread counts.
///
/// Between calls every word and count is zero again (each call clears what
/// it set), so nothing is cleared per query; the per-id arrays only grow to
/// the largest id bound seen on the thread.
struct GridScratch {
  /// Per id: the query-point mask of the current block (bit b set when
  /// block point b has the id in one of its nine cells).
  std::vector<uint64_t> words;
  /// Per id: close count over the blocks so far.
  std::vector<int> counts;
  /// Ids whose word went non-zero in the current block, and ids with a
  /// non-zero count, each in first-touch order; sized to the id bound, so
  /// appends are unconditional stores.
  std::vector<int> block_ids;
  std::vector<int> touched;
  /// The block's distinct neighbour cells: an open-addressed key -> mask
  /// table (mask 0 = empty slot) and the slots in use.
  std::vector<int64_t> cell_keys;
  std::vector<uint64_t> cell_masks;
  std::vector<int> cell_slots;

  void EnsureSize(size_t n) {
    if (words.size() < n) {
      words.resize(n, 0);
      counts.resize(n, 0);
      block_ids.resize(n);
      touched.resize(n);
    }
  }
};

GridScratch& LocalScratch() {
  thread_local GridScratch scratch;
  return scratch;
}

/// splitmix64 finalizer: cheap, well-mixed hash for the slot table.
inline uint64_t HashKey(int64_t key) {
  uint64_t x = static_cast<uint64_t>(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// A built grid's five arrays: one immutable block that every copy of the
/// grid shares through its keepalive.
struct GridStorage {
  std::vector<int64_t> cell_keys;
  std::vector<uint64_t> cell_offsets;
  std::vector<int32_t> ids;
  std::vector<int64_t> slot_keys;
  std::vector<int32_t> slot_cells;
};

/// close(q, T) of every trajectory with a nonzero count, as (id, count)
/// pairs in first-touch order (see GbpCloseCounts).
void UnsortedCloseCounts(const GbpPostings& grid, TrajectoryView query,
                         std::vector<std::pair<int, int>>* out) {
  // Query points per block: one bit of a mask word each.
  constexpr size_t kBlock = 64;
  // A power of two >= 2 * 9 * kBlock: a block's distinct neighbour cells
  // fill the cell table at most half.
  constexpr size_t kCellSlots = 2048;
  constexpr size_t kCellMask = kCellSlots - 1;
  GridScratch& scratch = LocalScratch();
  // Ids outside [0, id_bound) count in the sink slot at id_bound, which is
  // never reported; one spare entry past it, because the id lists store
  // before they decide to advance.
  const auto sink = static_cast<uint32_t>(grid.id_bound);
  scratch.EnsureSize(static_cast<size_t>(sink) + 2);
  if (scratch.cell_masks.size() != kCellSlots) {
    scratch.cell_keys.assign(kCellSlots, 0);
    scratch.cell_masks.assign(kCellSlots, 0);
    scratch.cell_slots.reserve(9 * kBlock);
  }
  uint64_t* words = scratch.words.data();
  int* counts = scratch.counts.data();
  int* block_ids = scratch.block_ids.data();
  int* touched = scratch.touched.data();
  int64_t* cell_keys = scratch.cell_keys.data();
  uint64_t* cell_masks = scratch.cell_masks.data();
  size_t touched_count = 0;
  for (size_t begin = 0; begin < query.size(); begin += kBlock) {
    const size_t end = std::min(query.size(), begin + kBlock);
    // Group the block's 9 * (end - begin) neighbour keys by cell: each
    // distinct cell gets the mask of the block points it neighbours.
    scratch.cell_slots.clear();
    for (size_t qi = begin; qi < end; ++qi) {
      const uint64_t bit = uint64_t{1} << (qi - begin);
      const Point& p = query[qi];
      for (const int64_t key : CloseCellKeys(p.x, p.y, grid.cell_size)) {
        size_t h = HashKey(key) & kCellMask;
        while (cell_masks[h] != 0 && cell_keys[h] != key) {
          h = (h + 1) & kCellMask;
        }
        if (cell_masks[h] == 0) {
          cell_keys[h] = key;
          scratch.cell_slots.push_back(static_cast<int>(h));
        }
        cell_masks[h] |= bit;
      }
    }
    // Visit each distinct cell's postings once, OR-ing its mask into the
    // trajectory's word; a word going non-zero lists the id for the block.
    size_t block_count = 0;
    for (const int h : scratch.cell_slots) {
      const uint64_t mask = cell_masks[h];
      cell_masks[h] = 0;
      const auto [it, stop] = grid.cell(grid.grid, cell_keys[h], grid.id_bound);
      for (const int32_t* id_ptr = it; id_ptr != stop; ++id_ptr) {
        // As unsigned, a negative id is past the bound too.
        const uint32_t id = std::min(static_cast<uint32_t>(*id_ptr), sink);
        const uint64_t word = words[id];
        block_ids[block_count] = static_cast<int>(id);
        block_count += static_cast<size_t>(word == 0);
        words[id] = word | mask;
      }
    }
    // Each set bit is one block point close to the trajectory.
    for (size_t i = 0; i < block_count; ++i) {
      const int id = block_ids[i];
      const int count = counts[id];
      touched[touched_count] = id;
      touched_count += static_cast<size_t>(count == 0);
      counts[id] = count + std::popcount(words[id]);
      words[id] = 0;
    }
  }
  out->clear();
  out->reserve(touched_count);
  for (size_t i = 0; i < touched_count; ++i) {
    const int id = touched[i];
    if (id != grid.id_bound) out->emplace_back(id, counts[id]);
    counts[id] = 0;
  }
}

}  // namespace

void GbpCloseCounts(const GbpPostings& grid, TrajectoryView query,
                    std::vector<std::pair<int, int>>* out) {
  UnsortedCloseCounts(grid, query, out);
  std::sort(out->begin(), out->end());
}

void GbpCandidates(const GbpPostings& grid, TrajectoryView query, double mu,
                   bool ordered, std::vector<int>* out) {
  thread_local std::vector<std::pair<int, int>> survivors;
  UnsortedCloseCounts(grid, query, &survivors);
  // Keep the survivors in place as (-count, id): the default pair order is
  // then descending count, ascending id — a deterministic
  // most-promising-first order.
  const double threshold = mu * static_cast<double>(query.size());
  size_t kept = 0;
  for (size_t i = 0; i < survivors.size(); ++i) {
    const auto [id, count] = survivors[i];
    if (static_cast<double>(count) >= threshold) {
      survivors[kept++] = {-count, id};
    }
  }
  survivors.resize(kept);
  if (ordered) std::sort(survivors.begin(), survivors.end());
  out->clear();
  out->reserve(kept);
  for (const auto& [neg_count, id] : survivors) out->push_back(id);
  if (!ordered) std::sort(out->begin(), out->end());
}

double DefaultCellSize(const BoundingBox& box) {
  const double cell = std::max(box.Width(), box.Height()) / 256.0;
  return cell > 0 ? cell : 1.0;
}

GridIndex::GridIndex(DatasetView data, double cell_size)
    : cell_size_(cell_size), dataset_size_(data.size()) {
  TRAJ_CHECK(cell_size > 0);
  Stopwatch build_watch;

  // Counting CSR build, linear in the points. Pass 1 numbers the distinct
  // cells densely in first-seen order and counts each cell's postings: ids
  // arrive in ascending order, so a per-cell last-id stamp dedupes
  // (cell, id) exactly. `point_cell` (the one per-point temporary, 4 bytes
  // a point) keeps the dense cell of each point that adds a posting, or -1,
  // so the scatter pass neither re-derives keys nor re-hashes.
  const int size = data.size();
  std::vector<int32_t> point_cell(data.point_count());
  // (key, dense cell) in first-seen order; sorted by key once pass 1 ends.
  std::vector<std::pair<int64_t, int32_t>> dense;
  std::vector<uint64_t> dense_count;
  std::vector<int32_t> dense_last_id;
  // Open-addressed key -> dense cell table (load factor <= 0.5).
  std::vector<int64_t> table_key(1024);
  std::vector<int32_t> table_cell(1024, -1);
  size_t table_mask = table_key.size() - 1;
  const auto find_or_insert = [&](int64_t key) -> size_t {
    size_t h = HashKey(key) & table_mask;
    while (table_cell[h] != -1) {
      if (table_key[h] == key) return static_cast<size_t>(table_cell[h]);
      h = (h + 1) & table_mask;
    }
    const size_t cell = dense.size();
    table_key[h] = key;
    table_cell[h] = static_cast<int32_t>(cell);
    dense.emplace_back(key, static_cast<int32_t>(cell));
    dense_count.push_back(0);
    dense_last_id.push_back(-1);
    if (dense.size() * 2 > table_key.size()) {
      // Double and re-insert every key: O(cells) amortized.
      table_key.assign(table_key.size() * 2, 0);
      table_cell.assign(table_cell.size() * 2, -1);
      table_mask = table_key.size() - 1;
      for (const auto& [k, c] : dense) {
        size_t g = HashKey(k) & table_mask;
        while (table_cell[g] != -1) g = (g + 1) & table_mask;
        table_key[g] = k;
        table_cell[g] = c;
      }
    }
    return cell;
  };
  size_t at = 0;
  for (int id = 0; id < size; ++id) {
    int64_t last_key = 0;
    bool have_last = false;
    for (const Point& p : data[id].points()) {
      const int64_t key = CellKey(p.x, p.y, cell_size_);
      int32_t posting = -1;
      // Consecutive points usually share a cell: skip those without a
      // table probe; the stamp catches non-consecutive revisits.
      if (!have_last || key != last_key) {
        const size_t cell = find_or_insert(key);
        if (dense_last_id[cell] != id) {
          dense_last_id[cell] = id;
          ++dense_count[cell];
          posting = static_cast<int32_t>(cell);
        }
        last_key = key;
        have_last = true;
      }
      point_cell[at++] = posting;
    }
  }

  // Sort only the distinct keys, then prefix-sum their counts into the CSR
  // offsets; each dense cell's count becomes its write cursor.
  const size_t cells = dense.size();
  std::sort(dense.begin(), dense.end());
  const auto storage = std::make_shared<GridStorage>();
  std::vector<int64_t>& cell_keys = storage->cell_keys;
  std::vector<uint64_t>& cell_offsets = storage->cell_offsets;
  std::vector<int32_t>& ids = storage->ids;
  cell_keys.resize(cells);
  cell_offsets.resize(cells + 1);
  std::vector<uint64_t>& cursor = dense_count;
  uint64_t total = 0;
  for (size_t c = 0; c < cells; ++c) {
    const auto [key, cell] = dense[c];
    cell_keys[c] = key;
    cell_offsets[c] = total;
    total += std::exchange(cursor[static_cast<size_t>(cell)], total);
  }
  cell_offsets[cells] = total;

  // Scatter ids in id order, so every cell's postings ascend exactly as a
  // sort of the (cell, id) pairs would leave them.
  ids.resize(total);
  at = 0;
  for (int id = 0; id < size; ++id) {
    const size_t end = at + static_cast<size_t>(data[id].size());
    for (; at < end; ++at) {
      const int32_t cell = point_cell[at];
      if (cell >= 0) ids[cursor[static_cast<size_t>(cell)]++] = id;
    }
  }

  // Slot table at load factor <= 0.5 (power-of-two size, linear probing).
  size_t slots = 16;
  while (slots < cells * 2) slots <<= 1;
  std::vector<int64_t>& slot_keys = storage->slot_keys;
  std::vector<int32_t>& slot_cells = storage->slot_cells;
  slot_keys.assign(slots, 0);
  slot_cells.assign(slots, -1);
  for (size_t c = 0; c < cells; ++c) {
    size_t h = HashKey(cell_keys[c]) & (slots - 1);
    while (slot_cells[h] != -1) h = (h + 1) & (slots - 1);
    slot_keys[h] = cell_keys[c];
    slot_cells[h] = static_cast<int32_t>(c);
  }

  Adopt(cell_keys, cell_offsets, ids, slot_keys, slot_cells, storage);
  stats_.build_seconds = build_watch.Seconds();
}

void GridIndex::Adopt(std::span<const int64_t> cell_keys,
                      std::span<const uint64_t> cell_offsets,
                      std::span<const int32_t> ids,
                      std::span<const int64_t> slot_keys,
                      std::span<const int32_t> slot_cells,
                      std::shared_ptr<const void> keepalive) {
  cell_keys_ = cell_keys.data();
  cell_count_ = cell_keys.size();
  cell_offsets_ = cell_offsets.data();
  ids_ = ids.data();
  id_count_ = ids.size();
  slot_keys_ = slot_keys.data();
  slot_cells_ = slot_cells.data();
  slot_mask_ = slot_keys.size() - 1;
  keepalive_ = std::move(keepalive);
  stats_.cell_size = cell_size_;
  stats_.cell_count = cell_keys.size();
  stats_.entry_count = ids.size();
  stats_.index_bytes = cell_keys.size_bytes() + cell_offsets.size_bytes() +
                       ids.size_bytes() + slot_keys.size_bytes() +
                       slot_cells.size_bytes();
}

Result<GridIndex> GridIndex::FromParts(double cell_size, int dataset_size,
                                       std::span<const int64_t> cell_keys,
                                       std::span<const uint64_t> cell_offsets,
                                       std::span<const int32_t> ids,
                                       std::span<const int64_t> slot_keys,
                                       std::span<const int32_t> slot_cells,
                                       std::shared_ptr<const void> keepalive) {
  if (!(cell_size > 0) || dataset_size < 0) {
    return Status::InvalidArgument("grid parts: bad cell size or corpus size");
  }
  // The scans below run on every mmap open, so they are written as
  // single-pass branchless reductions (no early exit) that the compiler can
  // vectorize — a rejected file pays one wasted pass, the common valid open
  // runs several times faster than the short-circuiting spellings.
  if (cell_offsets.size() != cell_keys.size() + 1 ||
      cell_offsets.front() != 0 || cell_offsets.back() != ids.size()) {
    return Status::InvalidArgument(
        "grid parts: offset table is not a valid CSR layout");
  }
  uint64_t offsets_descend = 0;
  for (size_t i = 0; i + 1 < cell_offsets.size(); ++i) {
    offsets_descend |= cell_offsets[i] > cell_offsets[i + 1];
  }
  if (offsets_descend != 0) {
    return Status::InvalidArgument(
        "grid parts: offset table is not a valid CSR layout");
  }
  // cell_keys sortedness is deliberately NOT checked here: lookups go
  // through the hash slot table only (CellPostings never binary-searches the
  // keys), so an out-of-order key cannot cause out-of-bounds access — it is
  // an integrity property, and MmapSnapshot::Verify() checks it on the deep
  // path. Keeping the 8-bytes-per-cell stream out of FromParts matters for
  // the mmap-open latency budget.
  if (slot_keys.size() != slot_cells.size() || slot_keys.empty() ||
      (slot_keys.size() & (slot_keys.size() - 1)) != 0 ||
      slot_keys.size() < cell_keys.size()) {
    return Status::InvalidArgument(
        "grid parts: slot table is not a power-of-two probe table");
  }
  if (cell_keys.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    // Dataset ids (and therefore slot targets) are int32 throughout; a cell
    // count past INT32_MAX is a hard format limit, and casting it below
    // would wrap cell_limit and void the range check.
    return Status::InvalidArgument(
        "grid parts: cell count exceeds the int32 id space");
  }
  const auto cell_limit = static_cast<int32_t>(cell_keys.size());
  int32_t slot_out_of_range = 0;
  uint64_t empty_slots = 0;
  for (const int32_t cell : slot_cells) {
    slot_out_of_range |= static_cast<int32_t>(cell < -1) |
                         static_cast<int32_t>(cell >= cell_limit);
    empty_slots += static_cast<uint64_t>(cell == -1);
  }
  if (slot_out_of_range != 0) {
    return Status::InvalidArgument("grid parts: slot target out of range");
  }
  if (empty_slots == 0) {
    // CellPostings' open-addressing probe terminates on an empty slot or a key
    // match; a table with no empty slot would spin forever on the first
    // lookup of an absent key. The builder never fills a table (load factor
    // is bounded at 1/2), so this only rejects corrupt or crafted files.
    return Status::InvalidArgument("grid parts: probe table has no empty slot");
  }
  GridIndex grid;
  grid.cell_size_ = cell_size;
  grid.dataset_size_ = dataset_size;
  grid.borrowed_ = true;
  grid.Adopt(cell_keys, cell_offsets, ids, slot_keys, slot_cells,
             std::move(keepalive));
  return grid;  // served prebuilt: build_seconds stays 0
}

GbpPostings GridIndex::postings() const {
  return {cell_size_, dataset_size_, this, &GridIndex::CellPostings};
}

PostingRange GridIndex::CellPostings(const void* grid, int64_t key,
                                     int /*id_bound*/) {
  const auto& self = *static_cast<const GridIndex*>(grid);
  size_t h = HashKey(key) & self.slot_mask_;
  while (true) {
    const int32_t c = self.slot_cells_[h];
    if (c == -1) return {nullptr, nullptr};
    if (self.slot_keys_[h] == key) {
      const int32_t* ids = self.ids_;
      return {ids + self.cell_offsets_[static_cast<size_t>(c)],
              ids + self.cell_offsets_[static_cast<size_t>(c) + 1]};
    }
    h = (h + 1) & self.slot_mask_;
  }
}

void GridIndex::CloseCounts(TrajectoryView query,
                            std::vector<std::pair<int, int>>* out) const {
  GbpCloseCounts(postings(), query, out);
}

std::vector<std::pair<int, int>> GridIndex::CloseCounts(
    TrajectoryView query) const {
  std::vector<std::pair<int, int>> result;
  CloseCounts(query, &result);
  return result;
}

void GridIndex::Candidates(TrajectoryView query, double mu,
                           std::vector<int>* out) const {
  GbpCandidates(postings(), query, mu, /*ordered=*/false, out);
}

std::vector<int> GridIndex::Candidates(TrajectoryView query,
                                       double mu) const {
  std::vector<int> ids;
  Candidates(query, mu, &ids);
  return ids;
}

void GridIndex::OrderedCandidates(TrajectoryView query, double mu,
                                  std::vector<int>* out) const {
  GbpCandidates(postings(), query, mu, /*ordered=*/true, out);
}

}  // namespace trajsearch
