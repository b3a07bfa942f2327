#include "prune/grid_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/stopwatch.h"

namespace trajsearch {

namespace {

/// Per-thread counting scratch, shared by every GridIndex on the thread.
///
/// Between calls every word and count is zero again (each call clears what
/// it set), so nothing is cleared per query; the per-id arrays only grow to
/// the largest dataset seen on the thread.
struct GridScratch {
  /// Per id: the query-point mask of the current block (bit b set when
  /// block point b has the id in one of its nine cells).
  std::vector<uint64_t> words;
  /// Per id: close count over the blocks so far.
  std::vector<int> counts;
  /// Ids whose word went non-zero in the current block, and ids with a
  /// non-zero count, each in first-touch order; sized to the dataset, so
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

}  // namespace

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
  cell_keys_.resize(cells);
  cell_offsets_.resize(cells + 1);
  std::vector<uint64_t>& cursor = dense_count;
  uint64_t total = 0;
  for (size_t c = 0; c < cells; ++c) {
    const auto [key, cell] = dense[c];
    cell_keys_[c] = key;
    cell_offsets_[c] = total;
    total += std::exchange(cursor[static_cast<size_t>(cell)], total);
  }
  cell_offsets_[cells] = total;

  // Scatter ids in id order, so every cell's postings ascend exactly as a
  // sort of the (cell, id) pairs would leave them.
  ids_.resize(total);
  at = 0;
  for (int id = 0; id < size; ++id) {
    const size_t end = at + static_cast<size_t>(data[id].size());
    for (; at < end; ++at) {
      const int32_t cell = point_cell[at];
      if (cell >= 0) ids_[cursor[static_cast<size_t>(cell)]++] = id;
    }
  }

  // Slot table at load factor <= 0.5 (power-of-two size, linear probing).
  size_t slots = 16;
  while (slots < cell_keys_.size() * 2) slots <<= 1;
  slot_mask_ = slots - 1;
  slot_key_.assign(slots, 0);
  slot_cell_.assign(slots, -1);
  for (size_t c = 0; c < cell_keys_.size(); ++c) {
    size_t h = HashKey(cell_keys_[c]) & slot_mask_;
    while (slot_cell_[h] != -1) h = (h + 1) & slot_mask_;
    slot_key_[h] = cell_keys_[c];
    slot_cell_[h] = static_cast<int32_t>(c);
  }

  SyncViews();
  stats_.cell_size = cell_size_;
  stats_.cell_count = cell_keys_.size();
  stats_.entry_count = ids_.size();
  stats_.index_bytes = cell_keys_.size() * sizeof(int64_t) +
                       cell_offsets_.size() * sizeof(uint64_t) +
                       ids_.size() * sizeof(int32_t) +
                       slot_key_.size() * sizeof(int64_t) +
                       slot_cell_.size() * sizeof(int32_t);
  stats_.build_seconds = build_watch.Seconds();
}

void GridIndex::SyncViews() {
  cell_keys_data_ = cell_keys_.data();
  cell_count_ = cell_keys_.size();
  cell_offsets_data_ = cell_offsets_.data();
  ids_data_ = ids_.data();
  id_count_ = ids_.size();
  slot_key_data_ = slot_key_.data();
  slot_cell_data_ = slot_cell_.data();
  slot_mask_ = slot_key_.empty() ? 0 : slot_key_.size() - 1;
}

GridIndex::GridIndex(const GridIndex& other)
    : cell_size_(other.cell_size_),
      dataset_size_(other.dataset_size_),
      borrowed_(other.borrowed_),
      cell_keys_(other.cell_keys_),
      cell_offsets_(other.cell_offsets_),
      ids_(other.ids_),
      slot_key_(other.slot_key_),
      slot_cell_(other.slot_cell_),
      cell_keys_data_(other.cell_keys_data_),
      cell_count_(other.cell_count_),
      cell_offsets_data_(other.cell_offsets_data_),
      ids_data_(other.ids_data_),
      id_count_(other.id_count_),
      slot_key_data_(other.slot_key_data_),
      slot_cell_data_(other.slot_cell_data_),
      slot_mask_(other.slot_mask_),
      keepalive_(other.keepalive_),
      stats_(other.stats_) {
  // Borrowed copies share the keepalive (views stay valid); owned copies got
  // fresh vector buffers and must repoint at them.
  if (!borrowed_) SyncViews();
}

GridIndex& GridIndex::operator=(const GridIndex& other) {
  if (this == &other) return *this;
  GridIndex copy(other);
  *this = std::move(copy);
  return *this;
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
  // through the hash slot table only (CellRange never binary-searches the
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
    // CellRange's open-addressing probe terminates on an empty slot or a key
    // match; a table with no empty slot would spin forever on the first
    // lookup of an absent key. The builder never fills a table (load factor
    // is bounded at 1/2), so this only rejects corrupt or crafted files.
    return Status::InvalidArgument("grid parts: probe table has no empty slot");
  }
  GridIndex grid;
  grid.cell_size_ = cell_size;
  grid.dataset_size_ = dataset_size;
  grid.borrowed_ = true;
  grid.cell_keys_data_ = cell_keys.data();
  grid.cell_count_ = cell_keys.size();
  grid.cell_offsets_data_ = cell_offsets.data();
  grid.ids_data_ = ids.data();
  grid.id_count_ = ids.size();
  grid.slot_key_data_ = slot_keys.data();
  grid.slot_cell_data_ = slot_cells.data();
  grid.slot_mask_ = slot_keys.size() - 1;
  grid.keepalive_ = std::move(keepalive);
  grid.stats_.cell_size = cell_size;
  grid.stats_.cell_count = cell_keys.size();
  grid.stats_.entry_count = ids.size();
  grid.stats_.index_bytes = cell_keys.size_bytes() +
                            cell_offsets.size_bytes() + ids.size_bytes() +
                            slot_keys.size_bytes() + slot_cells.size_bytes();
  grid.stats_.build_seconds = 0;  // served prebuilt, nothing was built
  return grid;
}

std::pair<const int32_t*, const int32_t*> GridIndex::CellRange(
    int64_t key) const {
  size_t h = HashKey(key) & slot_mask_;
  while (true) {
    const int32_t c = slot_cell_data_[h];
    if (c == -1) return {nullptr, nullptr};
    if (slot_key_data_[h] == key) {
      return {ids_data_ + cell_offsets_data_[static_cast<size_t>(c)],
              ids_data_ + cell_offsets_data_[static_cast<size_t>(c) + 1]};
    }
    h = (h + 1) & slot_mask_;
  }
}

void GridIndex::UnsortedCloseCounts(
    TrajectoryView query, std::vector<std::pair<int, int>>* out) const {
  // Query points per block: one bit of a mask word each.
  constexpr size_t kBlock = 64;
  // A power of two >= 2 * 9 * kBlock: a block's distinct neighbour cells
  // fill the cell table at most half.
  constexpr size_t kCellSlots = 2048;
  constexpr size_t kCellMask = kCellSlots - 1;
  GridScratch& scratch = LocalScratch();
  // One spare entry: the id lists store before they decide to advance.
  scratch.EnsureSize(static_cast<size_t>(dataset_size_) + 1);
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
      for (const int64_t key : CloseCellKeys(p.x, p.y, cell_size_)) {
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
      const auto [it, stop] = CellRange(cell_keys[h]);
      for (const int32_t* id_ptr = it; id_ptr != stop; ++id_ptr) {
        const int32_t id = *id_ptr;
        const uint64_t word = words[id];
        block_ids[block_count] = id;
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
    out->emplace_back(id, counts[id]);
    counts[id] = 0;
  }
}

void GridIndex::CloseCounts(TrajectoryView query,
                            std::vector<std::pair<int, int>>* out) const {
  UnsortedCloseCounts(query, out);
  std::sort(out->begin(), out->end());
}

std::vector<std::pair<int, int>> GridIndex::CloseCounts(
    TrajectoryView query) const {
  std::vector<std::pair<int, int>> result;
  CloseCounts(query, &result);
  return result;
}

void GridIndex::SurvivorCounts(
    TrajectoryView query, double mu,
    std::vector<std::pair<int, int>>* out) const {
  thread_local std::vector<std::pair<int, int>> counts;
  UnsortedCloseCounts(query, &counts);
  const double threshold = mu * static_cast<double>(query.size());
  out->clear();
  for (const auto& [id, count] : counts) {
    if (static_cast<double>(count) >= threshold) out->emplace_back(id, count);
  }
}

void GridIndex::Candidates(TrajectoryView query, double mu,
                           std::vector<int>* out) const {
  thread_local std::vector<std::pair<int, int>> survivors;
  SurvivorCounts(query, mu, &survivors);
  out->clear();
  out->reserve(survivors.size());
  for (const auto& [id, count] : survivors) out->push_back(id);
  std::sort(out->begin(), out->end());
}

std::vector<int> GridIndex::Candidates(TrajectoryView query,
                                       double mu) const {
  std::vector<int> ids;
  Candidates(query, mu, &ids);
  return ids;
}

void GridIndex::OrderedCandidates(TrajectoryView query, double mu,
                                  std::vector<int>* out) const {
  thread_local std::vector<std::pair<int, int>> order;
  SurvivorCounts(query, mu, &order);  // same set as Candidates()
  // Negated count so the default pair ordering yields descending count,
  // ascending id — a deterministic most-promising-first order.
  for (auto& entry : order) entry = {-entry.second, entry.first};
  std::sort(order.begin(), order.end());
  out->clear();
  out->reserve(order.size());
  for (const auto& [neg_count, id] : order) out->push_back(id);
}

}  // namespace trajsearch
