#include "prune/delta_grid.h"

#include <algorithm>

#include "util/check.h"

namespace trajsearch {

DeltaGridIndex::DeltaGridIndex(double cell_size) : cell_size_(cell_size) {
  TRAJ_CHECK(cell_size > 0);
}

void DeltaGridIndex::Add(TrajectoryView trajectory) {
  const int32_t id = static_cast<int32_t>(size_++);
  int64_t last_key = 0;
  bool have_last = false;
  for (const Point& p : trajectory) {
    const int64_t key = CellKey(p.x, p.y, cell_size_);
    if (have_last && key == last_key) continue;
    last_key = key;
    have_last = true;
    std::vector<int32_t>& ids = cells_[key];
    // Within one Add only `id` is appended, so a revisited cell always has
    // `id` as its last element — an O(1) exact (cell, id) dedupe.
    if (!ids.empty() && ids.back() == id) continue;
    ids.push_back(id);
    ++entry_count_;
  }
}

GbpPostings DeltaGridIndex::postings(int limit) const {
  return {cell_size_, std::clamp(limit, 0, size_), this,
          &DeltaGridIndex::CellPostings};
}

PostingRange DeltaGridIndex::CellPostings(const void* grid, int64_t key,
                                          int id_bound) {
  const auto& cells = static_cast<const DeltaGridIndex*>(grid)->cells_;
  const auto it = cells.find(key);
  if (it == cells.end()) return {nullptr, nullptr};
  const int32_t* first = it->second.data();
  const int32_t* last = first + it->second.size();
  // Postings ascend, so the ids below the read cap are a prefix.
  return {first, std::lower_bound(first, last, id_bound)};
}

void DeltaGridIndex::CloseCounts(TrajectoryView query,
                                 std::vector<std::pair<int, int>>* out,
                                 int limit) const {
  GbpCloseCounts(postings(limit), query, out);
}

void DeltaGridIndex::Candidates(TrajectoryView query, double mu,
                                std::vector<int>* out, int limit) const {
  GbpCandidates(postings(limit), query, mu, /*ordered=*/false, out);
}

void DeltaGridIndex::OrderedCandidates(TrajectoryView query, double mu,
                                       std::vector<int>* out,
                                       int limit) const {
  GbpCandidates(postings(limit), query, mu, /*ordered=*/true, out);
}

SharedDeltaGrid::SharedDeltaGrid(double cell_size, obs::Counter* indexed)
    : grid_(cell_size), indexed_(indexed) {
  TRAJ_CHECK(indexed != nullptr);
}

void SharedDeltaGrid::CatchUp(const DeltaView& delta) {
  {
    // Steady state: an earlier task (or a newer generation) already
    // indexed this delta, so the shared hold is all a reader pays.
    ReaderLock lock(mu_);
    if (grid_.size() >= delta.size()) return;
  }
  WriterLock lock(mu_);
  const int from = grid_.size();
  for (int id = from; id < delta.size(); ++id) grid_.Add(delta[id]);
  if (delta.size() > from) {
    indexed_->Add(static_cast<uint64_t>(delta.size() - from));
  }
}

}  // namespace trajsearch
