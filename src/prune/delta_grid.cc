#include "prune/delta_grid.h"

#include <algorithm>

#include "prune/grid_index.h"
#include "util/check.h"

namespace trajsearch {

namespace {

/// Per-thread counting scratch (same epoch-stamping scheme as the CSR
/// GridIndex's: monotone tokens mean the arrays never need clearing between
/// queries). Sized to the largest delta seen on the thread — deltas are
/// compaction-bounded, so this stays small.
struct DeltaScratch {
  std::vector<uint64_t> point_stamp;
  std::vector<uint64_t> query_stamp;
  std::vector<int> counts;
  std::vector<int> touched;
  uint64_t next_token = 1;

  void EnsureSize(size_t n) {
    if (point_stamp.size() < n) {
      point_stamp.resize(n, 0);
      query_stamp.resize(n, 0);
      counts.resize(n, 0);
    }
  }
};

DeltaScratch& LocalScratch() {
  thread_local DeltaScratch scratch;
  return scratch;
}

}  // namespace

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

void DeltaGridIndex::CloseCounts(TrajectoryView query,
                                 std::vector<std::pair<int, int>>* out,
                                 int limit) const {
  limit = std::min(limit, size_);
  DeltaScratch& scratch = LocalScratch();
  scratch.EnsureSize(static_cast<size_t>(std::max(limit, 0)));
  scratch.touched.clear();
  const uint64_t base = scratch.next_token;
  scratch.next_token += query.size() + 1;

  for (size_t qi = 0; qi < query.size(); ++qi) {
    const uint64_t token = base + 1 + qi;
    const Point& p = query[qi];
    for (const int64_t key : CloseCellKeys(p.x, p.y, cell_size_)) {
      const auto it = cells_.find(key);
      if (it == cells_.end()) continue;
      for (const int32_t raw_id : it->second) {
        // Postings ascend, so the first id past the cap ends the cell.
        if (raw_id >= limit) break;
        const size_t id = static_cast<size_t>(raw_id);
        if (scratch.point_stamp[id] == token) continue;
        scratch.point_stamp[id] = token;
        if (scratch.query_stamp[id] != base) {
          scratch.query_stamp[id] = base;
          scratch.counts[id] = 0;
          scratch.touched.push_back(static_cast<int>(id));
        }
        ++scratch.counts[id];
      }
    }
  }
  std::sort(scratch.touched.begin(), scratch.touched.end());
  out->clear();
  out->reserve(scratch.touched.size());
  for (const int id : scratch.touched) {
    out->emplace_back(id, scratch.counts[static_cast<size_t>(id)]);
  }
}

void DeltaGridIndex::SurvivorCounts(
    TrajectoryView query, double mu, int limit,
    std::vector<std::pair<int, int>>* out) const {
  thread_local std::vector<std::pair<int, int>> counts;
  CloseCounts(query, &counts, limit);
  const double threshold = mu * static_cast<double>(query.size());
  out->clear();
  for (const auto& [id, count] : counts) {
    if (static_cast<double>(count) >= threshold) out->emplace_back(id, count);
  }
}

void DeltaGridIndex::Candidates(TrajectoryView query, double mu,
                                std::vector<int>* out, int limit) const {
  thread_local std::vector<std::pair<int, int>> survivors;
  SurvivorCounts(query, mu, limit, &survivors);
  out->clear();
  out->reserve(survivors.size());
  for (const auto& [id, count] : survivors) out->push_back(id);
}

void DeltaGridIndex::OrderedCandidates(TrajectoryView query, double mu,
                                       std::vector<int>* out,
                                       int limit) const {
  thread_local std::vector<std::pair<int, int>> survivors;
  thread_local std::vector<std::pair<int, int>> order;
  SurvivorCounts(query, mu, limit, &survivors);
  order.clear();
  order.reserve(survivors.size());
  for (const auto& [id, count] : survivors) order.emplace_back(-count, id);
  std::sort(order.begin(), order.end());
  out->clear();
  out->reserve(order.size());
  for (const auto& [neg_count, id] : order) out->push_back(id);
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
