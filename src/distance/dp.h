#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/trajectory.h"
#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

/// Large sentinel standing in for +infinity in DP cells. Chosen so that
/// sums of a few sentinels still compare as "infinite" without overflowing.
inline constexpr double kDpInfinity = 1e270;

/// \brief Grow-only pool of DP scratch vectors shared by the query execution
/// plans (search/query_run.h).
///
/// A plan owns one arena; at every (re-)Bind it calls Rewind() and the
/// steppers it constructs check their column storage out of the pool again.
/// Checked-out vectors keep their capacity across Rewind cycles, so binding
/// a plan to a new query of similar size — and every candidate evaluated
/// under that plan — allocates nothing in steady state.
class DpArena {
 public:
  /// Hands out the next pooled double vector (empty content, old capacity).
  std::vector<double>* Doubles() { return Next(&double_pool_, &next_double_); }
  /// Hands out the next pooled int vector.
  std::vector<int>* Ints() { return Next(&int_pool_, &next_int_); }
  /// Hands out the next pooled point vector (reversed-trajectory scratch for
  /// the POS/PSS/RLS suffix plans).
  std::vector<Point>* Points() { return Next(&point_pool_, &next_point_); }

  /// Returns all checked-out vectors to the pool (capacity retained).
  /// Invalidates the *contents* of previously handed-out vectors, not the
  /// pointers: a stepper built after Rewind may reuse the same storage.
  void Rewind() {
    next_double_ = 0;
    next_int_ = 0;
    next_point_ = 0;
  }

 private:
  // deque: growth never moves existing vectors, so handed-out pointers stay
  // valid while more scratch is checked out.
  template <typename T>
  static std::vector<T>* Next(std::deque<std::vector<T>>* pool, size_t* next) {
    if (*next == pool->size()) pool->emplace_back();
    return &(*pool)[(*next)++];
  }

  std::deque<std::vector<double>> double_pool_;
  std::deque<std::vector<int>> int_pool_;
  std::deque<std::vector<Point>> point_pool_;
  size_t next_double_ = 0;
  size_t next_int_ = 0;
  size_t next_point_ = 0;
};

/// Deinterleaves `points` into the coordinate columns *xs and *ys (resized
/// to points.size(), so reused scratch stops allocating once it has grown
/// to the longest trajectory). The point pool is the only stored copy of a
/// corpus; kernels that load coordinates column-wise copy one trajectory
/// here per call, O(n) against their O(mn) DP.
inline PointCols CopyCols(TrajectoryView points, std::vector<double>* xs,
                          std::vector<double>* ys) {
  xs->resize(points.size());
  ys->resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    (*xs)[i] = points[i].x;
    (*ys)[i] = points[i].y;
  }
  return PointCols{xs->data(), ys->data()};
}

/// CopyCols into two arena-backed columns. Plans call this at Bind to
/// materialize the query-side columns the SubLane kernels read; the arena
/// makes it grow-only across rebinds.
inline PointCols FillCols(TrajectoryView points, DpArena* arena) {
  std::vector<double>* xs = arena->Doubles();
  std::vector<double>* ys = arena->Doubles();
  return CopyCols(points, xs, ys);
}

/// The three column steppers below incrementally compute
/// dist(query, data[start..j]) for a fixed start and growing end j, in O(m)
/// per step. They are the shared engine behind the full-trajectory distance
/// functions, the ExactS baseline (Algorithm 1: one sweep per start), the
/// rank oracle (AR/MR/RR metrics), the POS/PSS prefix scans and the
/// bind-once execution plans.
///
/// Protocol: call Reset(), then Extend(j) for consecutive absolute data
/// indices j = start, start+1, ...; each Extend returns the distance of the
/// query against data[start..j].
///
/// Bound-aware early abandoning: every Extend also tracks the minimum cell
/// of the current column, and SweepLowerBound() returns a value no future
/// Extend of the *same sweep* can beat (valid for non-negative costs, which
/// all supported cost models guarantee). Once SweepLowerBound() >= cutoff
/// the rest of the sweep can be abandoned without losing any result below
/// the cutoff — the monotone-DP abandon used by the ExactS plan.
///
/// Each stepper can be built with an optional DpArena; column storage then
/// comes from the arena instead of a fresh heap allocation, so plans that
/// rebuild their steppers at Bind time reuse the same memory.
///
/// SIMD dispatch (WED stepper only): when the cost object models
/// simd::VectorizedCosts (it has query coordinate columns bound) and
/// simd::Enabled() is true at construction — i.e. at plan Bind — Extend runs
/// a vectorized column sweep. The sweep splits the recurrence into a vector
/// pass over the previous column (the diag/up terms and the substitution
/// kernel have no intra-column dependency) and a scalar pass for the
/// left-to-left chain, whose candidates commute exactly with the vector
/// pass's min/max. Every floating-point operation is the same correctly
/// rounded IEEE operation the scalar loop performs, so the two dispatch
/// paths return bit-identical distances and SweepLowerBound values, and
/// early abandoning fires on exactly the same Extend. The scalar loop is
/// kept verbatim as the identity oracle. DTW and Fréchet cells are a single
/// min-chain, so that split does not pay for them; their column steppers are
/// scalar, and their vector path is the batch steppers further down.

/// \brief Column stepper for WED-family distances (Equation 2).
template <typename Costs>
class WedColumnDp {
 public:
  /// Binds costs for a (query, data) pair; m is the query length. The costs
  /// object is held by pointer, so a plan may update its data-side view
  /// between sweeps. Del/Ins/Sub must be non-negative. SIMD dispatch is
  /// captured here (Enabled() + the costs' columns being bound).
  WedColumnDp(int m, const Costs& costs, DpArena* arena = nullptr)
      : m_(m),
        costs_(&costs),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_),
        del_store_(arena != nullptr ? arena->Doubles() : &owned_del_),
        del_cost_store_(arena != nullptr ? arena->Doubles() : &owned_del_cost_),
        t_store_(arena != nullptr ? arena->Doubles() : &owned_t_) {
    TRAJ_CHECK(m >= 1);
    // One pad slot in front of the column so the vector pass can load the
    // shifted previous column (diag) from col()[-1] without branching.
    col_store_->resize(static_cast<size_t>(m) + 1);
    // del_prefix_[x] = cost of deleting query[0..x] entirely — query-side
    // state, computed once per bind and reused across every data sweep.
    // del_cost_[x] = Del(x) itself, cached for the scalar left-chain pass
    // (Del is query-side only for every cost model, by the API contract).
    del_store_->resize(static_cast<size_t>(m));
    del_cost_store_->resize(static_cast<size_t>(m));
    t_store_->resize(static_cast<size_t>(m));
    double acc = 0;
    for (int x = 0; x < m; ++x) {
      const double del = costs.Del(x);
      acc += del;
      (*del_store_)[static_cast<size_t>(x)] = acc;
      (*del_cost_store_)[static_cast<size_t>(x)] = del;
    }
    if constexpr (simd::VectorizedCosts<Costs>) {
      vec_ = simd::Enabled() && costs.cols_ready();
    }
  }

  // Owned storage is self-referenced via col_store_; construct in place.
  WedColumnDp(const WedColumnDp&) = delete;
  WedColumnDp& operator=(const WedColumnDp&) = delete;

  /// Start a new sweep: the column represents dist(query[0..x], empty).
  void Reset() {
    ins_boundary_ = 0;
    col_min_ = kDpInfinity;
    double* col = col_store_->data() + 1;
    const double* del = del_store_->data();
    for (int x = 0; x < m_; ++x) col[x] = del[x];
  }

  /// Appends data point j to the range; returns dist(query, data[start..j]).
  double Extend(int j) {
    if constexpr (simd::VectorizedCosts<Costs>) {
      if (vec_) return ExtendVector(j);
    }
    return ExtendScalar(j);
  }

  /// A value no cell of any *future* column of this sweep can beat: every
  /// later cell derives from the current column or from the empty-prefix
  /// boundary, both only ever increased by non-negative costs.
  double SweepLowerBound() const {
    return ins_boundary_ < col_min_ ? ins_boundary_ : col_min_;
  }

  /// Current column value for query prefix length x+1.
  double Cell(int x) const {
    return (*col_store_)[static_cast<size_t>(x) + 1];
  }
  int query_size() const { return m_; }

  /// True if this sweep dispatches to the vector kernel.
  bool vectorized() const { return vec_; }
  /// Drains the cells-processed counters accumulated since the last take.
  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  double ExtendScalar(int j) {
    double* col = col_store_->data() + 1;
    const double new_boundary = ins_boundary_ + costs_->Ins(j);
    double diag = ins_boundary_;  // dist(empty, previous range)
    double left = new_boundary;   // dist(empty, range incl. j)
    double col_min = kDpInfinity;
    for (int x = 0; x < m_; ++x) {
      const double up = col[x];
      double best = diag + costs_->Sub(x, j);
      const double via_ins = up + costs_->Ins(j);
      if (via_ins < best) best = via_ins;
      const double via_del = left + costs_->Del(x);
      if (via_del < best) best = via_del;
      diag = up;
      col[x] = best;
      left = best;
      if (best < col_min) col_min = best;
    }
    cells_.scalar_cells += static_cast<uint64_t>(m_);
    ins_boundary_ = new_boundary;
    col_min_ = col_min;
    return col[m_ - 1];
  }

  // Vector sweep. Pass A evaluates the two dependency-free candidates
  //   t[x] = min(old_col[x-1] + Sub(x, j), old_col[x] + Ins(j))
  // a lane group at a time (into separate scratch: diag is the *shifted* old
  // column, so writing in place would clobber the next group's diag). Pass B
  // folds in the sequential deletion chain,
  //   col[x] = min(t[x], col[x-1] + Del(x)),
  // which commutes with pass A's min exactly (same three candidates, min is
  // associative, ties are value-equal and never -0.0), so every cell equals
  // the scalar loop's bit for bit.
  double ExtendVector(int j)
    requires simd::VectorizedCosts<Costs>
  {
    constexpr int kW = simd::kLanes;
    double* col = col_store_->data() + 1;
    const double* del = del_cost_store_->data();
    double* t = t_store_->data();
    const double ins_j = costs_->Ins(j);
    const double new_boundary = ins_boundary_ + ins_j;
    col[-1] = ins_boundary_;  // diag for x = 0
    const simd::VecD ins_v = simd::VecD::Broadcast(ins_j);
    const int vec_end = m_ - m_ % kW;
    for (int x = 0; x < vec_end; x += kW) {
      const simd::VecD diag = simd::VecD::Load(col + x - 1);
      const simd::VecD up = simd::VecD::Load(col + x);
      const simd::VecD via_sub = diag + costs_->SubLane(x, j);
      simd::VecD::Min(via_sub, up + ins_v).Store(t + x);
    }
    for (int x = vec_end; x < m_; ++x) {
      const double via_sub = col[x - 1] + costs_->Sub(x, j);
      const double via_ins = col[x] + ins_j;
      t[x] = via_ins < via_sub ? via_ins : via_sub;
    }
    // The column minimum rides along pass B (min is exact and
    // order-independent, so this matches the scalar loop's running minimum
    // bit for bit and SweepLowerBound keeps its one-ulp-exact contract).
    double left = new_boundary;
    double col_min = kDpInfinity;
    for (int x = 0; x < m_; ++x) {
      double best = t[x];
      const double via_del = left + del[x];
      if (via_del < best) best = via_del;
      col[x] = best;
      left = best;
      if (best < col_min) col_min = best;
    }
    ins_boundary_ = new_boundary;
    col_min_ = col_min;
    cells_.vector_cells += static_cast<uint64_t>(vec_end);
    cells_.scalar_cells += static_cast<uint64_t>(m_ - vec_end);
    return col[m_ - 1];
  }

  int m_;
  const Costs* costs_;
  std::vector<double> owned_col_;
  std::vector<double> owned_del_;
  std::vector<double> owned_del_cost_;
  std::vector<double> owned_t_;
  std::vector<double>* col_store_;
  std::vector<double>* del_store_;
  std::vector<double>* del_cost_store_;
  std::vector<double>* t_store_;
  double ins_boundary_ = 0;
  double col_min_ = kDpInfinity;
  bool vec_ = false;
  simd::CellCounts cells_;
};

/// \brief Column stepper for DTW (Equation 3: boundary rows accumulate
/// substitution costs; interior cells take the min of the three
/// predecessors plus sub). Scalar only: this is the identity oracle, and the
/// vector path for DTW is the batch stepper (DtwBatchDp), whose lanes hold
/// independent sweeps instead of splitting one column's serial chain.
template <typename SubFn>
class DtwColumnDp {
 public:
  DtwColumnDp(int m, SubFn sub, DpArena* arena = nullptr)
      : m_(m),
        sub_(sub),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_) {
    TRAJ_CHECK(m >= 1);
    col_store_->resize(static_cast<size_t>(m));
  }

  // Owned storage is self-referenced via col_store_; construct in place.
  DtwColumnDp(const DtwColumnDp&) = delete;
  DtwColumnDp& operator=(const DtwColumnDp&) = delete;

  /// Start a new sweep over an empty data range.
  void Reset() {
    first_ = true;
    col_min_ = kDpInfinity;
    for (double& c : *col_store_) c = kDpInfinity;
  }

  /// Appends data point j; returns dtw(query, data[start..j]).
  double Extend(int j) {
    double* col = col_store_->data();
    double diag = first_ ? 0.0 : kDpInfinity;  // virtual (empty, empty) corner
    double new_left = kDpInfinity;             // freshly written col_[x-1]
    double col_min = kDpInfinity;
    for (int x = 0; x < m_; ++x) {
      const double up = col[x];
      double best = diag;
      if (up < best) best = up;
      if (new_left < best) best = new_left;
      const double value = best + sub_(x, j);
      diag = up;
      col[x] = value;
      new_left = value;
      if (value < col_min) col_min = value;
    }
    cells_.scalar_cells += static_cast<uint64_t>(m_);
    first_ = false;
    col_min_ = col_min;
    return col[m_ - 1];
  }

  /// A value no future cell of this sweep can beat (before the first Extend
  /// the virtual corner is still reachable, so the bound is 0).
  double SweepLowerBound() const { return first_ ? 0.0 : col_min_; }

  double Cell(int x) const { return (*col_store_)[static_cast<size_t>(x)]; }
  int query_size() const { return m_; }

  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  int m_;
  SubFn sub_;
  std::vector<double> owned_col_;
  std::vector<double>* col_store_;
  double col_min_ = kDpInfinity;
  bool first_ = true;
  simd::CellCounts cells_;
};

/// \brief Column stepper for the discrete Fréchet distance (max-of-mins
/// recurrence). Scalar only, like DtwColumnDp; FrechetBatchDp is the vector
/// path.
template <typename SubFn>
class FrechetColumnDp {
 public:
  FrechetColumnDp(int m, SubFn sub, DpArena* arena = nullptr)
      : m_(m),
        sub_(sub),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_) {
    TRAJ_CHECK(m >= 1);
    col_store_->resize(static_cast<size_t>(m));
  }

  // Owned storage is self-referenced via col_store_; construct in place.
  FrechetColumnDp(const FrechetColumnDp&) = delete;
  FrechetColumnDp& operator=(const FrechetColumnDp&) = delete;

  /// Start a new sweep over an empty data range.
  void Reset() {
    first_ = true;
    col_min_ = kDpInfinity;
    for (double& c : *col_store_) c = kDpInfinity;
  }

  /// Appends data point j; returns frechet(query, data[start..j]).
  double Extend(int j) {
    double* col = col_store_->data();
    double diag_prev = first_ ? 0.0 : kDpInfinity;
    double new_left = kDpInfinity;
    double col_min = kDpInfinity;
    for (int x = 0; x < m_; ++x) {
      const double up = col[x];
      double reach = diag_prev;
      if (up < reach) reach = up;
      if (new_left < reach) reach = new_left;
      const double s = sub_(x, j);
      const double value = reach > s ? reach : s;
      diag_prev = up;
      col[x] = value;
      new_left = value;
      if (value < col_min) col_min = value;
    }
    cells_.scalar_cells += static_cast<uint64_t>(m_);
    first_ = false;
    col_min_ = col_min;
    return col[m_ - 1];
  }

  /// A value no future cell of this sweep can beat (max-recurrence cells
  /// also never drop below the minimum reachable predecessor).
  double SweepLowerBound() const { return first_ ? 0.0 : col_min_; }

  double Cell(int x) const { return (*col_store_)[static_cast<size_t>(x)]; }
  int query_size() const { return m_; }

  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  int m_;
  SubFn sub_;
  std::vector<double> owned_col_;
  std::vector<double>* col_store_;
  double col_min_ = kDpInfinity;
  bool first_ = true;
  simd::CellCounts cells_;
};

/// The batch steppers below are the second SIMD axis: instead of putting a
/// lane group of query indices in a vector (the WED column stepper above), they
/// put simd::kLanes *independent sweeps* in the lanes — each lane owns its
/// own DP column in lane-interleaved scratch (cell x of lane l at
/// x*kLanes + l) and its own boundary state, and one Extend advances every
/// lane by one data point. Because the lanes are independent chains, the
/// serial left-chain/rolling-minimum dependency that caps the DTW/Fréchet
/// column split runs kLanes chains per instruction here.
///
/// Protocol: ResetLane(l) starts a fresh sweep in lane l (other lanes are
/// untouched — lanes retire and refill individually); Extend(sx, sy, ins,
/// live) advances all lanes one step against per-lane *staged* data
/// coordinates (and, for WED, per-lane insertion costs) the caller filled
/// into kLanes-sized buffers — each lane may stage a different data index or
/// a different trajectory, which is what lets one stepper serve both
/// multi-sweep ExactS (per-lane start positions, see ExactSBatchWithDp) and
/// the batched suffix sweeps of the scan plans (per-lane candidates).
/// LaneResult(l)/LaneBound(l) then read lane l's distance and
/// SweepLowerBound.
///
/// Bit-identity: every lane performs exactly the scalar stepper's per-cell
/// operation sequence — same adds, same min/max fold order, each a single
/// correctly rounded IEEE op — and lanes never interact, so LaneResult and
/// LaneBound equal the corresponding scalar stepper's Extend and
/// SweepLowerBound bit for bit, step for step. Lanes without live work
/// compute garbage that stays finite (staged coordinates and costs are
/// finite, kDpInfinity is a finite sentinel) and is never read; `live` only
/// scales the cell counters, so vector_cells counts exactly the cells the
/// scalar schedule would have computed.

/// \brief Batch stepper for WED-family distances: kLanes independent WED
/// sweeps, one per lane.
template <typename Costs>
class WedBatchDp {
 public:
  /// Binds the query-side state (deletion tables) for up to kLanes
  /// concurrent sweeps; m is the query length. The costs object is held by
  /// pointer for SubData; per-lane insertion costs are staged by the caller.
  WedBatchDp(int m, const Costs& costs, DpArena* arena = nullptr)
      : m_(m),
        costs_(&costs),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_),
        del_store_(arena != nullptr ? arena->Doubles() : &owned_del_),
        del_cost_store_(arena != nullptr ? arena->Doubles()
                                         : &owned_del_cost_) {
    TRAJ_CHECK(m >= 1);
    col_store_->assign(static_cast<size_t>(m) * kW, 0.0);
    del_store_->resize(static_cast<size_t>(m));
    del_cost_store_->resize(static_cast<size_t>(m));
    double acc = 0;
    for (int x = 0; x < m; ++x) {
      const double del = costs.Del(x);
      acc += del;
      (*del_store_)[static_cast<size_t>(x)] = acc;
      (*del_cost_store_)[static_cast<size_t>(x)] = del;
    }
    ins_boundary_.fill(0.0);
    col_min_.fill(kDpInfinity);
    last_.fill(kDpInfinity);
  }

  WedBatchDp(const WedBatchDp&) = delete;
  WedBatchDp& operator=(const WedBatchDp&) = delete;

  /// Starts a fresh sweep in lane l: its column becomes the deletion-prefix
  /// boundary (dist(query[0..x], empty)), exactly the scalar Reset().
  void ResetLane(int l) {
    double* col = col_store_->data();
    const double* del = del_store_->data();
    for (int x = 0; x < m_; ++x) col[x * kW + l] = del[x];
    ins_boundary_[static_cast<size_t>(l)] = 0.0;
  }

  /// Advances every lane one step: lane l appends the staged data point
  /// (sx[l], sy[l]) with insertion cost ins[l]. `live` = lanes with real
  /// work (cell accounting only).
  void Extend(const double* sx, const double* sy, const double* ins,
              int live) {
    using simd::VecD;
    double* col = col_store_->data();
    const double* del = del_cost_store_->data();
    const VecD dxv = VecD::Load(sx);
    const VecD dyv = VecD::Load(sy);
    const VecD ins_v = VecD::Load(ins);
    const VecD boundary = VecD::Load(ins_boundary_.data());
    const VecD new_boundary = boundary + ins_v;
    VecD diag = boundary;
    VecD left = new_boundary;
    VecD col_min = VecD::Broadcast(kDpInfinity);
    for (int x = 0; x < m_; ++x) {
      const VecD up = VecD::Load(col + x * kW);
      VecD best = diag + costs_->SubData(x, dxv, dyv);
      best = VecD::Min(up + ins_v, best);
      best = VecD::Min(left + VecD::Broadcast(del[x]), best);
      diag = up;
      best.Store(col + x * kW);
      left = best;
      col_min = VecD::Min(col_min, best);
    }
    new_boundary.Store(ins_boundary_.data());
    col_min.Store(col_min_.data());
    left.Store(last_.data());
    cells_.vector_cells +=
        static_cast<uint64_t>(m_) * static_cast<uint64_t>(live);
  }

  /// dist(query, lane l's range) after the last Extend.
  double LaneResult(int l) const { return last_[static_cast<size_t>(l)]; }
  /// Lane l's SweepLowerBound (same contract as WedColumnDp).
  double LaneBound(int l) const {
    const double b = ins_boundary_[static_cast<size_t>(l)];
    const double c = col_min_[static_cast<size_t>(l)];
    return b < c ? b : c;
  }
  /// Records a lane retired early by the shared cutoff.
  void CountLaneAbandon() { ++cells_.lane_abandons; }

  int query_size() const { return m_; }
  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  static constexpr int kW = simd::kLanes;
  int m_;
  const Costs* costs_;
  std::vector<double> owned_col_;
  std::vector<double> owned_del_;
  std::vector<double> owned_del_cost_;
  std::vector<double>* col_store_;
  std::vector<double>* del_store_;
  std::vector<double>* del_cost_store_;
  std::array<double, kW> ins_boundary_;
  std::array<double, kW> col_min_;
  std::array<double, kW> last_;
  simd::CellCounts cells_;
};

/// \brief Batch stepper for DTW: kLanes independent DTW sweeps.
template <typename SubFn>
class DtwBatchDp {
 public:
  DtwBatchDp(int m, SubFn sub, DpArena* arena = nullptr)
      : m_(m), sub_(sub),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_) {
    TRAJ_CHECK(m >= 1);
    col_store_->assign(static_cast<size_t>(m) * kW, kDpInfinity);
    boundary_diag_.fill(0.0);
    col_min_.fill(kDpInfinity);
    last_.fill(kDpInfinity);
  }

  DtwBatchDp(const DtwBatchDp&) = delete;
  DtwBatchDp& operator=(const DtwBatchDp&) = delete;

  void ResetLane(int l) {
    double* col = col_store_->data();
    for (int x = 0; x < m_; ++x) col[x * kW + l] = kDpInfinity;
    // The virtual (empty, empty) corner is reachable only on the first
    // extend of a sweep — per-lane, via the boundary-diag value.
    boundary_diag_[static_cast<size_t>(l)] = 0.0;
  }

  void Extend(const double* sx, const double* sy, const double* /*ins*/,
              int live) {
    using simd::VecD;
    double* col = col_store_->data();
    const VecD dxv = VecD::Load(sx);
    const VecD dyv = VecD::Load(sy);
    VecD diag = VecD::Load(boundary_diag_.data());
    VecD new_left = VecD::Broadcast(kDpInfinity);
    VecD col_min = VecD::Broadcast(kDpInfinity);
    for (int x = 0; x < m_; ++x) {
      const VecD up = VecD::Load(col + x * kW);
      VecD best = VecD::Min(diag, up);
      best = VecD::Min(best, new_left);
      const VecD value = best + sub_.SubData(x, dxv, dyv);
      diag = up;
      value.Store(col + x * kW);
      new_left = value;
      col_min = VecD::Min(col_min, value);
    }
    VecD::Broadcast(kDpInfinity).Store(boundary_diag_.data());
    col_min.Store(col_min_.data());
    new_left.Store(last_.data());
    cells_.vector_cells +=
        static_cast<uint64_t>(m_) * static_cast<uint64_t>(live);
  }

  double LaneResult(int l) const { return last_[static_cast<size_t>(l)]; }
  double LaneBound(int l) const { return col_min_[static_cast<size_t>(l)]; }
  void CountLaneAbandon() { ++cells_.lane_abandons; }

  int query_size() const { return m_; }
  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  static constexpr int kW = simd::kLanes;
  int m_;
  SubFn sub_;
  std::vector<double> owned_col_;
  std::vector<double>* col_store_;
  std::array<double, kW> boundary_diag_;
  std::array<double, kW> col_min_;
  std::array<double, kW> last_;
  simd::CellCounts cells_;
};

/// \brief Batch stepper for the discrete Fréchet distance: kLanes
/// independent max-of-mins sweeps.
template <typename SubFn>
class FrechetBatchDp {
 public:
  FrechetBatchDp(int m, SubFn sub, DpArena* arena = nullptr)
      : m_(m), sub_(sub),
        col_store_(arena != nullptr ? arena->Doubles() : &owned_col_) {
    TRAJ_CHECK(m >= 1);
    col_store_->assign(static_cast<size_t>(m) * kW, kDpInfinity);
    boundary_diag_.fill(0.0);
    col_min_.fill(kDpInfinity);
    last_.fill(kDpInfinity);
  }

  FrechetBatchDp(const FrechetBatchDp&) = delete;
  FrechetBatchDp& operator=(const FrechetBatchDp&) = delete;

  void ResetLane(int l) {
    double* col = col_store_->data();
    for (int x = 0; x < m_; ++x) col[x * kW + l] = kDpInfinity;
    boundary_diag_[static_cast<size_t>(l)] = 0.0;
  }

  void Extend(const double* sx, const double* sy, const double* /*ins*/,
              int live) {
    using simd::VecD;
    double* col = col_store_->data();
    const VecD dxv = VecD::Load(sx);
    const VecD dyv = VecD::Load(sy);
    VecD diag = VecD::Load(boundary_diag_.data());
    VecD new_left = VecD::Broadcast(kDpInfinity);
    VecD col_min = VecD::Broadcast(kDpInfinity);
    for (int x = 0; x < m_; ++x) {
      const VecD up = VecD::Load(col + x * kW);
      VecD reach = VecD::Min(diag, up);
      reach = VecD::Min(reach, new_left);
      const VecD value = VecD::Max(reach, sub_.SubData(x, dxv, dyv));
      diag = up;
      value.Store(col + x * kW);
      new_left = value;
      col_min = VecD::Min(col_min, value);
    }
    VecD::Broadcast(kDpInfinity).Store(boundary_diag_.data());
    col_min.Store(col_min_.data());
    new_left.Store(last_.data());
    cells_.vector_cells +=
        static_cast<uint64_t>(m_) * static_cast<uint64_t>(live);
  }

  double LaneResult(int l) const { return last_[static_cast<size_t>(l)]; }
  double LaneBound(int l) const { return col_min_[static_cast<size_t>(l)]; }
  void CountLaneAbandon() { ++cells_.lane_abandons; }

  int query_size() const { return m_; }
  simd::CellCounts TakeCellCounts() {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

 private:
  static constexpr int kW = simd::kLanes;
  int m_;
  SubFn sub_;
  std::vector<double> owned_col_;
  std::vector<double>* col_store_;
  std::array<double, kW> boundary_diag_;
  std::array<double, kW> col_min_;
  std::array<double, kW> last_;
  simd::CellCounts cells_;
};

/// Maps a column-stepper template to its batch-stepper sibling (used by the
/// scan plans' Kind bundles to derive their batched suffix sweeps).
template <template <typename> class ColumnDp>
struct BatchDpFor;
template <>
struct BatchDpFor<WedColumnDp> {
  template <typename C>
  using type = WedBatchDp<C>;
};
template <>
struct BatchDpFor<DtwColumnDp> {
  template <typename C>
  using type = DtwBatchDp<C>;
};
template <>
struct BatchDpFor<FrechetColumnDp> {
  template <typename C>
  using type = FrechetBatchDp<C>;
};

}  // namespace trajsearch
