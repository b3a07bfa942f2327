#include "search/cma.h"

#include <algorithm>
#include <array>
#include <type_traits>

#include "distance/dp.h"

namespace trajsearch {

SearchResult CmaSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data, CmaWedVariant variant) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  switch (spec.kind) {
    case DistanceKind::kDtw:
      return CmaDtwSearch(m, n, EuclideanSub{query, data});
    case DistanceKind::kFrechet:
      return CmaFrechetSearch(m, n, EuclideanSub{query, data});
    default:
      return VisitWedCosts(spec, query, data, [&](const auto& costs) {
        return CmaWedSearch(m, n, costs, variant);
      });
  }
}

namespace {

/// Bind-once CMA plan. CMA has no query-sized precomputation beyond the
/// recurrence itself, so the plan's value is (a) the row scratch kept across
/// candidates and queries, (b) cutoff-driven row abandoning, and (c) the two
/// SIMD axes of the recurrence:
///
///  - RunCols (one candidate): the row scan is serial in j — the rolling
///    G-minimum and the start pointers chain left to right — but the
///    substitution kernel is not, so for the WED family it is precomputed
///    per row over the candidate's SoA columns (CmaWedRowsVec). For DTW
///    and Fréchet that precompute measured no faster than the scalar rows
///    (bench_micro), so their single candidates run CmaDtwRows /
///    CmaFrechetRows.
///  - RunBatch (up to batch_width() candidates): one candidate per SIMD
///    lane. Every per-cell operation of the scalar recurrence — including
///    the serial-in-j parts — runs lanewise over lane-interleaved rows
///    (cell j of lane l at j*kLanes + l), because the lanes hold
///    *independent* candidates; j-serialness only constrains a single lane.
///    Start pointers ride along as doubles (exact up to 2^53). Candidates
///    are ragged: each lane carries its own length, a 0/1 validity mask
///    keeps pad columns out of the row-minimum fold, and pad cells compute
///    finite garbage (coordinates repeat the last real point) that no valid
///    cell ever reads — cell j < n_l depends only on cells j' <= j. The
///    row-floor abandon rolls per lane against the shared cutoff: a dead
///    lane stops counting cells and reports the not-found sentinel, exactly
///    like its scalar run would. Lanes refill only at batch boundaries (the
///    engine re-fills the batch): the recurrence is row-synchronous — every
///    lane must be at the same row i for the shared Del/del_prefix
///    broadcasts — so a mid-run refill would have to restart at row 0 and
///    recompute every other lane's rows.
///
/// All paths are bit-identical to the scalar oracle: same IEEE ops per cell
/// per lane, min/max folds whose value ties are bit ties (DP cells are never
/// NaN or -0.0), and the same abandon row.
class CmaPlan final : public QueryRun {
 public:
  CmaPlan(DistanceSpec spec, CmaWedVariant variant)
      : spec_(spec), variant_(variant) {}

  void Bind(TrajectoryView query) override {
    query_ = query;
    arena_.Rewind();
    // Fixed checkout order — rebinding reuses the same vectors.
    sub_row_ = arena_.Doubles();
    ins_row_ = arena_.Doubles();
    bx_ = arena_.Doubles();
    by_ = arena_.Doubles();
    bins_ = arena_.Doubles();
    bmask_ = arena_.Doubles();
    bc_prev_ = arena_.Doubles();
    bc_cur_ = arena_.Doubles();
    bs_prev_ = arena_.Doubles();
    bs_cur_ = arena_.Doubles();
    // Dispatch is sampled here, like the steppers': DTW/Fréchet batches
    // always vectorize; WED rows only under the kExact variant (the Vec/batch
    // kernels implement its rolling G-minimum) and only for cost models
    // with a SubData kernel (custom WED callbacks stay scalar).
    const bool kind_ok =
        spec_.kind == DistanceKind::kDtw ||
        spec_.kind == DistanceKind::kFrechet ||
        ((spec_.kind == DistanceKind::kEdr ||
          spec_.kind == DistanceKind::kErp) &&
         variant_ == CmaWedVariant::kExact);
    vec_ = simd::Enabled() && kind_ok;
    batch_width_ = vec_ ? simd::BatchLanes() : 1;
  }

  SearchResult Run(TrajectoryView data, double cutoff) override {
    const int m = static_cast<int>(query_.size());
    const int n = static_cast<int>(data.size());
    TRAJ_CHECK(m >= 1 && n >= 1);
    // The monotone row floor that justifies abandoning relies on the kExact
    // rolling minimum; the paper's Eq-7 rolled term can locally decrease, so
    // under kEq7Rolling the plan runs unbounded (still matching the
    // stateless path bit for bit).
    const double effective_cutoff =
        variant_ == CmaWedVariant::kExact ? cutoff : kNoCutoff;
    bool complete = true;
    int rows = 0;
    switch (spec_.kind) {
      case DistanceKind::kDtw:
        complete = CmaDtwRows(m, n, EuclideanSub{query_, data}, cutoff,
                              &c_prev_, &c_cur_, &s_prev_, &s_cur_, &rows);
        break;
      case DistanceKind::kFrechet:
        complete = CmaFrechetRows(m, n, EuclideanSub{query_, data}, cutoff,
                                  &c_prev_, &c_cur_, &s_prev_, &s_cur_, &rows);
        break;
      default:
        complete = VisitWedCosts(
            spec_, query_, data, [&](const auto& costs) {
              return CmaWedRows(m, n, costs, variant_, effective_cutoff,
                                &c_prev_, &c_cur_, &s_prev_, &s_cur_, &rows);
            });
    }
    cells_.scalar_cells +=
        static_cast<uint64_t>(rows) * static_cast<uint64_t>(n);
    if (!complete) return SearchResult{};  // nothing below the cutoff exists
    return PickBestFromRow(c_cur_, s_cur_);
  }

  SearchResult RunCols(TrajectoryView data, PointCols cols,
                       double cutoff) override {
    if (!vec_ || cols.empty() || spec_.kind == DistanceKind::kDtw ||
        spec_.kind == DistanceKind::kFrechet) {
      return Run(data, cutoff);
    }
    const int m = static_cast<int>(query_.size());
    const int n = static_cast<int>(data.size());
    TRAJ_CHECK(m >= 1 && n >= 1);
    int rows = 0;
    const bool complete = VisitWedCosts(
        spec_, query_, data, [&](const auto& costs) {
          using C = std::decay_t<decltype(costs)>;
          if constexpr (simd::BatchCosts<C>) {
            return CmaWedRowsVec(m, n, costs, cols, cutoff, &c_prev_, &c_cur_,
                                 &s_prev_, &s_cur_, sub_row_, ins_row_, &rows);
          } else {
            TRAJ_CHECK(false && "vec dispatch on scalar-only costs");
            return true;
          }
        });
    // Substitutions ran one data lane group at a time; the n % kLanes tail
    // of each row stays scalar, so the split sums to the scalar row size.
    const int vec_end = n - n % simd::kLanes;
    cells_.vector_cells +=
        static_cast<uint64_t>(rows) * static_cast<uint64_t>(vec_end);
    cells_.scalar_cells +=
        static_cast<uint64_t>(rows) * static_cast<uint64_t>(n - vec_end);
    if (!complete) return SearchResult{};
    return PickBestFromRow(c_cur_, s_cur_);
  }

  int batch_width() const override { return batch_width_; }

  void RunBatch(const RunBatchItem* items, int count, double cutoff,
                SearchResult* results) override {
    if (count <= 1 || batch_width_ <= 1) {
      QueryRun::RunBatch(items, count, cutoff, results);
      return;
    }
    TRAJ_CHECK(count <= batch_width_);
    switch (spec_.kind) {
      case DistanceKind::kDtw:
        RunBatchSub</*kFrechet=*/false>(items, count, cutoff, results);
        break;
      case DistanceKind::kFrechet:
        RunBatchSub</*kFrechet=*/true>(items, count, cutoff, results);
        break;
      default:
        VisitWedCosts(spec_, query_, items[0].data, [&](const auto& proto) {
          using C = std::decay_t<decltype(proto)>;
          if constexpr (simd::BatchCosts<C>) {
            RunBatchWed(proto, items, count, cutoff, results);
          } else {
            TRAJ_CHECK(false && "batch dispatch on scalar-only costs");
          }
          return true;
        });
    }
  }

  simd::CellCounts TakeSimdStats() override {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

  std::string_view name() const override { return "CMA"; }

 private:
  static constexpr int kW = simd::kLanes;

  /// Interleaves the candidates' coordinates into bx_/by_ (cell j of lane l
  /// at j*kW + l; pad columns repeat the last real point so their garbage
  /// cells stay finite) and builds the 0-valid/1-pad mask. Returns the
  /// longest candidate length.
  int StageBatch(const RunBatchItem* items, int count) {
    int nmax = 0;
    for (int l = 0; l < count; ++l) {
      n_[static_cast<size_t>(l)] = static_cast<int>(items[l].data.size());
      nmax = std::max(nmax, n_[static_cast<size_t>(l)]);
    }
    const size_t sz = static_cast<size_t>(nmax) * kW;
    bx_->assign(sz, 0.0);
    by_->assign(sz, 0.0);
    bmask_->assign(sz, 1.0);
    bc_prev_->assign(sz, 0.0);
    bc_cur_->assign(sz, 0.0);
    bs_prev_->assign(sz, 0.0);
    bs_cur_->assign(sz, 0.0);
    for (int l = 0; l < count; ++l) {
      const TrajectoryView d = items[l].data;
      const int nl = n_[static_cast<size_t>(l)];
      for (int j = 0; j < nmax; ++j) {
        const Point p = d[static_cast<size_t>(std::min(j, nl - 1))];
        (*bx_)[static_cast<size_t>(j) * kW + l] = p.x;
        (*by_)[static_cast<size_t>(j) * kW + l] = p.y;
        if (j < nl) (*bmask_)[static_cast<size_t>(j) * kW + l] = 0.0;
      }
    }
    return nmax;
  }

  uint64_t LiveCells(const std::array<bool, kW>& dead, int count) const {
    uint64_t cells = 0;
    for (int l = 0; l < count; ++l) {
      if (!dead[static_cast<size_t>(l)]) {
        cells += static_cast<uint64_t>(n_[static_cast<size_t>(l)]);
      }
    }
    return cells;
  }

  /// Per-lane PickBestFromRow over the interleaved final row; dead lanes
  /// report the not-found sentinel, exactly like their scalar abandon.
  void Harvest(const double* cc, const double* sc,
               const std::array<bool, kW>& dead, int count,
               SearchResult* results) const {
    for (int l = 0; l < count; ++l) {
      if (dead[static_cast<size_t>(l)]) {
        results[l] = SearchResult{};
        continue;
      }
      SearchResult r;
      for (int j = 0; j < n_[static_cast<size_t>(l)]; ++j) {
        const double c = cc[static_cast<size_t>(j) * kW + l];
        if (c < r.distance) {
          r.distance = c;
          r.range = Subrange{
              static_cast<int>(sc[static_cast<size_t>(j) * kW + l]), j};
        }
      }
      results[l] = r;
    }
  }

  /// Lane-parallel CMA for the substitution-only distances (DTW when
  /// kFrechet is false, discrete Fréchet otherwise): Equations 8/9 lanewise.
  template <bool kFrechet>
  void RunBatchSub(const RunBatchItem* items, int count, double cutoff,
                   SearchResult* results) {
    using simd::VecD;
    const int m = static_cast<int>(query_.size());
    TRAJ_CHECK(m >= 1);
    const int nmax = StageBatch(items, count);
    const EuclideanSub sub{query_, TrajectoryView{}};
    double* cp = bc_prev_->data();
    double* cc = bc_cur_->data();
    double* sp = bs_prev_->data();
    double* sc = bs_cur_->data();
    const double* bx = bx_->data();
    const double* by = by_->data();
    const double* mask = bmask_->data();
    const VecD inf = VecD::Broadcast(kDpInfinity);
    const VecD half = VecD::Broadcast(0.5);
    std::array<double, kW> row_min_arr;
    std::array<bool, kW> dead{};
    for (int l = count; l < kW; ++l) dead[static_cast<size_t>(l)] = true;

    VecD rm = inf;
    for (int j = 0; j < nmax; ++j) {
      const VecD v = sub.SubData(0, VecD::Load(bx + j * kW),
                                 VecD::Load(by + j * kW));
      v.Store(cc + j * kW);
      VecD::Broadcast(static_cast<double>(j)).Store(sc + j * kW);
      rm = VecD::Min(rm, VecD::SelectLE(VecD::Load(mask + j * kW), half, v,
                                        inf));
    }
    rm.Store(row_min_arr.data());
    cells_.vector_cells += LiveCells(dead, count);

    for (int i = 1; i < m; ++i) {
      for (int l = 0; l < count; ++l) {
        if (!dead[static_cast<size_t>(l)] &&
            row_min_arr[static_cast<size_t>(l)] >= cutoff) {
          dead[static_cast<size_t>(l)] = true;  // lane-wise row-floor abandon
          ++cells_.lane_abandons;
        }
      }
      const uint64_t live = LiveCells(dead, count);
      if (live == 0) break;
      cells_.vector_cells += live;
      std::swap(cp, cc);
      std::swap(sp, sc);
      const VecD s0 = sub.SubData(i, VecD::Load(bx), VecD::Load(by));
      const VecD p0 = VecD::Load(cp);
      const VecD v0 = kFrechet ? VecD::Max(p0, s0) : p0 + s0;
      v0.Store(cc);
      VecD::Broadcast(0.0).Store(sc);
      rm = VecD::SelectLE(VecD::Load(mask), half, v0, inf);
      VecD prev_c = v0;
      VecD prev_s = VecD::Broadcast(0.0);
      for (int j = 1; j < nmax; ++j) {
        const VecD diag_c = VecD::Load(cp + (j - 1) * kW);
        const VecD up_c = VecD::Load(cp + j * kW);
        VecD best = diag_c;
        VecD s = VecD::Load(sp + (j - 1) * kW);
        s = VecD::SelectLT(up_c, best, VecD::Load(sp + j * kW), s);
        best = VecD::SelectLT(up_c, best, up_c, best);
        s = VecD::SelectLT(prev_c, best, prev_s, s);
        best = VecD::SelectLT(prev_c, best, prev_c, best);
        const VecD sij = sub.SubData(i, VecD::Load(bx + j * kW),
                                     VecD::Load(by + j * kW));
        const VecD v = kFrechet ? VecD::Max(best, sij) : best + sij;
        v.Store(cc + j * kW);
        s.Store(sc + j * kW);
        prev_c = v;
        prev_s = s;
        rm = VecD::Min(rm, VecD::SelectLE(VecD::Load(mask + j * kW), half, v,
                                          inf));
      }
      rm.Store(row_min_arr.data());
    }
    Harvest(cc, sc, dead, count, results);
  }

  /// Lane-parallel CMA for WED-family costs under the kExact variant:
  /// Equation 7 with the explicit rolling G-minimum, lanewise. G and its
  /// start pointer roll per lane — each lane's G tracks min_k C[i-1][k] +
  /// ins_l(data_l[k+1..j-1]) over *that lane's* insertion costs, so the
  /// whole roll (extend-vs-fresh compare included) is a lane-local
  /// recurrence with no cross-lane coupling; only the query-side Del /
  /// del_prefix terms are shared broadcasts.
  template <typename Costs>
  void RunBatchWed(const Costs& proto, const RunBatchItem* items, int count,
                   double cutoff, SearchResult* results) {
    using simd::VecD;
    const int m = static_cast<int>(query_.size());
    TRAJ_CHECK(m >= 1);
    const int nmax = StageBatch(items, count);
    // Per-lane insertion costs (data-side): staged once per batch, exactly
    // the values the scalar run computes per row.
    bins_->assign(static_cast<size_t>(nmax) * kW, 0.0);
    for (int l = 0; l < count; ++l) {
      Costs costs_l = proto;
      costs_l.d = items[l].data;
      for (int j = 0; j < n_[static_cast<size_t>(l)]; ++j) {
        (*bins_)[static_cast<size_t>(j) * kW + l] = costs_l.Ins(j);
      }
    }
    double* cp = bc_prev_->data();
    double* cc = bc_cur_->data();
    double* sp = bs_prev_->data();
    double* sc = bs_cur_->data();
    const double* bx = bx_->data();
    const double* by = by_->data();
    const double* bins = bins_->data();
    const double* mask = bmask_->data();
    const VecD inf = VecD::Broadcast(kDpInfinity);
    const VecD half = VecD::Broadcast(0.5);
    std::array<double, kW> row_min_arr;
    std::array<bool, kW> dead{};
    for (int l = count; l < kW; ++l) dead[static_cast<size_t>(l)] = true;

    VecD rm = inf;
    for (int j = 0; j < nmax; ++j) {
      const VecD v = proto.SubData(0, VecD::Load(bx + j * kW),
                                   VecD::Load(by + j * kW));
      v.Store(cc + j * kW);
      VecD::Broadcast(static_cast<double>(j)).Store(sc + j * kW);
      rm = VecD::Min(rm, VecD::SelectLE(VecD::Load(mask + j * kW), half, v,
                                        inf));
    }
    rm.Store(row_min_arr.data());
    cells_.vector_cells += LiveCells(dead, count);

    double del_prefix = 0;
    for (int i = 1; i < m; ++i) {
      del_prefix += proto.Del(i - 1);
      for (int l = 0; l < count; ++l) {
        if (!dead[static_cast<size_t>(l)] &&
            row_min_arr[static_cast<size_t>(l)] >= cutoff &&
            del_prefix >= cutoff) {
          dead[static_cast<size_t>(l)] = true;  // lane-wise row-floor abandon
          ++cells_.lane_abandons;
        }
      }
      const uint64_t live = LiveCells(dead, count);
      if (live == 0) break;
      cells_.vector_cells += live;
      std::swap(cp, cc);
      std::swap(sp, sc);
      const VecD del_i = VecD::Broadcast(proto.Del(i));
      const VecD dpv = VecD::Broadcast(del_prefix);
      {
        const VecD via_del = VecD::Load(cp) + del_i;
        const VecD via_sub =
            proto.SubData(i, VecD::Load(bx), VecD::Load(by)) + dpv;
        const VecD v0 = VecD::Min(via_del, via_sub);
        v0.Store(cc);
        VecD::Broadcast(0.0).Store(sc);
        rm = VecD::SelectLE(VecD::Load(mask), half, v0, inf);
      }
      VecD g = VecD::Load(cp);
      VecD sg = VecD::Load(sp);
      for (int j = 1; j < nmax; ++j) {
        if (j > 1) {
          const VecD extended = g + VecD::Load(bins + (j - 1) * kW);
          const VecD fresh = VecD::Load(cp + (j - 1) * kW);
          sg = VecD::SelectLE(fresh, extended,
                              VecD::Load(sp + (j - 1) * kW), sg);
          g = VecD::SelectLE(fresh, extended, fresh, extended);
        }
        const VecD sub_ij = proto.SubData(i, VecD::Load(bx + j * kW),
                                          VecD::Load(by + j * kW));
        VecD best = g + sub_ij;
        VecD s = sg;
        const VecD via_del = VecD::Load(cp + j * kW) + del_i;
        s = VecD::SelectLT(via_del, best, VecD::Load(sp + j * kW), s);
        best = VecD::SelectLT(via_del, best, via_del, best);
        const VecD via_prefix = dpv + sub_ij;
        s = VecD::SelectLT(via_prefix, best,
                           VecD::Broadcast(static_cast<double>(j)), s);
        best = VecD::SelectLT(via_prefix, best, via_prefix, best);
        best.Store(cc + j * kW);
        s.Store(sc + j * kW);
        rm = VecD::Min(rm, VecD::SelectLE(VecD::Load(mask + j * kW), half,
                                          best, inf));
      }
      rm.Store(row_min_arr.data());
    }
    Harvest(cc, sc, dead, count, results);
  }

  DistanceSpec spec_;
  CmaWedVariant variant_;
  TrajectoryView query_;
  std::vector<double> c_prev_, c_cur_;
  std::vector<int> s_prev_, s_cur_;
  DpArena arena_;
  std::vector<double>* sub_row_ = nullptr;
  std::vector<double>* ins_row_ = nullptr;
  std::vector<double>* bx_ = nullptr;
  std::vector<double>* by_ = nullptr;
  std::vector<double>* bins_ = nullptr;
  std::vector<double>* bmask_ = nullptr;
  std::vector<double>* bc_prev_ = nullptr;
  std::vector<double>* bc_cur_ = nullptr;
  std::vector<double>* bs_prev_ = nullptr;
  std::vector<double>* bs_cur_ = nullptr;
  std::array<int, kW> n_ = {};
  bool vec_ = false;
  int batch_width_ = 1;
  simd::CellCounts cells_;
};

}  // namespace

std::unique_ptr<QueryRun> MakeCmaRun(const DistanceSpec& spec,
                                     CmaWedVariant variant) {
  return std::make_unique<CmaPlan>(spec, variant);
}

}  // namespace trajsearch
