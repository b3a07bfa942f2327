#include "search/cma.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "distance/dp.h"

namespace trajsearch {

SearchResult CmaSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data, CmaWedVariant variant) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  if (spec.IsWedFamily()) {
    return VisitWedCosts(spec, query, data, [&](const auto& costs) {
      return CmaWedSearch(m, n, costs, variant);
    });
  }
  return VisitSubCombine(spec.kind, [&](auto combine) {
    return CmaSubOnlySearch<decltype(combine)::value>(m, n,
                                                      EuclideanSub{query, data});
  });
}

void CmaSuffixFloor::Bind(const DistanceSpec& spec, TrajectoryView query,
                          DpArena* arena) {
  m_ = static_cast<int>(query.size());
  qx_ = arena->Doubles();
  qy_ = arena->Doubles();
  del_ = arena->Doubles();
  box_ = arena->Doubles();
  lb_ = arena->Doubles();
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kErp:
      kind_ = Kind::kSum;
      break;
    case DistanceKind::kFrechet:
      kind_ = Kind::kMax;
      break;
    case DistanceKind::kEdr:
      kind_ = Kind::kEdr;
      break;
    default:
      kind_ = Kind::kNone;  // opaque user costs: no bound on sub
  }
  finite_query_ = true;
  for (const Point& p : query) {
    finite_query_ =
        finite_query_ && std::isfinite(p.x) && std::isfinite(p.y);
  }
  if (m_ == 0) kind_ = Kind::kNone;
  if (kind_ == Kind::kNone) return;
  // Pad to whole pairs of lane groups by repeating the last point; the pad
  // lanes' floors are computed and never read.
  const size_t group = ChunkBoxes::kGroup;
  const size_t padded =
      (static_cast<size_t>(m_) + group - 1) / group * group;
  qx_->resize(padded);
  qy_->resize(padded);
  del_->resize(padded);
  lb_->resize(padded);
  for (size_t k = 0; k < padded; ++k) {
    const Point p = query[std::min(k, query.size() - 1)];
    (*qx_)[k] = p.x;
    (*qy_)[k] = p.y;
  }
  for (int k = 0; k < m_; ++k) {
    (*del_)[static_cast<size_t>(k)] =
        spec.kind == DistanceKind::kErp
            ? ErpCosts{query, {}, spec.erp_gap}.Del(k)
        : spec.kind == DistanceKind::kEdr
            ? EdrCosts{query, {}, spec.edr_epsilon}.Del(k)
            : kNoCutoff;  // DTW/Fréchet: deletion is a substitution
  }
  eps2_ = spec.edr_epsilon * spec.edr_epsilon;
  scale_ = 1.0 - 4.0 * static_cast<double>(m_ + 2) * 0x1p-53;
  vector_ = simd::Enabled();
}

CmaAbandonRule CmaSuffixFloor::Fill(TrajectoryView data, double cutoff,
                                    double* sfx) {
  if (kind_ == Kind::kNone || cutoff == kNoCutoff) return {};
  CmaAbandonRule non_finite;
  non_finite.never = kind_ == Kind::kMax;
  if (!finite_query_) return non_finite;
  box_->resize(ChunkBoxes::StorageSize(data.size()));
  if (!boxes_.Build(data, vector_, box_->data())) return non_finite;
  // lb[k] = a floor under min_j |q_k - d_j|^2 from the candidate's chunk
  // boxes, one group of query points at a time (the pad lanes included).
  const double* qx = qx_->data();
  const double* qy = qy_->data();
  double* lb = lb_->data();
  for (size_t k = 0; k < lb_->size(); k += ChunkBoxes::kGroup) {
    boxes_.MinSquares(qx + k, qy + k, vector_, lb + k);
  }

  const double* del = del_->data();
  double acc = 0;
  sfx[m_] = 0;
  for (int k = m_ - 1; k >= 0; --k) {
    const double sub = kind_ == Kind::kEdr ? (lb[k] <= eps2_ ? 0.0 : 1.0)
                                           : std::sqrt(lb[k]);
    const double c = std::min(sub, del[k]);
    acc = kind_ == Kind::kMax ? std::max(acc, c) : acc + c;
    sfx[k] = acc;
  }
  if (kind_ == Kind::kMax) return {sfx, 1.0, true};
  return {sfx, scale_, false};
}

namespace {

/// Bind-once CMA plan. CMA has no query-sized precomputation beyond the
/// recurrence itself, so the plan's value is (a) the row scratch kept across
/// candidates and queries, (b) cutoff-driven row abandoning by the one
/// CmaAbandonRule, over a suffix floor filled per candidate (floor_), and
/// (c) the two SIMD axes of the recurrence:
///
///  - Run (one candidate): the row scan is serial in j — the rolling
///    G-minimum and the start pointers chain left to right — but the
///    substitution kernel is not, so for the WED family it is precomputed
///    per row over a column copy of the candidate (CmaWedRows over the
///    CmaRowCosts adapter). For DTW and Fréchet that precompute measured no
///    faster than the scalar rows (bench_micro), so their single candidates
///    run CmaSubOnlyRows.
///  - RunWindow (many candidates): one candidate per SIMD lane
///    (LaneKernel). Every per-cell operation of the scalar recurrence —
///    including the serial-in-j parts — runs lanewise over lane-interleaved
///    rows (cell j of lane l at j*kLanes + l), because the lanes hold
///    *independent* candidates; j-serialness only constrains a single lane.
///    Start pointers ride along as doubles (exact up to 2^53). Candidates
///    are ragged: each lane carries its own length, a 0/1 validity mask
///    keeps pad columns out of the row-minimum fold, and pad cells compute
///    finite garbage (coordinates repeat the last real point) that no valid
///    cell ever reads — cell j < n_l depends only on cells j' <= j. Each
///    lane also sits at its own row: the query point, Del and del_prefix
///    are per-lane vectors, not broadcasts. So a lane whose candidate
///    completes, or whose floor crosses its cutoff, hands its result (the
///    not-found sentinel when abandoned, exactly like its scalar run)
///    to the sink and restarts at row 0 with the next candidate of the
///    window, under the cutoff read at that moment. Rows run only as wide
///    as the longest live lane; the engines sort the window longest first,
///    so that width shrinks as the window drains.
///
/// All paths are bit-identical to the scalar oracle: same IEEE ops per cell
/// per lane, a row-minimum fold that skips NaN cells like the scalar one,
/// and the same abandon row.
class CmaPlan final : public QueryRun {
 public:
  explicit CmaPlan(DistanceSpec spec) : spec_(spec) {}

  void Bind(TrajectoryView query) override {
    query_ = query;
    arena_.Rewind();
    // Fixed checkout order — rebinding reuses the same vectors.
    sub_row_ = arena_.Doubles();
    ins_row_ = arena_.Doubles();
    cx_ = arena_.Doubles();
    cy_ = arena_.Doubles();
    bx_ = arena_.Doubles();
    by_ = arena_.Doubles();
    bins_ = arena_.Doubles();
    bmask_ = arena_.Doubles();
    bc_prev_ = arena_.Doubles();
    bc_cur_ = arena_.Doubles();
    bs_prev_ = arena_.Doubles();
    bs_cur_ = arena_.Doubles();
    sfx_ = arena_.Doubles();
    floor_.Bind(spec_, query, &arena_);
    // One suffix floor per lane (lane l at l * (m + 1)); lane 0's doubles as
    // the single-candidate floor.
    sfx_->resize(static_cast<size_t>(kW) * (query.size() + 1));
    // Dispatch is sampled here, like the steppers': DTW/Fréchet batches
    // always vectorize; WED rows only for cost models with a SubData kernel
    // (custom WED callbacks stay scalar).
    const bool kind_ok = spec_.kind == DistanceKind::kDtw ||
                         spec_.kind == DistanceKind::kFrechet ||
                         spec_.kind == DistanceKind::kEdr ||
                         spec_.kind == DistanceKind::kErp;
    vec_ = simd::Enabled() && kind_ok;
    batch_width_ = vec_ ? simd::BatchLanes() : 1;
  }

  SearchResult Run(TrajectoryView data, double cutoff) override {
    const int m = static_cast<int>(query_.size());
    const int n = static_cast<int>(data.size());
    TRAJ_CHECK(m >= 1 && n >= 1);
    const CmaAbandonRule rule = floor_.Fill(data, cutoff, sfx_->data());
    bool complete = true;
    int rows = 0;
    int vec_end = 0;  // per row, columns whose substitutions ran in lanes
    if (spec_.IsWedFamily()) {
      complete = VisitWedCosts(spec_, query_, data, [&](const auto& costs) {
        using C = std::decay_t<decltype(costs)>;
        if constexpr (simd::BatchCosts<C>) {
          if (vec_) {
            // Substitutions run one data lane group at a time; the
            // n % kLanes tail of each row stays scalar.
            vec_end = n - n % simd::kLanes;
            const CmaRowCosts<C> row_costs(costs, sub_row_, ins_row_, cx_,
                                           cy_);
            return CmaWedRows(m, n, row_costs, CmaWedVariant::kExact, cutoff,
                              rule, &c_prev_, &c_cur_, &s_prev_, &s_cur_,
                              &rows);
          }
        }
        return CmaWedRows(m, n, costs, CmaWedVariant::kExact, cutoff, rule,
                          &c_prev_, &c_cur_, &s_prev_, &s_cur_, &rows);
      });
    } else {
      complete = VisitSubCombine(spec_.kind, [&](auto combine) {
        return CmaSubOnlyRows<decltype(combine)::value>(
            m, n, EuclideanSub{query_, data}, cutoff, rule, &c_prev_, &c_cur_,
            &s_prev_, &s_cur_, &rows);
      });
    }
    cells_.vector_cells +=
        static_cast<uint64_t>(rows) * static_cast<uint64_t>(vec_end);
    cells_.scalar_cells +=
        static_cast<uint64_t>(rows) * static_cast<uint64_t>(n - vec_end);
    if (!complete) return SearchResult{};  // nothing below the cutoff exists
    return PickBestFromRow(c_cur_, s_cur_);
  }

  int batch_width() const override { return batch_width_; }

  void RunWindow(const RunBatchItem* items, int count,
                 WindowSink* sink) override {
    if (count <= 1 || batch_width_ <= 1) {
      QueryRun::RunWindow(items, count, sink);
      return;
    }
    RunLanes(items, count, sink);
  }

  simd::CellCounts TakeSimdStats() override {
    const simd::CellCounts taken = cells_;
    cells_ = simd::CellCounts{};
    return taken;
  }

  std::string_view name() const override { return "CMA"; }

 private:
  static constexpr int kW = simd::kLanes;

  enum class Recurrence { kDtw, kFrechet, kWed };

  /// One lane of the lane kernel: the candidate it runs and where it is.
  struct Lane {
    int item = -1;  // window index; -1: idle
    int n = 0;
    int row = 0;  // the next row to compute
    double cutoff = kNoCutoff;  // read when the candidate started
    double del_prefix = 0;      // del(query[0..row-1]) (WED family)
    double row_min = kDpInfinity;  // minimum of row `row - 1`
    CmaAbandonRule rule;
  };

  void RunLanes(const RunBatchItem* items, int count, WindowSink* sink) {
    switch (spec_.kind) {
      case DistanceKind::kDtw:
        LaneKernel<Recurrence::kDtw>(EuclideanSub{query_, {}}, items, count,
                                     sink);
        break;
      case DistanceKind::kFrechet:
        LaneKernel<Recurrence::kFrechet>(EuclideanSub{query_, {}}, items,
                                         count, sink);
        break;
      default:
        VisitWedCosts(spec_, query_, items[0].data, [&](const auto& proto) {
          using C = std::decay_t<decltype(proto)>;
          if constexpr (simd::BatchCosts<C>) {
            LaneKernel<Recurrence::kWed>(proto, items, count, sink);
          } else {
            TRAJ_CHECK(false && "batch dispatch on scalar-only costs");
          }
          return true;
        });
    }
  }

  /// Lane-parallel CMA over a window of candidates: Equation 8 (DTW),
  /// Equation 9 (Fréchet) or Equation 7 with the explicit rolling G-minimum
  /// (WED family, kExact), lanewise. Each lane holds one candidate at its
  /// own row, so the query point, Del and del_prefix are per-lane vectors.
  /// G and its start pointer roll per lane over that lane's insertion
  /// costs, a lane-local recurrence with no cross-lane coupling. Before
  /// every row a lane that completed hands its result to the sink, and a
  /// lane that the abandon rule retires hands back the not-found sentinel;
  /// either way the lane restarts at row 0 with the next candidate of the
  /// window under the cutoff read at that moment.
  template <Recurrence kRec, typename Costs>
  void LaneKernel(const Costs& proto, const RunBatchItem* items, int count,
                  WindowSink* sink) {
    using simd::VecD;
    constexpr bool kWed = kRec == Recurrence::kWed;
    const int m = static_cast<int>(query_.size());
    TRAJ_CHECK(m >= 1);
    int cap = 0;
    for (int k = 0; k < count; ++k) {
      cap = std::max(cap, static_cast<int>(items[k].data.size()));
    }
    const size_t sz = static_cast<size_t>(cap) * kW;
    bx_->assign(sz, 0.0);
    by_->assign(sz, 0.0);
    bmask_->assign(sz, 1.0);
    bc_prev_->assign(sz, 0.0);
    bc_cur_->assign(sz, 0.0);
    bs_prev_->assign(sz, 0.0);
    bs_cur_->assign(sz, 0.0);
    if constexpr (kWed) bins_->assign(sz, 0.0);
    double* cp = bc_prev_->data();
    double* cc = bc_cur_->data();
    double* sp = bs_prev_->data();
    double* sc = bs_cur_->data();
    double* bx = bx_->data();
    double* by = by_->data();
    double* bins = bins_->data();
    double* mask = bmask_->data();

    std::array<Lane, kW> lanes{};
    int next = 0;
    // Starts the next candidate in lane l: stages its coordinates (pad
    // columns repeat the last real point so their garbage cells stay
    // finite), validity mask, insertion costs and suffix floor, and writes
    // its row 0 — the substitutions of query[0], each its own start — into
    // the latest row (cc/sc), where the next step reads it as row i-1.
    const auto start = [&](int l) {
      Lane& lane = lanes[static_cast<size_t>(l)];
      if (next == count) {
        lane.item = -1;
        return;
      }
      if (lane.item >= 0) ++cells_.lane_refills;
      lane.item = next++;
      const TrajectoryView d = items[lane.item].data;
      const int n = static_cast<int>(d.size());
      lane.n = n;
      lane.row = 1;
      lane.cutoff = sink->Cutoff();
      lane.rule = floor_.Fill(
          d, lane.cutoff, sfx_->data() + static_cast<size_t>(l) * (m + 1));
      Costs costs = proto;
      costs.d = d;
      // Row 0 takes kW consecutive points per SubData (the same ops as the
      // scalar Sub) and the scalar Sub on the tail.
      double row_min = kDpInfinity;
      for (int j0 = 0; j0 < cap; j0 += kW) {
        double row0[kW] = {};
        if (j0 + kW <= n) {
          double xs[kW] = {};
          double ys[kW] = {};
          for (int t = 0; t < kW; ++t) {
            xs[t] = d[static_cast<size_t>(j0 + t)].x;
            ys[t] = d[static_cast<size_t>(j0 + t)].y;
          }
          proto.SubData(0, VecD::Load(xs), VecD::Load(ys)).Store(row0);
        } else {
          for (int j = j0; j < std::min(n, j0 + kW); ++j) {
            if constexpr (kWed) {
              row0[j - j0] = costs.Sub(0, j);
            } else {
              row0[j - j0] = costs(0, j);
            }
          }
        }
        for (int j = j0; j < std::min(cap, j0 + kW); ++j) {
          const size_t at =
              static_cast<size_t>(j) * kW + static_cast<size_t>(l);
          const Point p = d[static_cast<size_t>(std::min(j, n - 1))];
          bx[at] = p.x;
          by[at] = p.y;
          const double v = j < n ? row0[j - j0] : 0.0;
          if (j < n) {
            mask[at] = 0.0;
            if constexpr (kWed) bins[at] = costs.Ins(j);
            if (v < row_min) row_min = v;
          } else {
            mask[at] = 1.0;
          }
          cc[at] = v;
          sc[at] = static_cast<double>(j);
        }
      }
      lane.row_min = row_min;
      if constexpr (kWed) lane.del_prefix = 0.0 + proto.Del(0);
      // Row 0's cells: lane groups of the candidate's own points, then its
      // scalar tail.
      const int vec_end = n - n % kW;
      cells_.vector_cells += static_cast<uint64_t>(vec_end);
      cells_.scalar_cells += static_cast<uint64_t>(n - vec_end);
    };

    const int width = batch_width_;
    for (int l = 0; l < width; ++l) start(l);
    const Point q0 = query_[0];
    std::array<double, kW> qxs{}, qys{}, dels{}, dps{}, rms{};
    qxs.fill(q0.x);
    qys.fill(q0.y);
    // Pad columns fold as true infinity, which never wins Min(x, rm): the
    // scalar rows fold no pad, and a cell above kDpInfinity must not be
    // capped by one.
    const VecD inf = VecD::Broadcast(kNoCutoff);
    const VecD half = VecD::Broadcast(0.5);
    const VecD zero = VecD::Broadcast(0.0);
    for (;;) {
      int nlive = 0;
      uint64_t live_cells = 0;
      for (int l = 0; l < width; ++l) {
        Lane& lane = lanes[static_cast<size_t>(l)];
        while (lane.item >= 0) {
          if (lane.row == m) {
            sink->Done(lane.item, HarvestLane(cc, sc, l, lane.n), lane.cutoff);
          } else {
            const double floor =
                kWed && !(lane.row_min < lane.del_prefix) ? lane.del_prefix
                                                          : lane.row_min;
            if (!lane.rule.Abandons(lane.row, floor, lane.cutoff)) break;
            ++cells_.lane_abandons;  // lane-wise abandon
            sink->Done(lane.item, SearchResult{}, lane.cutoff);
          }
          start(l);
        }
        if (lane.item < 0) continue;
        nlive = std::max(nlive, lane.n);
        live_cells += static_cast<uint64_t>(lane.n);
        const Point q = query_[static_cast<size_t>(lane.row)];
        qxs[static_cast<size_t>(l)] = q.x;
        qys[static_cast<size_t>(l)] = q.y;
        if constexpr (kWed) {
          dels[static_cast<size_t>(l)] = proto.Del(lane.row);
          dps[static_cast<size_t>(l)] = lane.del_prefix;
        }
      }
      if (nlive == 0) break;
      cells_.vector_cells += live_cells;
      std::swap(cp, cc);
      std::swap(sp, sc);
      const VecD qx = VecD::Load(qxs.data());
      const VecD qy = VecD::Load(qys.data());
      // The row minimum folds NaN-skipping, like the scalar `v < row_min`:
      // Min(x, rm) keeps rm when x is NaN (AVX2, scalar; NEON's fmin
      // propagates it, which only keeps a lane alive longer).
      VecD rm = inf;
      if constexpr (kWed) {
        const VecD del_i = VecD::Load(dels.data());
        const VecD dpv = VecD::Load(dps.data());
        {
          const VecD via_del = VecD::Load(cp) + del_i;
          const VecD via_sub = proto.SubData(qx, qy, VecD::Load(bx),
                                             VecD::Load(by)) +
                               dpv;
          const VecD v0 = VecD::Min(via_del, via_sub);
          v0.Store(cc);
          zero.Store(sc);
          rm = VecD::SelectLE(VecD::Load(mask), half, v0, inf);
        }
        VecD g = VecD::Load(cp);
        VecD sg = VecD::Load(sp);
        for (int j = 1; j < nlive; ++j) {
          if (j > 1) {
            const VecD extended = g + VecD::Load(bins + (j - 1) * kW);
            const VecD fresh = VecD::Load(cp + (j - 1) * kW);
            sg = VecD::SelectLE(fresh, extended,
                                VecD::Load(sp + (j - 1) * kW), sg);
            g = VecD::SelectLE(fresh, extended, fresh, extended);
          }
          const VecD sub_ij = proto.SubData(qx, qy, VecD::Load(bx + j * kW),
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
          rm = VecD::Min(
              VecD::SelectLE(VecD::Load(mask + j * kW), half, best, inf), rm);
        }
      } else {
        constexpr bool kFrechet = kRec == Recurrence::kFrechet;
        const VecD s0 =
            proto.SubData(qx, qy, VecD::Load(bx), VecD::Load(by));
        const VecD p0 = VecD::Load(cp);
        const VecD v0 = kFrechet ? VecD::Max(p0, s0) : p0 + s0;
        v0.Store(cc);
        zero.Store(sc);
        rm = VecD::SelectLE(VecD::Load(mask), half, v0, inf);
        VecD prev_c = v0;
        VecD prev_s = zero;
        for (int j = 1; j < nlive; ++j) {
          const VecD diag_c = VecD::Load(cp + (j - 1) * kW);
          const VecD up_c = VecD::Load(cp + j * kW);
          VecD best = diag_c;
          VecD s = VecD::Load(sp + (j - 1) * kW);
          s = VecD::SelectLT(up_c, best, VecD::Load(sp + j * kW), s);
          best = VecD::SelectLT(up_c, best, up_c, best);
          s = VecD::SelectLT(prev_c, best, prev_s, s);
          best = VecD::SelectLT(prev_c, best, prev_c, best);
          const VecD sij = proto.SubData(qx, qy, VecD::Load(bx + j * kW),
                                         VecD::Load(by + j * kW));
          const VecD v = kFrechet ? VecD::Max(best, sij) : best + sij;
          v.Store(cc + j * kW);
          s.Store(sc + j * kW);
          prev_c = v;
          prev_s = s;
          rm = VecD::Min(
              VecD::SelectLE(VecD::Load(mask + j * kW), half, v, inf), rm);
        }
      }
      rm.Store(rms.data());
      for (int l = 0; l < width; ++l) {
        Lane& lane = lanes[static_cast<size_t>(l)];
        if (lane.item < 0) continue;
        lane.row_min = rms[static_cast<size_t>(l)];
        if constexpr (kWed) {
          lane.del_prefix += dels[static_cast<size_t>(l)];
        }
        ++lane.row;
      }
    }
  }

  /// PickBestFromRow over lane l of the interleaved final row.
  static SearchResult HarvestLane(const double* cc, const double* sc, int l,
                                  int n) {
    SearchResult r;
    for (int j = 0; j < n; ++j) {
      const double c = cc[static_cast<size_t>(j) * kW + static_cast<size_t>(l)];
      if (c < r.distance) {
        r.distance = c;
        r.range = Subrange{
            static_cast<int>(
                sc[static_cast<size_t>(j) * kW + static_cast<size_t>(l)]),
            j};
      }
    }
    return r;
  }

  DistanceSpec spec_;
  TrajectoryView query_;
  std::vector<double> c_prev_, c_cur_;
  std::vector<int> s_prev_, s_cur_;
  DpArena arena_;
  std::vector<double>* sub_row_ = nullptr;
  std::vector<double>* ins_row_ = nullptr;
  std::vector<double>* cx_ = nullptr;  // one candidate's columns (Run)
  std::vector<double>* cy_ = nullptr;
  std::vector<double>* bx_ = nullptr;
  std::vector<double>* by_ = nullptr;
  std::vector<double>* bins_ = nullptr;
  std::vector<double>* bmask_ = nullptr;
  std::vector<double>* bc_prev_ = nullptr;
  std::vector<double>* bc_cur_ = nullptr;
  std::vector<double>* bs_prev_ = nullptr;
  std::vector<double>* bs_cur_ = nullptr;
  std::vector<double>* sfx_ = nullptr;
  CmaSuffixFloor floor_;
  bool vec_ = false;
  int batch_width_ = 1;
  simd::CellCounts cells_;
};

}  // namespace

std::unique_ptr<QueryRun> MakeCmaRun(const DistanceSpec& spec) {
  return std::make_unique<CmaPlan>(spec);
}

}  // namespace trajsearch
