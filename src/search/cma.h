#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "distance/distance.h"
#include "prune/chunk_boxes.h"
#include "search/query_run.h"
#include "search/result.h"
#include "util/check.h"

namespace trajsearch {

/// Conversion-Matching Algorithm (CMA), the paper's core contribution (§4-5):
/// exact similar-subtrajectory search in O(mn) time and O(n) memory.
///
/// C[i][j] is the minimal cost of converting query[0..i] into a subtrajectory
/// of data[0..j] under the constraint that query[i] matches data[j]
/// (Definition 7); s[i][j] tracks the matched start position (the index
/// matched by query[0]). The answer is min_j C[m-1][j] with start s at the
/// argmin (Equation 6).
///
/// Two row functions implement the recurrences: CmaWedRows (Equation 7, the
/// WED family) and CmaSubOnlyRows (Equations 8 and 9, one template with the
/// DTW sum or the Fréchet max as its SubCombine parameter). CmaRowCosts
/// feeds CmaWedRows precomputed costs for the plan's single-candidate
/// vector path; the plan's lane kernel (cma.cc) repeats their cell ops
/// lanewise.
///
/// Early abandoning (used by the Bind/Run execution plans): all supported
/// cost models are non-negative, so every cell of row i is bounded below by
/// min(min_j C[i-1][j], del(query[0..i-1])) — the cheapest way into row i is
/// through some row-(i-1) cell or through deleting the whole query prefix.
/// Both bounds are monotone in i, hence so is the row minimum's floor; once
/// it reaches the caller's cutoff, no cell of the *final* row — and thus no
/// result — can beat the cutoff, and the remaining rows can be skipped.
/// Results below the cutoff are bit-identical to the unbounded run (the
/// skipped work could only have produced values >= cutoff), which is why the
/// engine's heap-threshold cutoff preserves exact top-K answers.
///
/// The row floor ignores what the rows still to come must add. Every path
/// from row i-1 (or from the deleted prefix) to the final row pays each
/// query point k >= i once more: matched to some data point or deleted. So
/// the plans add a *suffix floor* sfx[i] = sum_{k>=i} min(del(q_k),
/// min_j sub(q_k, d_j)) (max instead of sum for Fréchet, no del for
/// DTW/Fréchet), bounded from below per candidate by CmaSuffixFloor, and
/// every CMA kernel abandons before row i by the one CmaAbandonRule below.

/// \brief CMA's early-abandon test, shared by every CMA kernel.
///
/// Before computing row i (1 <= i < m) a run stops once
///   row_floor >= cutoff, or
///   (row_floor + sfx[i]) * scale >= cutoff   (summed costs), or
///   sfx[i] >= cutoff                         (Fréchet: max of costs),
/// where row_floor is min(row i-1 minimum, deleted-prefix cost) as above.
/// The suffix sum is added in a different order than the DP adds its
/// terms; `scale` = 1 - 4(m+2)·2^-53 absorbs that rounding difference (each
/// of the at most m+1 additions on either side moves the value by at most
/// one relative 2^-53), so the scaled test never exceeds the value the DP
/// would compute. A sum that overflows is not used. A default-constructed
/// rule (no sfx) is the plain row floor.
///
/// `never` switches abandoning off. Fréchet needs it for a NaN cell: its max
/// drops a NaN operand (max(NaN, x) == x), so a cell after a NaN can fall
/// below the row floor; a NaN also arises from inf - inf. So a Fréchet run
/// over a NaN or infinite coordinate never abandons. The sum recurrences
/// keep a NaN cell NaN, and their floors stay sound.
struct CmaAbandonRule {
  const double* sfx = nullptr;  ///< m+1 entries, sfx[m] == 0; null: none
  double scale = 1;
  bool max = false;  ///< Fréchet: the path cost is a max, not a sum
  bool never = false;

  bool Abandons(int i, double row_floor, double cutoff) const {
    // kNoCutoff runs in full, also through rows that overflowed to +inf.
    if (never || cutoff == kNoCutoff) return false;
    if (row_floor >= cutoff) return true;
    if (sfx == nullptr) return false;
    if (max) return sfx[i] >= cutoff;
    const double t = (row_floor + sfx[i]) * scale;
    return t >= cutoff && t <= std::numeric_limits<double>::max();
  }
};

/// \brief Recurrence variant for CMA under WED-family costs.
enum class CmaWedVariant {
  /// Unconditionally exact variant (the library default). Two deviations
  /// from the printed Equation 7, both O(1) per cell:
  ///  1. carries the auxiliary G[i][j] = min_{k<j} C[i-1][k] +
  ///     ins(data[k+1..j-1]) as an explicit rolling minimum instead of
  ///     rolling through C[i][j-1] - sub (which silently assumes
  ///     sub(a,b) <= del(a) + ins(b));
  ///  2. adds the prefix-deletion candidate del(q[0..i-1]) + sub(q_i, d_j)
  ///     at *every* column, not just j = 1. The paper's recurrence admits
  ///     "delete the whole query prefix, then substitute" only at the first
  ///     data point, but an optimal WED/ERP script may start a match at any
  ///     j with a deleted query prefix (e.g. ERP when a query point sits on
  ///     the gap point g, making its deletion free). Without this candidate
  ///     CMA can strictly exceed the ExactS optimum; see cma_test.cc for a
  ///     concrete ERP instance and EXPERIMENTS.md for discussion.
  kExact,
  /// The paper's Equation 7 as printed (plus its j = 1 boundary case).
  /// Matches kExact on EDR, DTW-style and SURS-style costs and on the
  /// paper's measured workloads; can return larger-than-optimal distances
  /// for ERP/WED corner cases (overestimates only when
  /// sub(a,b) <= del(a) + ins(b) holds; can even underestimate when that
  /// assumption is violated by an adversarial cost model). Only the
  /// stateless functions (CmaWedRows, CmaWedSearch, CmaSearch) take it,
  /// as the reference the tests and bench_ablation compare kExact against;
  /// the engines' plans always run kExact.
  kEq7Rolling,
};

/// \brief Per-candidate suffix floors for the CMA plans.
///
/// Bind compiles the query side once (deletion costs, query coordinate
/// columns padded to ChunkBoxes::kGroup); Fill then bounds min_j
/// sub(q_k, d_j) for every query point from the bounding boxes of 8-point
/// chunks of the candidate (ChunkBoxes, the kernel the KPF bound shares),
/// never from the points themselves: a box is at most as far from q_k as
/// any point in it, also after rounding (subtraction, squaring, addition
/// and sqrt are monotone), so the bound is never above the DP's computed
/// substitution cost. The boxes are rebuilt per candidate in plan scratch,
/// nothing is stored. Then one sqrt per query point (or, for EDR, the same
/// squared-distance-vs-eps^2 test as EdrCosts::Sub).
class CmaSuffixFloor {
 public:
  /// Compiles the query side. Custom WED costs get no floor (every Fill
  /// returns the plain row-floor rule), and neither does a query with a NaN
  /// or infinite coordinate (Fréchet: a rule that never abandons, see
  /// CmaAbandonRule).
  void Bind(const DistanceSpec& spec, TrajectoryView query, DpArena* arena);

  /// Writes the suffix floor of `data` into sfx[0..m] and returns the rule
  /// that reads it. Under kNoCutoff, without a floor (see Bind) or when
  /// `data` has a NaN or infinite coordinate, writes nothing and returns
  /// the plain row-floor rule (Fréchet with such a coordinate: never).
  CmaAbandonRule Fill(TrajectoryView data, double cutoff, double* sfx);

 private:
  enum class Kind { kNone, kSum, kMax, kEdr };

  Kind kind_ = Kind::kNone;
  int m_ = 0;
  double eps2_ = 0;     // EDR: epsilon^2, as EdrCosts::Sub compares
  double scale_ = 1;
  bool finite_query_ = true;
  bool vector_ = false;
  std::vector<double>* qx_ = nullptr;   // query columns, lane-padded
  std::vector<double>* qy_ = nullptr;
  std::vector<double>* del_ = nullptr;  // del(q_k); +inf for DTW/Fréchet
  std::vector<double>* box_ = nullptr;  // storage of boxes_
  std::vector<double>* lb_ = nullptr;   // per query point cost floor
  ChunkBoxes boxes_;                    // the candidate's chunk boxes
};

/// Lets a cost adapter (CmaRowCosts) prepare row i before CmaWedRows reads
/// it; plain cost objects have nothing to prepare.
template <typename Costs>
void BeginCmaRow(const Costs& costs, int i) {
  if constexpr (requires { costs.BeginRow(i); }) costs.BeginRow(i);
}

/// \brief Bounded-core CMA row recursion for WED-family distances
/// (Equation 7 / §5.1) over caller-provided row scratch.
///
/// Computes rows into (*c_cur, *s_cur) using (*c_prev, *s_prev) as the
/// rolling previous row; all four vectors are resized internally, so
/// callers can hand in reused scratch. Returns true with the final row in
/// (*c_cur, *s_cur); returns false if the run was abandoned because no cell
/// of the final row can be < cutoff (`rule`, see the early-abandoning note
/// above; both Rows functions take it). With cutoff == kNoCutoff this
/// never abandons and (*c_cur, *s_cur) match the unbounded recursion
/// exactly.
/// The optional `rows_out` (both Rows functions) reports how many DP
/// rows were actually computed — m when the run completes, the abandon row
/// index otherwise — so execution plans can account DP cells exactly.
template <typename Costs>
bool CmaWedRows(int m, int n, const Costs& costs, CmaWedVariant variant,
                double cutoff, const CmaAbandonRule& rule,
                std::vector<double>* c_prev,
                std::vector<double>* c_cur, std::vector<int>* s_prev,
                std::vector<int>* s_cur, int* rows_out = nullptr) {
  TRAJ_CHECK(m >= 1 && n >= 1);
  c_prev->resize(static_cast<size_t>(n));
  c_cur->assign(static_cast<size_t>(n), 0);
  s_prev->resize(static_cast<size_t>(n));
  s_cur->assign(static_cast<size_t>(n), 0);

  // Row i = 0: query[0] substituted with data[j]; start is j itself.
  BeginCmaRow(costs, 0);
  double row_min = kDpInfinity;
  for (int j = 0; j < n; ++j) {
    const double v = costs.Sub(0, j);
    (*c_cur)[static_cast<size_t>(j)] = v;
    (*s_cur)[static_cast<size_t>(j)] = j;
    if (v < row_min) row_min = v;
  }

  double del_prefix = 0;  // cost of deleting query[0..i-1]
  for (int i = 1; i < m; ++i) {
    std::swap(*c_prev, *c_cur);
    std::swap(*s_prev, *s_cur);
    del_prefix += costs.Del(i - 1);

    // Every cell of rows i..m-1 is >= min(previous row min, del_prefix):
    // non-negative costs only grow along any conversion path. (A NaN
    // del_prefix keeps the floor NaN, so it never abandons.)
    if (rule.Abandons(i, row_min < del_prefix ? row_min : del_prefix,
                      cutoff)) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    row_min = kDpInfinity;
    BeginCmaRow(costs, i);

    // j = 0 (paper case 2): either delete query[i] (query[i-1] stays matched
    // to data[0]) or substitute query[i] after deleting the whole prefix.
    {
      const double via_del = (*c_prev)[0] + costs.Del(i);
      const double via_sub = costs.Sub(i, 0) + del_prefix;
      const double v = via_del < via_sub ? via_del : via_sub;
      (*c_cur)[0] = v;
      (*s_cur)[0] = 0;
      row_min = v;
    }

    if (variant == CmaWedVariant::kExact) {
      // G = min_{k<j} C[i-1][k] + ins(data[k+1..j-1]), rolled forward in j.
      double g = (*c_prev)[0];
      int sg = (*s_prev)[0];
      for (int j = 1; j < n; ++j) {
        if (j > 1) {
          const double extended = g + costs.Ins(j - 1);
          const double fresh = (*c_prev)[static_cast<size_t>(j - 1)];
          if (fresh <= extended) {
            g = fresh;
            sg = (*s_prev)[static_cast<size_t>(j - 1)];
          } else {
            g = extended;
          }
        }
        const double sub_ij = costs.Sub(i, j);
        double best = g + sub_ij;
        int s = sg;
        const double via_del =
            (*c_prev)[static_cast<size_t>(j)] + costs.Del(i);
        if (via_del < best) {
          best = via_del;
          s = (*s_prev)[static_cast<size_t>(j)];
        }
        // Match starting at j itself with the entire query prefix deleted
        // (generalizes the paper's j = 1 boundary case to every column).
        const double via_prefix = del_prefix + sub_ij;
        if (via_prefix < best) {
          best = via_prefix;
          s = j;
        }
        (*c_cur)[static_cast<size_t>(j)] = best;
        (*s_cur)[static_cast<size_t>(j)] = s;
        if (best < row_min) row_min = best;
      }
    } else {
      // Equation 7 verbatim.
      for (int j = 1; j < n; ++j) {
        const double sub_ij = costs.Sub(i, j);
        double best = (*c_prev)[static_cast<size_t>(j)] + costs.Del(i);
        int s = (*s_prev)[static_cast<size_t>(j)];
        const double via_diag =
            (*c_prev)[static_cast<size_t>(j - 1)] + sub_ij;
        if (via_diag <= best) {
          best = via_diag;
          s = (*s_prev)[static_cast<size_t>(j - 1)];
        }
        const double via_roll = (*c_cur)[static_cast<size_t>(j - 1)] +
                                costs.Ins(j - 1) - costs.Sub(i, j - 1) +
                                sub_ij;
        if (via_roll < best) {
          best = via_roll;
          s = (*s_cur)[static_cast<size_t>(j - 1)];
        }
        (*c_cur)[static_cast<size_t>(j)] = best;
        (*s_cur)[static_cast<size_t>(j)] = s;
        if (best < row_min) row_min = best;
      }
    }
  }
  if (rows_out != nullptr) *rows_out = m;
  return true;
}

/// \brief Cost adapter that runs CmaWedRows (kExact) over precomputed
/// costs, for cost models with a SubData kernel.
///
/// CMA's row recurrence is serial in j (the rolling G-minimum and the start
/// pointers), but the dominant per-cell work — the substitution kernel, a
/// sqrt for ERP — depends only on (i, j). So the adapter copies the
/// candidate's coordinates (costs.d) into the column scratch *xs/*ys and
/// evaluates its insertion costs once per candidate, O(n) against the O(mn)
/// rows; then, as CmaWedRows begins row i, it evaluates that row's
/// substitutions one lane group of *data* points at a time (SubData; scalar
/// tail via Sub, same IEEE ops) and Del(i) once. The scan is CmaWedRows'
/// own and only the cost lookups differ, so cells, start pointers and the
/// abandon row are bit-identical to CmaWedRows over `costs`.
/// Cross-candidate lane parallelism — which also vectorizes the scan —
/// lives in the CMA plan's RunWindow (cma.cc).
template <typename Costs>
  requires simd::BatchCosts<Costs>
class CmaRowCosts {
 public:
  CmaRowCosts(const Costs& costs, std::vector<double>* sub_row,
              std::vector<double>* ins_row, std::vector<double>* xs,
              std::vector<double>* ys)
      : costs_(costs),
        n_(static_cast<int>(costs.d.size())),
        cols_(CopyCols(costs.d, xs, ys)) {
    sub_row->resize(static_cast<size_t>(n_));
    ins_row->resize(static_cast<size_t>(n_));
    sub_ = sub_row->data();
    ins_ = ins_row->data();
    for (int j = 0; j < n_; ++j) ins_[j] = costs.Ins(j);
  }

  /// Evaluates row i's substitutions and deletion cost.
  void BeginRow(int i) const {
    const int vec_end = n_ - n_ % simd::kLanes;
    for (int j = 0; j < vec_end; j += simd::kLanes) {
      costs_
          .SubData(i, simd::VecD::Load(cols_.x + j),
                   simd::VecD::Load(cols_.y + j))
          .Store(sub_ + j);
    }
    for (int j = vec_end; j < n_; ++j) sub_[j] = costs_.Sub(i, j);
    row_ = i;
    del_row_ = costs_.Del(i);
  }

  double Sub(int /*i*/, int j) const { return sub_[j]; }
  double Ins(int j) const { return ins_[j]; }
  double Del(int i) const { return i == row_ ? del_row_ : costs_.Del(i); }

 private:
  const Costs& costs_;
  int n_;
  PointCols cols_;
  double* sub_;
  double* ins_;
  mutable int row_ = -1;
  mutable double del_row_ = 0;
};

/// \brief CMA final row for WED-family distances (Equation 7 / §5.1).
///
/// \param m query length (>= 1)
/// \param n data length (>= 1)
/// \param costs index-cost object with Sub/Ins/Del
/// \param variant recurrence variant (default: unconditionally exact)
template <typename Costs>
void CmaWedFinalRow(int m, int n, const Costs& costs, CmaWedVariant variant,
                    std::vector<double>* c_out, std::vector<int>* s_out) {
  std::vector<double> c_prev;
  std::vector<int> s_prev;
  CmaWedRows(m, n, costs, variant, kNoCutoff, {}, &c_prev, c_out, &s_prev,
             s_out);
}

/// Extracts the optimum from a final CMA row (Equation 6).
inline SearchResult PickBestFromRow(const std::vector<double>& c,
                                    const std::vector<int>& s) {
  SearchResult result;
  for (size_t j = 0; j < c.size(); ++j) {
    if (c[j] < result.distance) {
      result.distance = c[j];
      result.range = Subrange{s[j], static_cast<int>(j)};
    }
  }
  return result;
}

/// \brief CMA for WED-family distances (Equation 7 / §5.1).
///
/// \param m query length (>= 1)
/// \param n data length (>= 1)
/// \param costs index-cost object with Sub/Ins/Del
/// \param variant recurrence variant (default: unconditionally exact)
/// \return optimal subtrajectory range (0-based inclusive) and distance
template <typename Costs>
SearchResult CmaWedSearch(int m, int n, const Costs& costs,
                          CmaWedVariant variant = CmaWedVariant::kExact) {
  std::vector<double> c;
  std::vector<int> s;
  CmaWedFinalRow(m, n, costs, variant, &c, &s);
  return PickBestFromRow(c, s);
}

/// \brief Bounded-core CMA row recursion for the substitution-only
/// distances: DTW (Equation 8 / §5.2, SubCombine::kSum) and the discrete
/// Fréchet distance (Equation 9 / §5.3, kMax). Only substitution costs are
/// needed; deletion/insertion costs are tied to the matched point. Each cell
/// combines the cheapest of its diag/up/left predecessors, whose start
/// pointer it carries, with its substitution cost. Same scratch/abandon
/// contract as CmaWedRows.
template <SubCombine kCombine, typename SubFn>
bool CmaSubOnlyRows(int m, int n, SubFn sub, double cutoff,
                    const CmaAbandonRule& rule, std::vector<double>* c_prev,
                    std::vector<double>* c_cur, std::vector<int>* s_prev,
                    std::vector<int>* s_cur, int* rows_out = nullptr) {
  TRAJ_CHECK(m >= 1 && n >= 1);
  c_prev->resize(static_cast<size_t>(n));
  c_cur->assign(static_cast<size_t>(n), 0);
  s_prev->resize(static_cast<size_t>(n));
  s_cur->assign(static_cast<size_t>(n), 0);

  double row_min = kDpInfinity;
  for (int j = 0; j < n; ++j) {
    const double v = sub(0, j);
    (*c_cur)[static_cast<size_t>(j)] = v;
    (*s_cur)[static_cast<size_t>(j)] = j;
    if (v < row_min) row_min = v;
  }
  for (int i = 1; i < m; ++i) {
    // Row i cells never drop below the cheapest row i-1 predecessor: DTW
    // adds a non-negative sub, Fréchet takes a max.
    if (rule.Abandons(i, row_min, cutoff)) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    std::swap(*c_prev, *c_cur);
    std::swap(*s_prev, *s_cur);
    const double v0 = CombineCell<kCombine>((*c_prev)[0], sub(i, 0));
    (*c_cur)[0] = v0;
    (*s_cur)[0] = 0;
    row_min = v0;
    for (int j = 1; j < n; ++j) {
      // min over diag / up / left predecessors, carrying the start pointer.
      double reach = (*c_prev)[static_cast<size_t>(j - 1)];
      int s = (*s_prev)[static_cast<size_t>(j - 1)];
      if ((*c_prev)[static_cast<size_t>(j)] < reach) {
        reach = (*c_prev)[static_cast<size_t>(j)];
        s = (*s_prev)[static_cast<size_t>(j)];
      }
      if ((*c_cur)[static_cast<size_t>(j - 1)] < reach) {
        reach = (*c_cur)[static_cast<size_t>(j - 1)];
        s = (*s_cur)[static_cast<size_t>(j - 1)];
      }
      const double v = CombineCell<kCombine>(reach, sub(i, j));
      (*c_cur)[static_cast<size_t>(j)] = v;
      (*s_cur)[static_cast<size_t>(j)] = s;
      if (v < row_min) row_min = v;
    }
  }
  if (rows_out != nullptr) *rows_out = m;
  return true;
}

/// \brief CMA final row for DTW (kSum) or the discrete Fréchet distance
/// (kMax).
template <SubCombine kCombine, typename SubFn>
void CmaSubOnlyFinalRow(int m, int n, SubFn sub, std::vector<double>* c_out,
                        std::vector<int>* s_out) {
  std::vector<double> c_prev;
  std::vector<int> s_prev;
  CmaSubOnlyRows<kCombine>(m, n, sub, kNoCutoff, {}, &c_prev, c_out, &s_prev,
                           s_out);
}

/// \brief CMA for DTW (kSum) or the discrete Fréchet distance (kMax).
template <SubCombine kCombine, typename SubFn>
SearchResult CmaSubOnlySearch(int m, int n, SubFn sub) {
  std::vector<double> c;
  std::vector<int> s;
  CmaSubOnlyFinalRow<kCombine>(m, n, sub, &c, &s);
  return PickBestFromRow(c, s);
}

/// \brief CMA for DTW (Equation 8 / §5.2).
template <typename SubFn>
SearchResult CmaDtwSearch(int m, int n, SubFn sub) {
  return CmaSubOnlySearch<SubCombine::kSum>(m, n, sub);
}

/// \brief Type-erased CMA over GPS trajectories: dispatches on the distance
/// spec (DTW -> Eq 8, FD -> Eq 9, WED family -> Eq 7 stable form).
SearchResult CmaSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data,
                       CmaWedVariant variant = CmaWedVariant::kExact);

/// \brief Bind-once CMA execution plan: retains the four O(n) row buffers
/// across candidates and honors the Run cutoff via the monotone row-floor
/// abandon described above. WED-family rows always run the kExact
/// recurrence; kEq7Rolling lives only in the stateless functions above.
std::unique_ptr<QueryRun> MakeCmaRun(const DistanceSpec& spec);

}  // namespace trajsearch
