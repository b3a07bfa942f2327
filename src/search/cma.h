#pragma once

#include <memory>
#include <vector>

#include "distance/distance.h"
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
  /// assumption is violated by an adversarial cost model).
  kEq7Rolling,
};

/// \brief Bounded-core CMA row recursion for WED-family distances
/// (Equation 7 / §5.1) over caller-provided row scratch.
///
/// Computes rows into (*c_cur, *s_cur) using (*c_prev, *s_prev) as the
/// rolling previous row; all four vectors are resized internally, so
/// callers can hand in reused scratch. Returns true with the final row in
/// (*c_cur, *s_cur); returns false if the run was abandoned because no cell
/// of the final row can be < cutoff (see the early-abandoning note above).
/// With cutoff == kNoCutoff this never abandons and (*c_cur, *s_cur) match
/// the unbounded recursion exactly.
/// The optional `rows_out` (all three Rows functions) reports how many DP
/// rows were actually computed — m when the run completes, the abandon row
/// index otherwise — so execution plans can account DP cells exactly.
template <typename Costs>
bool CmaWedRows(int m, int n, const Costs& costs, CmaWedVariant variant,
                double cutoff, std::vector<double>* c_prev,
                std::vector<double>* c_cur, std::vector<int>* s_prev,
                std::vector<int>* s_cur, int* rows_out = nullptr) {
  TRAJ_CHECK(m >= 1 && n >= 1);
  c_prev->resize(static_cast<size_t>(n));
  c_cur->assign(static_cast<size_t>(n), 0);
  s_prev->resize(static_cast<size_t>(n));
  s_cur->assign(static_cast<size_t>(n), 0);

  // Row i = 0: query[0] substituted with data[j]; start is j itself.
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
    // non-negative costs only grow along any conversion path.
    if (row_min >= cutoff && del_prefix >= cutoff) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    row_min = kDpInfinity;

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

/// \brief CmaWedRows (kExact variant), with the per-row substitution costs
/// and the per-candidate insertion costs precomputed into caller scratch.
///
/// CMA's row recurrence is serial in j (the rolling G-minimum and the start
/// pointers), but the dominant per-cell work — the substitution kernel, a
/// sqrt for ERP — depends only on (i, j). With the candidate's SoA
/// coordinate columns at hand, each row's substitutions are evaluated one
/// lane group of *data* points at a time (Costs::SubData; scalar tail via
/// Sub, same IEEE ops), and the insertion costs once per candidate instead
/// of once per row. The scan itself is untouched, so cells, start pointers
/// and the abandon row are bit-identical to CmaWedRows with
/// CmaWedVariant::kExact. Cross-candidate lane parallelism — which also
/// vectorizes the scan — lives in CmaPlan::RunBatch (cma.cc).
template <typename Costs>
  requires simd::BatchCosts<Costs>
bool CmaWedRowsVec(int m, int n, const Costs& costs, PointCols cols,
                   double cutoff, std::vector<double>* c_prev,
                   std::vector<double>* c_cur, std::vector<int>* s_prev,
                   std::vector<int>* s_cur, std::vector<double>* sub_row,
                   std::vector<double>* ins_row, int* rows_out = nullptr) {
  TRAJ_CHECK(m >= 1 && n >= 1);
  TRAJ_CHECK(!cols.empty());
  c_prev->resize(static_cast<size_t>(n));
  c_cur->assign(static_cast<size_t>(n), 0);
  s_prev->resize(static_cast<size_t>(n));
  s_cur->assign(static_cast<size_t>(n), 0);
  sub_row->resize(static_cast<size_t>(n));
  ins_row->resize(static_cast<size_t>(n));

  const int vec_end = n - n % simd::kLanes;
  const auto fill_sub = [&](int i, double* out) {
    for (int j = 0; j < vec_end; j += simd::kLanes) {
      costs
          .SubData(i, simd::VecD::Load(cols.x + j),
                   simd::VecD::Load(cols.y + j))
          .Store(out + j);
    }
    for (int j = vec_end; j < n; ++j) out[j] = costs.Sub(i, j);
  };
  double* ins = ins_row->data();
  for (int j = 0; j < n; ++j) ins[j] = costs.Ins(j);

  double* sub = sub_row->data();
  fill_sub(0, sub);
  double row_min = kDpInfinity;
  for (int j = 0; j < n; ++j) {
    const double v = sub[j];
    (*c_cur)[static_cast<size_t>(j)] = v;
    (*s_cur)[static_cast<size_t>(j)] = j;
    if (v < row_min) row_min = v;
  }

  double del_prefix = 0;
  for (int i = 1; i < m; ++i) {
    std::swap(*c_prev, *c_cur);
    std::swap(*s_prev, *s_cur);
    del_prefix += costs.Del(i - 1);
    if (row_min >= cutoff && del_prefix >= cutoff) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    row_min = kDpInfinity;
    fill_sub(i, sub);
    const double del_i = costs.Del(i);
    {
      const double via_del = (*c_prev)[0] + del_i;
      const double via_sub = sub[0] + del_prefix;
      const double v = via_del < via_sub ? via_del : via_sub;
      (*c_cur)[0] = v;
      (*s_cur)[0] = 0;
      row_min = v;
    }
    double g = (*c_prev)[0];
    int sg = (*s_prev)[0];
    for (int j = 1; j < n; ++j) {
      if (j > 1) {
        const double extended = g + ins[j - 1];
        const double fresh = (*c_prev)[static_cast<size_t>(j - 1)];
        if (fresh <= extended) {
          g = fresh;
          sg = (*s_prev)[static_cast<size_t>(j - 1)];
        } else {
          g = extended;
        }
      }
      const double sub_ij = sub[j];
      double best = g + sub_ij;
      int s = sg;
      const double via_del = (*c_prev)[static_cast<size_t>(j)] + del_i;
      if (via_del < best) {
        best = via_del;
        s = (*s_prev)[static_cast<size_t>(j)];
      }
      const double via_prefix = del_prefix + sub_ij;
      if (via_prefix < best) {
        best = via_prefix;
        s = j;
      }
      (*c_cur)[static_cast<size_t>(j)] = best;
      (*s_cur)[static_cast<size_t>(j)] = s;
      if (best < row_min) row_min = best;
    }
  }
  if (rows_out != nullptr) *rows_out = m;
  return true;
}

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
  CmaWedRows(m, n, costs, variant, kNoCutoff, &c_prev, c_out, &s_prev, s_out);
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

/// \brief Bounded-core CMA row recursion for DTW (Equation 8 / §5.2). Only
/// substitution costs are needed; deletion/insertion costs are tied to the
/// matched point. Same scratch/abandon contract as CmaWedRows.
template <typename SubFn>
bool CmaDtwRows(int m, int n, SubFn sub, double cutoff,
                std::vector<double>* c_prev, std::vector<double>* c_cur,
                std::vector<int>* s_prev, std::vector<int>* s_cur,
                int* rows_out = nullptr) {
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
    // DTW row i cells all derive from row i-1 plus non-negative subs.
    if (row_min >= cutoff) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    std::swap(*c_prev, *c_cur);
    std::swap(*s_prev, *s_cur);
    double v0 = (*c_prev)[0] + sub(i, 0);
    (*c_cur)[0] = v0;
    (*s_cur)[0] = 0;
    row_min = v0;
    for (int j = 1; j < n; ++j) {
      // min over diag / up / left predecessors, carrying the start pointer.
      double best = (*c_prev)[static_cast<size_t>(j - 1)];
      int s = (*s_prev)[static_cast<size_t>(j - 1)];
      if ((*c_prev)[static_cast<size_t>(j)] < best) {
        best = (*c_prev)[static_cast<size_t>(j)];
        s = (*s_prev)[static_cast<size_t>(j)];
      }
      if ((*c_cur)[static_cast<size_t>(j - 1)] < best) {
        best = (*c_cur)[static_cast<size_t>(j - 1)];
        s = (*s_cur)[static_cast<size_t>(j - 1)];
      }
      const double v = best + sub(i, j);
      (*c_cur)[static_cast<size_t>(j)] = v;
      (*s_cur)[static_cast<size_t>(j)] = s;
      if (v < row_min) row_min = v;
    }
  }
  if (rows_out != nullptr) *rows_out = m;
  return true;
}

/// \brief CMA final row for DTW (Equation 8 / §5.2).
template <typename SubFn>
void CmaDtwFinalRow(int m, int n, SubFn sub, std::vector<double>* c_out,
                    std::vector<int>* s_out) {
  std::vector<double> c_prev;
  std::vector<int> s_prev;
  CmaDtwRows(m, n, sub, kNoCutoff, &c_prev, c_out, &s_prev, s_out);
}

/// \brief CMA for DTW (Equation 8 / §5.2). Only substitution costs are
/// needed; deletion/insertion costs are tied to the matched point.
template <typename SubFn>
SearchResult CmaDtwSearch(int m, int n, SubFn sub) {
  std::vector<double> c;
  std::vector<int> s;
  CmaDtwFinalRow(m, n, sub, &c, &s);
  return PickBestFromRow(c, s);
}

/// \brief Bounded-core CMA row recursion for the discrete Fréchet distance
/// (Equation 9 / §5.3). Same scratch/abandon contract as CmaWedRows.
template <typename SubFn>
bool CmaFrechetRows(int m, int n, SubFn sub, double cutoff,
                    std::vector<double>* c_prev, std::vector<double>* c_cur,
                    std::vector<int>* s_prev, std::vector<int>* s_cur,
                    int* rows_out = nullptr) {
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
    // max-of-mins cells never drop below the cheapest row i-1 predecessor.
    if (row_min >= cutoff) {
      if (rows_out != nullptr) *rows_out = i;
      return false;
    }
    std::swap(*c_prev, *c_cur);
    std::swap(*s_prev, *s_cur);
    const double s0 = sub(i, 0);
    const double v0 = (*c_prev)[0] > s0 ? (*c_prev)[0] : s0;
    (*c_cur)[0] = v0;
    (*s_cur)[0] = 0;
    row_min = v0;
    for (int j = 1; j < n; ++j) {
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
      const double sij = sub(i, j);
      const double v = reach > sij ? reach : sij;
      (*c_cur)[static_cast<size_t>(j)] = v;
      (*s_cur)[static_cast<size_t>(j)] = s;
      if (v < row_min) row_min = v;
    }
  }
  if (rows_out != nullptr) *rows_out = m;
  return true;
}

/// \brief CMA final row for the discrete Fréchet distance (Equation 9).
template <typename SubFn>
void CmaFrechetFinalRow(int m, int n, SubFn sub, std::vector<double>* c_out,
                        std::vector<int>* s_out) {
  std::vector<double> c_prev;
  std::vector<int> s_prev;
  CmaFrechetRows(m, n, sub, kNoCutoff, &c_prev, c_out, &s_prev, s_out);
}

/// \brief CMA for the discrete Fréchet distance (Equation 9 / §5.3).
template <typename SubFn>
SearchResult CmaFrechetSearch(int m, int n, SubFn sub) {
  std::vector<double> c;
  std::vector<int> s;
  CmaFrechetFinalRow(m, n, sub, &c, &s);
  return PickBestFromRow(c, s);
}

/// \brief Type-erased CMA over GPS trajectories: dispatches on the distance
/// spec (DTW -> Eq 8, FD -> Eq 9, WED family -> Eq 7 stable form).
SearchResult CmaSearch(const DistanceSpec& spec, TrajectoryView query,
                       TrajectoryView data,
                       CmaWedVariant variant = CmaWedVariant::kExact);

/// \brief Bind-once CMA execution plan: retains the four O(n) row buffers
/// across candidates and honors the Run cutoff via the monotone row-floor
/// abandon described above.
std::unique_ptr<QueryRun> MakeCmaRun(
    const DistanceSpec& spec, CmaWedVariant variant = CmaWedVariant::kExact);

}  // namespace trajsearch
