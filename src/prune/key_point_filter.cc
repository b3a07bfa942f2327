#include "prune/key_point_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "prune/chunk_boxes.h"
#include "util/check.h"
#include "util/simd.h"

namespace trajsearch {

namespace {

/// min_j |q_i - d_j| as the scalar reference computes it: a sqrt per pair.
double ScalarMinEuclidean(TrajectoryView query, int i, TrajectoryView data) {
  const EuclideanSub sub{query, data};
  double best = sub(i, 0);
  for (int j = 1; j < static_cast<int>(data.size()); ++j) {
    best = std::min(best, sub(i, j));
  }
  return best;
}

double MinSub(const DistanceSpec& spec, TrajectoryView query, int i,
              TrajectoryView data) {
  switch (spec.kind) {
    case DistanceKind::kDtw:
    case DistanceKind::kFrechet:
      return ScalarMinEuclidean(query, i, data);
    default:
      return VisitWedCosts(spec, query, data, [&](const auto& costs) {
        double best = costs.Sub(i, 0);
        for (int j = 1; j < static_cast<int>(data.size()); ++j) {
          best = std::min(best, costs.Sub(i, j));
        }
        return best;
      });
  }
}

/// Per-candidate scratch of KpfBoundPlan::LowerBound: the plan is shared
/// read-only by a query's workers, so what varies per candidate lives in
/// the call. Up to kInline doubles it is a stack buffer; larger requests
/// use thread-local storage that only grows, so steady-state calls
/// allocate nothing.
class CallScratch {
 public:
  static constexpr size_t kInline = 2048;

  double* Get(size_t size) {
    if (size <= kInline) return inline_;
    thread_local std::vector<double> heap;
    if (heap.size() < size) heap.resize(size);
    return heap.data();
  }

 private:
  double inline_[kInline];
};

/// In place: v[g] = sqrt(v[g]) for the kGroup values of one key group.
void SqrtGroup(double* v, bool vector) {
  if (vector) {
    using simd::VecD;
    VecD::Sqrt(VecD::Load(v)).Store(v);
    VecD::Sqrt(VecD::Load(v + simd::kLanes)).Store(v + simd::kLanes);
    return;
  }
  for (int g = 0; g < ChunkBoxes::kGroup; ++g) v[g] = std::sqrt(v[g]);
}

/// out[g] = min_j |q_g - d_j| for the kGroup key points at (qx, qy), with
/// the key points in lanes: each data point is broadcast against two lane
/// groups, the minimum runs over squared distances (the ops and order of
/// SquaredDistance, no NaN: finite inputs) and one sqrt per lane group
/// follows. sqrt is correctly rounded and monotone, so sqrt(min_j s_j) ==
/// min_j sqrt(s_j) bit for bit, the scalar reference's value.
void KeyMinSubs(const double* qx, const double* qy, TrajectoryView data,
                bool vector, double* out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (vector) {
    using simd::VecD;
    constexpr int kStep = simd::kLanes;
    const VecD x0 = VecD::Load(qx);
    const VecD y0 = VecD::Load(qy);
    const VecD x1 = VecD::Load(qx + kStep);
    const VecD y1 = VecD::Load(qy + kStep);
    VecD best0 = VecD::Broadcast(kInf);
    VecD best1 = best0;
    for (const Point& p : data) {
      const VecD px = VecD::Broadcast(p.x);
      const VecD py = VecD::Broadcast(p.y);
      const VecD dx0 = x0 - px;
      const VecD dy0 = y0 - py;
      const VecD dx1 = x1 - px;
      const VecD dy1 = y1 - py;
      best0 = VecD::Min(best0, dx0 * dx0 + dy0 * dy0);
      best1 = VecD::Min(best1, dx1 * dx1 + dy1 * dy1);
    }
    best0.Store(out);
    best1.Store(out + kStep);
  } else {
    for (int g = 0; g < ChunkBoxes::kGroup; ++g) {
      double best = kInf;
      for (const Point& p : data) {
        best = std::min(best, SquaredDistance(Point{qx[g], qy[g]}, p));
      }
      out[g] = best;
    }
  }
  SqrtGroup(out, vector);
}

}  // namespace

double KpfPointMinCost(const DistanceSpec& spec, TrajectoryView query, int i,
                       TrajectoryView data) {
  const double min_sub = MinSub(spec, query, i, data);
  if (spec.kind == DistanceKind::kDtw || spec.kind == DistanceKind::kFrechet) {
    return min_sub;  // deletion cost is itself a substitution (§5.2)
  }
  return VisitWedCosts(spec, query, data, [&](const auto& costs) {
    return std::min(costs.Del(i), min_sub);
  });
}

double KpfLowerBoundEstimate(const DistanceSpec& spec, TrajectoryView query,
                             TrajectoryView data, double sample_rate) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  const bool use_max = spec.kind == DistanceKind::kFrechet;
  double total = 0;
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query.
    const int i = static_cast<int>(
        (static_cast<int64_t>(k) * m) / key_count);
    const double c = KpfPointMinCost(spec, query, i, data);
    if (use_max) {
      total = std::max(total, c);
    } else {
      total += c;
    }
  }
  if (use_max) return total;  // a max never needs rescaling
  const double effective_rate =
      static_cast<double>(key_count) / static_cast<double>(m);
  return total / effective_rate;
}

double OsfLowerBound(const DistanceSpec& spec, TrajectoryView query,
                     TrajectoryView data) {
  return KpfLowerBoundEstimate(spec, query, data, /*sample_rate=*/1.0);
}

void KpfBoundPlan::Bind(const DistanceSpec& spec, TrajectoryView query,
                        double sample_rate) {
  TRAJ_CHECK(sample_rate > 0 && sample_rate <= 1.0);
  TRAJ_CHECK(!query.empty());
  spec_ = spec;
  query_ = query;
  use_max_ = spec.kind == DistanceKind::kFrechet;
  wed_family_ = spec.IsWedFamily();
  vector_ = simd::Enabled();

  const int m = static_cast<int>(query.size());
  const int key_count = std::max(
      1, static_cast<int>(std::ceil(sample_rate * static_cast<double>(m))));
  key_points_.resize(static_cast<size_t>(key_count));
  for (int k = 0; k < key_count; ++k) {
    // Uniformly spaced key points over the query — identical index math to
    // KpfLowerBoundEstimate.
    key_points_[static_cast<size_t>(k)] =
        static_cast<int>((static_cast<int64_t>(k) * m) / key_count);
  }
  effective_rate_ = static_cast<double>(key_count) / static_cast<double>(m);
  scale_ = 1.0 - 4.0 * static_cast<double>(key_count + 2) * 0x1p-53;

  // Deletion costs are query-side only (EDR: constant 1; ERP: distance to
  // the gap point; WED: user del of the query point) — hoist them out of
  // the per-candidate loop.
  key_del_.clear();
  if (wed_family_) {
    key_del_.reserve(static_cast<size_t>(key_count));
    // The data view is unused by Del; the query stands in for it.
    VisitWedCosts(spec_, query_, query_, [&](const auto& costs) {
      for (const int i : key_points_) key_del_.push_back(costs.Del(i));
    });
  }

  // The box path needs a Euclidean sub, finite key points and no NaN
  // deletion cost: then no term can be NaN on finite data, so a prefix may
  // decide. Key columns are padded to whole groups with the last key point;
  // the pad lanes are computed and never read.
  boxed_ = spec.kind == DistanceKind::kDtw ||
           spec.kind == DistanceKind::kFrechet ||
           spec.kind == DistanceKind::kErp;
  for (const int i : key_points_) {
    const Point p = query[static_cast<size_t>(i)];
    boxed_ = boxed_ && std::isfinite(p.x) && std::isfinite(p.y);
  }
  for (const double del : key_del_) boxed_ = boxed_ && !std::isnan(del);
  key_x_.clear();
  key_y_.clear();
  if (boxed_) {
    const size_t group = ChunkBoxes::kGroup;
    const size_t padded = (key_points_.size() + group - 1) / group * group;
    key_x_.resize(padded);
    key_y_.resize(padded);
    for (size_t k = 0; k < padded; ++k) {
      const Point p = query[static_cast<size_t>(
          key_points_[std::min(k, key_points_.size() - 1)])];
      key_x_[k] = p.x;
      key_y_[k] = p.y;
    }
  }
}

bool KpfBoundPlan::TailHasNaN(size_t k, TrajectoryView data) const {
  if (use_max_) return false;
  for (; k < key_points_.size(); ++k) {
    // A WED-family term is min(del, sub), NaN exactly when del is; a DTW
    // term is NaN exactly when the scalar min's first sub(q_i, d_0) is.
    if (wed_family_ ? std::isnan(key_del_[k])
                    : std::isnan(SquaredDistance(
                          query_[static_cast<size_t>(key_points_[k])],
                          data[0]))) {
      return true;
    }
  }
  return false;
}

double KpfBoundPlan::ScalarLowerBound(TrajectoryView data,
                                      double abandon_at) const {
  const size_t key_count = key_points_.size();
  double total = 0;
  for (size_t k = 0; k < key_count; ++k) {
    double c = MinSub(spec_, query_, key_points_[k], data);
    if (wed_family_) c = std::min(key_del_[k], c);
    if (use_max_) {
      total = std::max(total, c);
    } else {
      total += c;
    }
    // The rescaled partial bound, computed exactly as the full one below.
    const double partial = use_max_ ? total : total / effective_rate_;
    if (partial >= abandon_at && k + 1 < key_count) {
      if (!TailHasNaN(k + 1, data)) return partial;
      abandon_at = std::numeric_limits<double>::infinity();
    }
  }
  if (use_max_) return total;  // a max never needs rescaling
  return total / effective_rate_;
}

double KpfBoundPlan::LowerBound(TrajectoryView data,
                                double abandon_at) const {
  TRAJ_CHECK(!key_points_.empty());
  TRAJ_DCHECK(!data.empty());
  if (!boxed_) return ScalarLowerBound(data, abandon_at);
  const size_t key_count = key_points_.size();
  const size_t padded = key_x_.size();
  // One buffer holds the box terms and their suffix (padded + 1 doubles),
  // then the boxes.
  CallScratch scratch;
  double* buffer =
      scratch.Get(padded + 1 + ChunkBoxes::StorageSize(data.size()));
  ChunkBoxes boxes;
  if (!boxes.Build(data, vector_, buffer + padded + 1)) {
    return ScalarLowerBound(data, abandon_at);
  }
  constexpr size_t kGroup = ChunkBoxes::kGroup;
  const double* kx = key_x_.data();
  const double* ky = key_y_.data();
  const bool abandon = abandon_at < std::numeric_limits<double>::infinity();
  double group_terms[kGroup];

  // Box pass (abandoning calls only): the box term of key point k is <= its
  // exact term, and a rounded add of a smaller non-negative term never
  // gives a larger sum, so the rescaled box prefix — summed in key order
  // like the full bound — is <= the full bound and may decide the prune.
  double* suffix = buffer;
  if (abandon) {
    double total = 0;
    for (size_t g = 0; g < padded; g += kGroup) {
      boxes.MinSquares(kx + g, ky + g, vector_, group_terms);
      SqrtGroup(group_terms, vector_);
      const size_t end = std::min(key_count, g + kGroup);
      for (size_t k = g; k < end; ++k) {
        double c = group_terms[k - g];
        if (wed_family_) c = std::min(key_del_[k], c);
        suffix[k] = c;
        total = use_max_ ? std::max(total, c) : total + c;
      }
      const double partial = use_max_ ? total : total / effective_rate_;
      if (partial >= abandon_at) return partial;
    }
    // suffix[k] = the box terms of keys k.. summed (Fréchet: their max).
    suffix[key_count] = 0;
    for (size_t k = key_count; k-- > 0;) {
      suffix[k] = use_max_ ? std::max(suffix[k + 1], suffix[k])
                           : suffix[k + 1] + suffix[k];
    }
  }

  // Exact pass, key points in lanes. Terms add in key order, so a run to
  // the end is bit-identical to KpfLowerBoundEstimate. An abandoning call
  // stops once the exact prefix plus the box suffix decides: that sum adds
  // the at most K non-negative terms in another order than the full bound,
  // each rounding moving it by at most one relative 2^-53, which scale_ =
  // 1 - 4(K+2)·2^-53 absorbs (as CmaAbandonRule's scale does), so the
  // returned value stays <= the full bound. Fréchet's max needs no scale.
  double total = 0;
  for (size_t g = 0; g < padded; g += kGroup) {
    KeyMinSubs(kx + g, ky + g, data, vector_, group_terms);
    const size_t end = std::min(key_count, g + kGroup);
    for (size_t k = g; k < end; ++k) {
      double c = group_terms[k - g];
      if (wed_family_) c = std::min(key_del_[k], c);
      if (use_max_) {
        total = std::max(total, c);
      } else {
        total += c;
      }
    }
    if (abandon && end < key_count) {
      // A sum that overflows is not used: its scaled value could pass a
      // full bound that rounded to just below infinity.
      const double sum = use_max_ ? std::max(total, suffix[end])
                                  : total + suffix[end];
      const double bound =
          use_max_ ? sum : sum * scale_ / effective_rate_;
      if (bound >= abandon_at && (use_max_ || std::isfinite(sum))) {
        return bound;
      }
    }
  }
  if (use_max_) return total;  // a max never needs rescaling
  return total / effective_rate_;
}

}  // namespace trajsearch
