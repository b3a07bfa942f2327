#include "prune/chunk_boxes.h"

#include <algorithm>
#include <limits>

namespace trajsearch {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool ChunkBoxes::Build(TrajectoryView data, bool vector, double* storage) {
  const int n = static_cast<int>(data.size());
  count_ = (n + kChunk - 1) / kChunk;
  box_ = storage;
  double* lox = storage;
  double* hix = lox + count_;
  double* loy = hix + count_;
  double* hiy = loy + count_;
  double zero = 0;  // sum of p - p: 0 exactly when every coordinate is finite
  int b = 0;
  if constexpr (simd::kLanes >= 2) {
    if (vector) {
      // Whole chunks fold their AoS points as the corpus bounds pass does
      // (core/dataset.cc): a VecD holds kLanes / 2 points as x y x y, so
      // even lanes fold x and odd lanes fold y; the lanes of one axis then
      // fold in scalar.
      using simd::VecD;
      constexpr int kLanes = simd::kLanes;
      constexpr int kLoads = 2 * kChunk / kLanes;
      static_assert(sizeof(Point) == 2 * sizeof(double));
      const double* xy = reinterpret_cast<const double*>(data.data());
      VecD finite = VecD::Broadcast(0.0);
      for (; (b + 1) * kChunk <= n; ++b) {
        const double* p = xy + 2 * b * kChunk;
        VecD v = VecD::Load(p);
        VecD lo = v;
        VecD hi = v;
        VecD gaps = v - v;
        for (int l = 1; l < kLoads; ++l) {
          v = VecD::Load(p + l * kLanes);
          lo = VecD::Min(v, lo);
          hi = VecD::Max(v, hi);
          gaps = gaps + (v - v);
        }
        finite = finite + gaps;
        double los[kLanes];
        double his[kLanes];
        lo.Store(los);
        hi.Store(his);
        double x0 = los[0], y0 = los[1], x1 = his[0], y1 = his[1];
        for (int l = 2; l < kLanes; l += 2) {
          x0 = std::min(x0, los[l]);
          y0 = std::min(y0, los[l + 1]);
          x1 = std::max(x1, his[l]);
          y1 = std::max(y1, his[l + 1]);
        }
        lox[b] = x0;
        hix[b] = x1;
        loy[b] = y0;
        hiy[b] = y1;
      }
      double lanes[kLanes];
      finite.Store(lanes);
      for (const double lane : lanes) zero += lane;
    }
  }
  // Every chunk under scalar dispatch; the partial tail chunk otherwise.
  for (; b < count_; ++b) {
    const int end = std::min(n, (b + 1) * kChunk);
    const Point first = data[static_cast<size_t>(b * kChunk)];
    double x0 = first.x, x1 = first.x, y0 = first.y, y1 = first.y;
    for (int j = b * kChunk; j < end; ++j) {
      const Point p = data[static_cast<size_t>(j)];
      zero += (p.x - p.x) + (p.y - p.y);
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
    lox[b] = x0;
    hix[b] = x1;
    loy[b] = y0;
    hiy[b] = y1;
  }
  return zero == 0;
}

void ChunkBoxes::MinSquares(const double* qx, const double* qy, bool vector,
                            double* out) const {
  const double* lox = box_;
  const double* hix = lox + count_;
  const double* loy = hix + count_;
  const double* hiy = loy + count_;
  // No NaN can arise (finite boxes, non-NaN query), so the vector and
  // scalar mins agree bit for bit. The vector loop runs two lane groups of
  // query points per box, sharing the box broadcasts.
  if (vector) {
    using simd::VecD;
    constexpr int kStep = simd::kLanes;
    const VecD x0 = VecD::Load(qx);
    const VecD y0 = VecD::Load(qy);
    const VecD x1 = VecD::Load(qx + kStep);
    const VecD y1 = VecD::Load(qy + kStep);
    VecD best0 = VecD::Broadcast(kInf);
    VecD best1 = best0;
    for (int b = 0; b < count_; ++b) {
      const VecD lo_x = VecD::Broadcast(lox[b]);
      const VecD hi_x = VecD::Broadcast(hix[b]);
      const VecD lo_y = VecD::Broadcast(loy[b]);
      const VecD hi_y = VecD::Broadcast(hiy[b]);
      const VecD gx0 = x0 - VecD::Min(VecD::Max(x0, lo_x), hi_x);
      const VecD gy0 = y0 - VecD::Min(VecD::Max(y0, lo_y), hi_y);
      const VecD gx1 = x1 - VecD::Min(VecD::Max(x1, lo_x), hi_x);
      const VecD gy1 = y1 - VecD::Min(VecD::Max(y1, lo_y), hi_y);
      best0 = VecD::Min(best0, gx0 * gx0 + gy0 * gy0);
      best1 = VecD::Min(best1, gx1 * gx1 + gy1 * gy1);
    }
    best0.Store(out);
    best1.Store(out + kStep);
    return;
  }
  for (int g = 0; g < kGroup; ++g) {
    double best = kInf;
    for (int b = 0; b < count_; ++b) {
      const double gx = qx[g] - std::min(std::max(qx[g], lox[b]), hix[b]);
      const double gy = qy[g] - std::min(std::max(qy[g], loy[b]), hiy[b]);
      best = std::min(best, gx * gx + gy * gy);
    }
    out[g] = best;
  }
}

}  // namespace trajsearch
