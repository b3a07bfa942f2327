#pragma once

#include <cstddef>

#include "core/trajectory.h"
#include "util/simd.h"

namespace trajsearch {

/// \brief Bounding boxes of a candidate's 8-point chunks: the one
/// box-filtering kernel (Gudmundsson et al.) that the KPF bound
/// (prune/key_point_filter.cc) and CMA's suffix floor (search/cma.cc) share.
///
/// Build folds each chunk's AoS points into [min x, max x] x [min y, max y];
/// MinSquares then bounds min_j |q - d_j|^2 from below for a group of query
/// points by the squared distance from q to the nearest box: per axis q
/// minus q clamped into [lo, hi], squared and summed like SquaredDistance. A
/// box is at most as far from q as any point in it, also after rounding
/// (subtraction, squaring and addition are monotone), so each result is <=
/// the exact minimum the same query point would get from the points. The
/// boxes live in storage the caller provides (per-candidate scratch);
/// nothing is stored per corpus.
class ChunkBoxes {
 public:
  /// Points per chunk.
  static constexpr int kChunk = 8;
  /// Query points one MinSquares call covers: two lane groups.
  static constexpr int kGroup = 2 * simd::kLanes;

  /// Doubles of storage Build needs for an n-point trajectory.
  static size_t StorageSize(size_t n) {
    return 4 * ((n + kChunk - 1) / kChunk);
  }

  /// Builds the boxes of `data` into `storage` (StorageSize(data.size())
  /// doubles, which must outlive the MinSquares calls). Returns false when a
  /// coordinate is NaN or infinite — found by summing p - p over every
  /// coordinate, which is 0 exactly when all are finite — and the boxes are
  /// then not to be read. `vector` folds whole chunks with VecD Min/Max;
  /// it may return another zero sign for a box edge than the scalar fold,
  /// which no MinSquares result can see (every clamp gap is squared).
  bool Build(TrajectoryView data, bool vector, double* storage);

  /// out[g] = min over the boxes of the squared distance from
  /// (qx[g], qy[g]) to the box, for the kGroup query points g. Finite boxes
  /// only (Build returned true); query coordinates must not be NaN. The
  /// vector and scalar loops make the same operations and agree bit for
  /// bit.
  void MinSquares(const double* qx, const double* qy, bool vector,
                  double* out) const;

 private:
  /// min x | max x | min y | max y, count_ entries each.
  const double* box_ = nullptr;
  int count_ = 0;
};

}  // namespace trajsearch
