#pragma once

#include <cmath>

namespace trajsearch {

/// \brief A 2-D trajectory sample point.
///
/// Coordinates are unit-agnostic: GPS datasets use (longitude, latitude)
/// degrees exactly as the paper's artifact does; synthetic planar datasets
/// use meters. All built-in cost models treat the plane as Euclidean.
struct Point {
  double x = 0;
  double y = 0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }
};

/// \brief Structure-of-arrays view over a point sequence: two parallel,
/// contiguous coordinate columns (x[i], y[i] are point i), so vector kernels
/// can load whole lane groups of coordinates with one instruction. Corpora
/// store points only as AoS; columns are scratch copies a plan makes (the
/// query's at Bind, a candidate's per call; see CopyCols in
/// distance/dp.h). A default-constructed PointCols means "columns not
/// available".
struct PointCols {
  const double* x = nullptr;
  const double* y = nullptr;

  bool empty() const { return x == nullptr; }
};

/// Squared Euclidean distance between two points.
inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between two points.
inline double EuclideanDistance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// Axis-aligned bounding box.
struct BoundingBox {
  double min_x = 1e300;
  double min_y = 1e300;
  double max_x = -1e300;
  double max_y = -1e300;

  /// Grows the box to contain p.
  void Extend(const Point& p) {
    if (p.x < min_x) min_x = p.x;
    if (p.y < min_y) min_y = p.y;
    if (p.x > max_x) max_x = p.x;
    if (p.y > max_y) max_y = p.y;
  }

  /// True if the box contains p (inclusive).
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  double Width() const { return max_x - min_x; }
  double Height() const { return max_y - min_y; }
  /// Center point of the box (used as the default ERP gap point g).
  Point Center() const {
    return Point{(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }
};

}  // namespace trajsearch
