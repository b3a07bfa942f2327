#include "io/column_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace trajsearch {

namespace {

/// Bitwise double equality: the exactness contract is "the decoder
/// reproduces the input bytes", which NaN-tolerant == cannot express.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Quantizes one coordinate against its trajectory reference. Fails (and
/// sends the trajectory to verbatim storage) on non-finite deltas and on
/// deltas outside the int32 grid.
bool Quantize(double value, double ref, double resolution, int32_t* q_out,
              double* residual_out) {
  const double delta = (value - ref) / resolution;
  if (!std::isfinite(delta)) return false;
  const double rounded = std::nearbyint(delta);
  if (!(std::fabs(rounded) <= 2147483647.0)) return false;
  const auto q = static_cast<int32_t>(rounded);
  const double residual = value - ReconstructCoord(ref, q, resolution);
  if (!std::isfinite(residual)) return false;
  *q_out = q;
  *residual_out = residual;
  return true;
}

}  // namespace

CompressedColumns EncodeColumns(const Dataset& dataset,
                                const ColumnCodecConfig& config) {
  TRAJ_CHECK(config.resolution > 0);
  CompressedColumns out;
  out.resolution = config.resolution;
  out.store_residuals = config.store_residuals;
  const auto traj_count = static_cast<size_t>(dataset.size());
  const size_t point_count = dataset.point_count();
  out.refs.reserve(traj_count);
  out.modes.reserve(traj_count);
  out.qx.reserve(point_count);
  out.qy.reserve(point_count);
  if (config.store_residuals) {
    out.rx.reserve(point_count);
    out.ry.reserve(point_count);
  }

  // Per-trajectory staging so a late verification failure can discard the
  // partial quantization and fall back to verbatim wholesale.
  std::vector<int32_t> stage_qx, stage_qy;
  std::vector<double> stage_rx, stage_ry;
  for (int id = 0; id < dataset.size(); ++id) {
    const TrajectoryRef traj = dataset[id];
    const Point ref = traj.empty() ? Point{} : traj[0];
    stage_qx.clear();
    stage_qy.clear();
    stage_rx.clear();
    stage_ry.clear();
    bool quantized = true;
    for (const Point& p : traj) {
      int32_t qx = 0, qy = 0;
      double rx = 0, ry = 0;
      if (!Quantize(p.x, ref.x, config.resolution, &qx, &rx) ||
          !Quantize(p.y, ref.y, config.resolution, &qy, &ry)) {
        quantized = false;
        break;
      }
      if (config.store_residuals &&
          (!BitEqual(ReconstructCoord(ref.x, qx, config.resolution) + rx,
                     p.x) ||
           !BitEqual(ReconstructCoord(ref.y, qy, config.resolution) + ry,
                     p.y))) {
        // recon + residual does not round-trip the input bitwise (e.g. a
        // -0.0 coordinate, or a residual losing bits to cancellation): the
        // exact tier must not ship this trajectory quantized.
        quantized = false;
        break;
      }
      stage_qx.push_back(qx);
      stage_qy.push_back(qy);
      stage_rx.push_back(rx);
      stage_ry.push_back(ry);
    }

    out.refs.push_back(ref);
    if (quantized) {
      out.modes.push_back(kCodecModeQuantized);
      out.qx.insert(out.qx.end(), stage_qx.begin(), stage_qx.end());
      out.qy.insert(out.qy.end(), stage_qy.begin(), stage_qy.end());
      if (config.store_residuals) {
        out.rx.insert(out.rx.end(), stage_rx.begin(), stage_rx.end());
        out.ry.insert(out.ry.end(), stage_ry.begin(), stage_ry.end());
      }
    } else {
      out.modes.push_back(kCodecModeVerbatim);
      // Quantized lanes stay zero-filled so qx/qy keep pool indexing; the
      // raw doubles go to rx/ry — full-length lanes in residual mode, the
      // exception stream otherwise.
      out.qx.insert(out.qx.end(), static_cast<size_t>(traj.size()), 0);
      out.qy.insert(out.qy.end(), static_cast<size_t>(traj.size()), 0);
      for (const Point& p : traj) {
        out.rx.push_back(p.x);
        out.ry.push_back(p.y);
      }
      out.exception_points += static_cast<uint64_t>(traj.size());
    }
  }
  return out;
}

Status DecodeColumns(const CompressedColumnsView& view,
                     std::span<const uint64_t> offsets,
                     std::vector<Point>* pool) {
  if (!(view.resolution > 0)) {
    return Status::InvalidArgument("column codec: non-positive resolution");
  }
  if (offsets.empty() || offsets.front() != 0 ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::InvalidArgument("column codec: malformed offset table");
  }
  const size_t traj_count = offsets.size() - 1;
  const size_t point_count = static_cast<size_t>(offsets.back());
  if (view.refs.size() != traj_count || view.modes.size() != traj_count) {
    return Status::InvalidArgument(
        "column codec: per-trajectory array size mismatch");
  }
  if (view.qx.size() != point_count || view.qy.size() != point_count) {
    return Status::InvalidArgument(
        "column codec: quantized column size mismatch");
  }
  if (view.rx.size() != view.ry.size()) {
    return Status::InvalidArgument(
        "column codec: residual columns disagree in size");
  }
  if (view.store_residuals && view.rx.size() != point_count) {
    return Status::InvalidArgument(
        "column codec: residual columns must cover every point");
  }

  // Exactly-sized output buffer: one allocation, audited by the
  // zero-over-allocation test on the mmap load path. Points are appended
  // in pool order, so the buffer is written once rather than zero-filled
  // first.
  pool->clear();
  pool->reserve(point_count);
  size_t exception_cursor = 0;
  for (size_t t = 0; t < traj_count; ++t) {
    const uint8_t mode = view.modes[t];
    if (mode != kCodecModeQuantized && mode != kCodecModeVerbatim) {
      return Status::InvalidArgument("column codec: unknown trajectory mode");
    }
    const auto begin = static_cast<size_t>(offsets[t]);
    const auto end = static_cast<size_t>(offsets[t + 1]);
    const Point ref = view.refs[t];
    for (size_t i = begin; i < end; ++i) {
      double x = 0, y = 0;
      if (view.store_residuals) {
        if (mode == kCodecModeQuantized) {
          x = ReconstructCoord(ref.x, view.qx[i], view.resolution) +
              view.rx[i];
          y = ReconstructCoord(ref.y, view.qy[i], view.resolution) +
              view.ry[i];
        } else {
          x = view.rx[i];
          y = view.ry[i];
        }
      } else if (mode == kCodecModeQuantized) {
        x = ReconstructCoord(ref.x, view.qx[i], view.resolution);
        y = ReconstructCoord(ref.y, view.qy[i], view.resolution);
      } else {
        if (exception_cursor >= view.rx.size()) {
          return Status::InvalidArgument(
              "column codec: exception stream underruns verbatim points");
        }
        x = view.rx[exception_cursor];
        y = view.ry[exception_cursor];
        ++exception_cursor;
      }
      pool->push_back(Point{x, y});
    }
  }
  if (!view.store_residuals && exception_cursor != view.rx.size()) {
    return Status::InvalidArgument(
        "column codec: exception stream longer than verbatim points");
  }
  return Status::OK();
}

}  // namespace trajsearch
