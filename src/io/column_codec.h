#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "util/status.h"

namespace trajsearch {

/// \brief Configuration of the compressed column tier: delta-encode every
/// coordinate against a per-trajectory reference point and quantize the
/// delta to a uniform grid of side `resolution`.
struct ColumnCodecConfig {
  /// Quantization step in coordinate units. The default is 1e-7 degrees
  /// (~1.1 cm at the equator) — below GPS receiver noise, so the lossy tier
  /// is metrically faithful for the paper's corpora.
  double resolution = 1e-7;
  /// Exactness escape hatch: additionally store the double residual
  /// x - reconstruct(q) for every point, making decode bit-exact (~24 B per
  /// point instead of ~8 B). Queries served from this tier are hit-for-hit
  /// identical to the uncompressed corpus; the default lossy tier is only
  /// identical up to `resolution`.
  bool store_residuals = false;
};

/// \brief Per-trajectory storage mode in a compressed column set.
enum : uint8_t {
  /// Coordinates are quantized deltas against the trajectory's reference.
  kCodecModeQuantized = 0,
  /// Quantization failed verification (non-finite coordinates, deltas
  /// overflowing int32, or a residual that does not round-trip bitwise):
  /// the trajectory's raw doubles are stored verbatim in the exception
  /// arrays and its quantized lanes are zero-filled.
  kCodecModeVerbatim = 1,
};

/// \brief Zero-copy view of an encoded column set (spans into a mapped
/// snapshot section or into a CompressedColumns owner).
///
/// Layout contract, with T trajectories and P total points:
///  - refs:  T reference points (the first point of each trajectory);
///  - qx/qy: P int32 quantized deltas (zero-filled for verbatim
///    trajectories, so quantized indexing never needs a cursor);
///  - rx/ry: with store_residuals, P double residuals (verbatim
///    trajectories store their raw coordinates in their lanes); without,
///    only the verbatim trajectories' raw coordinates, back to back in
///    trajectory order (cursor-walked by the decoder).
///  - modes: T bytes, kCodecModeQuantized or kCodecModeVerbatim.
struct CompressedColumnsView {
  double resolution = 0;
  bool store_residuals = false;
  std::span<const Point> refs;
  std::span<const int32_t> qx;
  std::span<const int32_t> qy;
  std::span<const double> rx;
  std::span<const double> ry;
  std::span<const uint8_t> modes;
};

/// \brief An encoded column set that owns its arrays (the writer-side twin
/// of CompressedColumnsView).
struct CompressedColumns {
  double resolution = 0;
  bool store_residuals = false;
  /// Total points of verbatim trajectories (== rx/ry size in lossy mode).
  uint64_t exception_points = 0;
  std::vector<Point> refs;
  std::vector<int32_t> qx;
  std::vector<int32_t> qy;
  std::vector<double> rx;
  std::vector<double> ry;
  std::vector<uint8_t> modes;

  CompressedColumnsView View() const {
    return CompressedColumnsView{resolution, store_residuals, refs,
                                 qx,         qy,              rx,
                                 ry,         modes};
  }
};

/// The one reconstruction expression encoder verification and decoder share.
/// The build compiles with -ffp-contract=off on every target, so this
/// arithmetic is bit-reproducible between write and read time.
inline double ReconstructCoord(double ref, int32_t q, double resolution) {
  return ref + static_cast<double>(q) * resolution;
}

/// Encodes a dataset's coordinate columns. Infallible: any trajectory the
/// quantizer cannot represent exactly enough falls back to verbatim storage
/// (with store_residuals, "exactly enough" is verified bitwise per
/// coordinate at encode time, so decode is guaranteed bit-exact).
CompressedColumns EncodeColumns(const Dataset& dataset,
                                const ColumnCodecConfig& config);

/// Decodes an encoded column set back into an AoS point pool, sized exactly
/// (one allocation). `offsets` is the dataset's
/// offset table (trajectory count + 1 entries). Rejects structurally
/// inconsistent inputs — mismatched array lengths, bad modes, a cursor
/// overrun — with InvalidArgument; with store_residuals the output is
/// bitwise identical to the encoded corpus.
Status DecodeColumns(const CompressedColumnsView& view,
                     std::span<const uint64_t> offsets,
                     std::vector<Point>* pool);

}  // namespace trajsearch
