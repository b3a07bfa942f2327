#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "util/status.h"

namespace trajsearch {

/// Binary dataset snapshots.
///
/// A snapshot is the serving-time storage format of a Dataset. There is one
/// on-disk format, version 4: a versioned fixed-size header and the dataset
/// name, then a section table and page-aligned sections holding the corpus in
/// exactly its in-memory layout (offsets table, AoS pool, SoA shadow
/// columns), or the compressed column tier, plus an optional prebuilt grid
/// index. The layout, the writer (WriteSnapshotV4) and the zero-copy mapped
/// reader (MmapSnapshot) live in io/snapshot_v4.h; this header holds the
/// format-agnostic entry points.
///
/// Header (all integers little-endian):
///   magic       8 bytes  "TRAJSNAP"
///   version     uint32   4
///   name_len    uint32
///   traj_count  uint64
///   point_count uint64
///   fingerprint uint64   Fingerprint(dataset) — content checksum
///   name        name_len bytes
///
/// Versions 1–3 (a length table, a pool dump, a pool dump plus an append
/// journal) are retired: their headers are rejected with InvalidArgument.
/// Versions newer than 4 are rejected with Unsupported, header counts larger
/// than the file and truncated files with IoError, and payload corruption
/// (fingerprint or offset-table mismatch) with InvalidArgument.

/// The snapshot format version every file is written with.
inline constexpr uint32_t kSnapshotVersionMapped = 4;

/// One entry of a snapshot's section table (type constants in
/// io/snapshot_v4.h).
struct SnapshotSectionInfo {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Header/shape summary of a snapshot file, readable without loading the
/// payload (the CLI's `stats` uses this). The probe reports the section
/// table and storage-tier configuration — all from the prelude, never
/// faulting the payload.
struct SnapshotInfo {
  uint32_t version = 0;
  std::string name;
  uint64_t base_trajectories = 0;
  uint64_t base_points = 0;
  /// The section table, in file order.
  std::vector<SnapshotSectionInfo> sections;
  /// Every section starts on a kV4PageSize boundary (the probe rejects files
  /// where this fails, so true whenever the probe succeeds).
  bool page_aligned = false;
  /// The file stores the compressed column tier.
  bool compressed = false;
  double compressed_resolution = 0;
  bool compressed_residuals = false;
  /// On-disk footprint per trajectory (file size / trajectories).
  double bytes_per_trajectory = 0;
};

/// Heap-loads a snapshot: maps the file, verifies the checksum and returns
/// an owned Dataset (restoring the stored name) whose pool, columns and
/// offsets are sized exactly from the header counts.
Result<Dataset> ReadSnapshot(const std::string& path);

/// Reads a snapshot's header and section table without loading the payload.
Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

/// True if the file starts with the snapshot magic (format sniffing).
bool IsSnapshotFile(const std::string& path);

/// Loads a dataset from either a snapshot (when the magic matches) or a CSV.
/// `dataset_name` is used only for the CSV path (snapshots carry their own
/// name).
Result<Dataset> LoadDataset(const std::string& path,
                            const std::string& dataset_name);

}  // namespace trajsearch
