#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/trajectory.h"
#include "util/status.h"

namespace trajsearch {

/// Binary dataset snapshots.
///
/// A snapshot is the serving-time storage format of a Dataset. Since v2 the
/// on-disk payload *is* the in-memory pool layout: a versioned fixed-size
/// header, the dataset name, the per-trajectory offset table and one
/// contiguous block of little-endian double coordinates. Loading is a header
/// check plus two block reads straight into the pool — no per-trajectory
/// allocation at all — so service startup cost is dominated by raw I/O.
/// Every buffer is reserved exactly from the header counts, so loading
/// never over-allocates (capacity == size for the offsets table and pool).
///
/// v2 layout (all integers little-endian):
///   magic      8 bytes  "TRAJSNAP"
///   version    uint32   2
///   name_len   uint32
///   traj_count uint64
///   point_count uint64
///   fingerprint uint64  Fingerprint(dataset) — content checksum
///   name       name_len bytes
///   offsets    (traj_count + 1) x uint64   pool offsets; first 0, last
///                                          point_count (the Dataset offset
///                                          table, verbatim)
///   points     point_count x (double x, double y)   the pool, verbatim
///
/// v3 (live corpora) is the v2 payload for the immutable *base* — counts
/// and fingerprint in the header describe the base — followed by a
/// replayable append journal holding the delta trajectories in append
/// order, so a live service snapshots without flattening its delta and a
/// loader can replay the journal through Append to reproduce the exact
/// generation (same corpus ids):
///   journal_count  uint64   delta trajectories
///   journal_points uint64   total delta points
///   journal_fp     uint64   content checksum of the journal (trajectory
///                           fingerprints combined in order, plus count)
///   entries        journal_count x { uint32 length; length x Point }
///
/// v1 (a length table instead of the offset table) is retired: a v1 header
/// is rejected with InvalidArgument, like any version older than v2.
///
/// Load rejects bad magic/retired versions/size invariants with
/// InvalidArgument, versions newer than v4 with Unsupported, truncated files
/// with IoError, and payload corruption (fingerprint or offset-table
/// mismatch) with InvalidArgument.

/// Default version for plain Dataset snapshots (a delta-free corpus is
/// exactly a v2 file; only live corpora with a delta write v3).
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kSnapshotVersionLive = 3;
/// v4: the page-aligned, section-table serving format built for zero-copy
/// mmap serving and the compressed column tier (see io/snapshot_v4.h).
inline constexpr uint32_t kSnapshotVersionMapped = 4;

/// A v3 snapshot split into its two generations: the pooled base and the
/// append journal (delta trajectories in append order). v2 files load
/// with an empty journal.
struct LiveSnapshot {
  Dataset base;
  std::vector<Trajectory> journal;
};

/// One entry of a v4 snapshot's section table (type constants in
/// io/snapshot_v4.h).
struct SnapshotSectionInfo {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Header/shape summary of a snapshot file, readable without loading the
/// payload (the CLI's `stats` uses this to report version and generation
/// shape). For a v4 file the probe also reports the section table and
/// storage-tier configuration — all from the prelude, never faulting the
/// payload.
struct SnapshotInfo {
  uint32_t version = 0;
  std::string name;
  uint64_t base_trajectories = 0;
  uint64_t base_points = 0;
  uint64_t journal_trajectories = 0;  // 0 for v2/v4
  uint64_t journal_points = 0;        // 0 for v2/v4
  /// v4 only: the section table, in file order.
  std::vector<SnapshotSectionInfo> sections;
  /// v4 only: every section starts on a kV4PageSize boundary (the probe
  /// rejects files where this fails, so true whenever the probe succeeds).
  bool page_aligned = false;
  /// v4 only: the file stores the compressed column tier.
  bool compressed = false;
  double compressed_resolution = 0;
  bool compressed_residuals = false;
  /// v4 only: on-disk footprint per trajectory (file size / trajectories).
  double bytes_per_trajectory = 0;
};

/// Writes the dataset as a v2 snapshot; IoError on filesystem errors.
Status WriteSnapshot(const Dataset& dataset, const std::string& path);

/// Writes a v3 live snapshot: `base` as the v2-style payload plus `journal`
/// as the replayable append journal (delta trajectories in append order).
Status WriteLiveSnapshot(const Dataset& base,
                         const std::vector<TrajectoryView>& journal,
                         const std::string& path);

/// Reads a snapshot written by WriteSnapshot (v2), WriteLiveSnapshot (v3)
/// or WriteSnapshotV4 (v4), restoring the stored name. A v3 journal is
/// flattened into the returned dataset (base trajectories first, then the
/// journal in append order — the live corpus's id assignment), with the
/// pool and offsets reserved exactly from the header counts.
Result<Dataset> ReadSnapshot(const std::string& path);

/// Reads any snapshot version, preserving the base/journal split of a v3
/// file (v2/v4 load with an empty journal).
Result<LiveSnapshot> ReadLiveSnapshot(const std::string& path);

/// Reads a snapshot's header + journal shape without loading the payload.
Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

/// True if the file starts with the snapshot magic (format sniffing).
bool IsSnapshotFile(const std::string& path);

/// Loads a dataset from either format: snapshot when the magic matches,
/// CSV otherwise. `dataset_name` is used only for the CSV path (snapshots
/// carry their own name).
Result<Dataset> LoadDataset(const std::string& path,
                            const std::string& dataset_name);

}  // namespace trajsearch
