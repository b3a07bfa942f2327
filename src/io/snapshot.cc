#include "io/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "core/fingerprint.h"
#include "io/snapshot_v4.h"
#include "io/traj_csv.h"

namespace trajsearch {

namespace {

constexpr char kMagic[8] = {'T', 'R', 'A', 'J', 'S', 'N', 'A', 'P'};

/// Seed of the journal checksum (combined with the entry count, then each
/// entry's fingerprint in order — the same shape as the Dataset
/// fingerprint, so [ab][c] never collides with [a][bc]).
constexpr uint64_t kJournalSeed = 0x4c49564a4f55524eull;

/// Fixed-size on-disk header. Serialized field by field (not by struct dump)
/// so padding and ABI differences can never leak into the format.
struct SnapshotHeader {
  uint32_t version = kSnapshotVersion;
  uint32_t name_length = 0;
  uint64_t trajectory_count = 0;
  uint64_t point_count = 0;
  uint64_t fingerprint = 0;
};

template <typename T>
void PutScalar(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool GetScalar(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return in.gcount() == static_cast<std::streamsize>(sizeof(*value));
}

bool GetBytes(std::ifstream& in, void* data, size_t length) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(length));
  return in.gcount() == static_cast<std::streamsize>(length);
}

void PutHeaderAndName(std::ofstream& out, const Dataset& dataset,
                      uint32_t version) {
  SnapshotHeader header;
  header.version = version;
  header.name_length = static_cast<uint32_t>(dataset.name().size());
  header.trajectory_count = static_cast<uint64_t>(dataset.size());
  header.point_count = dataset.point_count();
  header.fingerprint = Fingerprint(dataset);

  out.write(kMagic, sizeof(kMagic));
  PutScalar(out, header.version);
  PutScalar(out, header.name_length);
  PutScalar(out, header.trajectory_count);
  PutScalar(out, header.point_count);
  PutScalar(out, header.fingerprint);
  out.write(dataset.name().data(),
            static_cast<std::streamsize>(dataset.name().size()));
}

void PutPool(std::ofstream& out, const Dataset& dataset) {
  // Point is two contiguous doubles; the pool is the payload, verbatim.
  static_assert(sizeof(Point) == 2 * sizeof(double));
  out.write(reinterpret_cast<const char*>(dataset.pool().data()),
            static_cast<std::streamsize>(dataset.pool().size() *
                                         sizeof(Point)));
}

void PutOffsets(std::ofstream& out, const Dataset& dataset) {
  out.write(reinterpret_cast<const char*>(dataset.offsets().data()),
            static_cast<std::streamsize>(dataset.offsets().size() *
                                         sizeof(uint64_t)));
}

/// Reads and validates magic + header. Returns OK with the header filled,
/// or the error to surface.
Status ReadHeader(std::ifstream& in, const std::string& path,
                  SnapshotHeader* header) {
  char magic[sizeof(kMagic)] = {};
  if (!GetBytes(in, magic, sizeof(magic))) {
    return Status::IoError("truncated snapshot header: " + path);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a trajectory snapshot: " + path);
  }
  if (!GetScalar(in, &header->version) ||
      !GetScalar(in, &header->name_length) ||
      !GetScalar(in, &header->trajectory_count) ||
      !GetScalar(in, &header->point_count) ||
      !GetScalar(in, &header->fingerprint)) {
    return Status::IoError("truncated snapshot header: " + path);
  }
  if (header->version < kSnapshotVersion) {
    // v1 (length table) is retired; older headers are not valid snapshots.
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(header->version) +
        " is no longer readable (expected " +
        std::to_string(kSnapshotVersion) + ".." +
        std::to_string(kSnapshotVersionMapped) + "): " + path);
  }
  if (header->version > kSnapshotVersionMapped) {
    return Status::Unsupported(
        "snapshot version " + std::to_string(header->version) +
        " (expected " + std::to_string(kSnapshotVersion) + ".." +
        std::to_string(kSnapshotVersionMapped) + "): " + path);
  }
  return Status::OK();
}

/// Bytes the offset table occupies.
uint64_t IndexBytes(const SnapshotHeader& header) {
  return (header.trajectory_count + 1) * sizeof(uint64_t);
}

/// Sanity bounds before any allocation or seek sized from the file: the
/// declared base-payload counts can never need more bytes than the file
/// actually has. The raw counts are checked first, so the byte arithmetic
/// below them cannot wrap.
Status CheckBasePayloadFits(const SnapshotHeader& header,
                            uint64_t remaining_bytes,
                            const std::string& path) {
  const uint64_t needed_bytes = header.name_length + IndexBytes(header) +
                                header.point_count * sizeof(Point);
  if (header.name_length > remaining_bytes ||
      header.trajectory_count > remaining_bytes ||
      header.point_count > remaining_bytes ||
      needed_bytes > remaining_bytes) {
    return Status::IoError("snapshot shorter than its header declares: " +
                           path);
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  PutHeaderAndName(out, dataset, kSnapshotVersion);
  PutOffsets(out, dataset);
  PutPool(out, dataset);
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status WriteLiveSnapshot(const Dataset& base,
                         const std::vector<TrajectoryView>& journal,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  // The base payload is exactly a v2 body (header counts and fingerprint
  // describe the base alone), so the base half round-trips bit-identically
  // through compaction + re-snapshot.
  PutHeaderAndName(out, base, kSnapshotVersionLive);
  PutOffsets(out, base);
  PutPool(out, base);

  uint64_t journal_points = 0;
  uint64_t journal_fp =
      CombineHash(kJournalSeed, static_cast<uint64_t>(journal.size()));
  for (const TrajectoryView& entry : journal) {
    journal_points += entry.size();
    journal_fp = CombineHash(journal_fp, Fingerprint(entry));
  }
  PutScalar(out, static_cast<uint64_t>(journal.size()));
  PutScalar(out, journal_points);
  PutScalar(out, journal_fp);
  for (const TrajectoryView& entry : journal) {
    PutScalar(out, static_cast<uint32_t>(entry.size()));
    out.write(reinterpret_cast<const char*>(entry.data()),
              static_cast<std::streamsize>(entry.size() * sizeof(Point)));
  }
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<LiveSnapshot> ReadLiveSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }

  SnapshotHeader header;
  const Status header_status = ReadHeader(in, path, &header);
  if (!header_status.ok()) return header_status;

  if (header.version == kSnapshotVersionMapped) {
    // v4 has a section-table layout; its own reader heap-loads and verifies
    // the checksum. A v4 file never carries a journal.
    Result<Dataset> loaded = ReadSnapshotV4(path);
    if (!loaded.ok()) return loaded.status();
    LiveSnapshot snapshot;
    snapshot.base = loaded.MoveValue();
    return snapshot;
  }

  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos file_end = in.tellg();
  const uint64_t remaining_bytes =
      static_cast<uint64_t>(file_end - payload_start);
  in.seekg(payload_start);
  TRAJ_RETURN_NOT_OK(CheckBasePayloadFits(header, remaining_bytes, path));

  std::string name(header.name_length, '\0');
  if (!GetBytes(in, name.data(), name.size())) {
    return Status::IoError("truncated snapshot name: " + path);
  }

  // Offset table: v2/v3 store the pool offsets verbatim, and the
  // coordinate block that follows is one contiguous trajectory-major array —
  // exactly the pool layout — so the points land in place with a single
  // size-checked read. Both buffers are sized exactly from the header (never
  // over-allocated); Dataset::FromPool adopts them without copying.
  std::vector<uint64_t> offsets(header.trajectory_count + 1, 0);
  if (!GetBytes(in, offsets.data(), offsets.size() * sizeof(uint64_t))) {
    return Status::IoError("truncated snapshot offset table: " + path);
  }
  if (offsets.front() != 0 ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::InvalidArgument(
        "snapshot offset table is not a valid pool layout: " + path);
  }
  if (offsets.back() != header.point_count) {
    return Status::InvalidArgument(
        "snapshot index table disagrees with point count: " + path);
  }

  std::vector<Point> pool(header.point_count);
  if (!GetBytes(in, pool.data(), pool.size() * sizeof(Point))) {
    return Status::IoError("truncated snapshot points: " + path);
  }
  LiveSnapshot snapshot;
  snapshot.base =
      Dataset::FromPool(std::move(name), std::move(pool), std::move(offsets));

  if (Fingerprint(snapshot.base) != header.fingerprint) {
    return Status::InvalidArgument("snapshot checksum mismatch: " + path);
  }

  if (header.version == kSnapshotVersionLive) {
    uint64_t journal_count = 0, journal_points = 0, journal_fp = 0;
    if (!GetScalar(in, &journal_count) || !GetScalar(in, &journal_points) ||
        !GetScalar(in, &journal_fp)) {
      return Status::IoError("truncated snapshot journal header: " + path);
    }
    const uint64_t journal_remaining =
        static_cast<uint64_t>(file_end - in.tellg());
    // Reject the raw counts against the file size *before* the byte-count
    // arithmetic (same rule as the base payload): a crafted journal_points
    // of ~2^60 would otherwise wrap journal_needed past the check and the
    // per-entry reads would attempt absurd allocations.
    const uint64_t journal_needed = journal_count * sizeof(uint32_t) +
                                    journal_points * sizeof(Point);
    if (journal_count > journal_remaining ||
        journal_points > journal_remaining ||
        journal_needed > journal_remaining) {
      return Status::IoError("snapshot journal shorter than its header "
                             "declares: " + path);
    }
    snapshot.journal.reserve(journal_count);
    uint64_t seen_points = 0;
    uint64_t fp =
        CombineHash(kJournalSeed, journal_count);
    for (uint64_t i = 0; i < journal_count; ++i) {
      uint32_t length = 0;
      if (!GetScalar(in, &length)) {
        return Status::IoError("truncated snapshot journal entry: " + path);
      }
      seen_points += length;
      if (seen_points > journal_points) {
        return Status::InvalidArgument(
            "snapshot journal disagrees with its point count: " + path);
      }
      std::vector<Point> points(length);
      if (!GetBytes(in, points.data(), points.size() * sizeof(Point))) {
        return Status::IoError("truncated snapshot journal entry: " + path);
      }
      fp = CombineHash(fp, Fingerprint(TrajectoryView(points)));
      snapshot.journal.emplace_back(std::move(points));
    }
    if (seen_points != journal_points) {
      return Status::InvalidArgument(
          "snapshot journal disagrees with its point count: " + path);
    }
    if (fp != journal_fp) {
      return Status::InvalidArgument("snapshot journal checksum mismatch: " +
                                     path);
    }
  }
  return snapshot;
}

Result<Dataset> ReadSnapshot(const std::string& path) {
  Result<LiveSnapshot> loaded = ReadLiveSnapshot(path);
  if (!loaded.ok()) return loaded.status();
  LiveSnapshot snapshot = loaded.MoveValue();
  if (snapshot.journal.empty()) return std::move(snapshot.base);
  // Flatten the journal in append order — the live corpus's id assignment —
  // reserving exactly from the already-validated journal shape so the
  // merged dataset is never over-allocated either.
  Dataset flat = std::move(snapshot.base);
  flat.Reserve(snapshot.journal.size());
  size_t journal_points = 0;
  for (const Trajectory& t : snapshot.journal) {
    journal_points += static_cast<size_t>(t.size());
  }
  flat.ReservePoints(journal_points);
  for (const Trajectory& t : snapshot.journal) flat.Add(t);
  return flat;
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  SnapshotHeader header;
  const Status header_status = ReadHeader(in, path, &header);
  if (!header_status.ok()) return header_status;

  if (header.version == kSnapshotVersionMapped) {
    return ProbeSnapshotV4(path);
  }

  // Same sanity rule as the full loader: no allocation or seek sized from
  // the file until the declared counts fit the bytes the file actually has
  // (a corrupt name_length must not provoke a multi-GiB string resize).
  const std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const uint64_t remaining_bytes =
      static_cast<uint64_t>(in.tellg() - payload_start);
  in.seekg(payload_start);
  TRAJ_RETURN_NOT_OK(CheckBasePayloadFits(header, remaining_bytes, path));

  SnapshotInfo info;
  info.version = header.version;
  info.base_trajectories = header.trajectory_count;
  info.base_points = header.point_count;
  info.name.resize(header.name_length);
  if (!GetBytes(in, info.name.data(), info.name.size())) {
    return Status::IoError("truncated snapshot name: " + path);
  }
  if (header.version == kSnapshotVersionLive) {
    // Skip the base payload (validated above); the journal header follows.
    in.seekg(static_cast<std::streamoff>(IndexBytes(header) +
                                         header.point_count * sizeof(Point)),
             std::ios::cur);
    uint64_t journal_fp = 0;
    if (!GetScalar(in, &info.journal_trajectories) ||
        !GetScalar(in, &info.journal_points) ||
        !GetScalar(in, &journal_fp)) {
      return Status::IoError("truncated snapshot journal header: " + path);
    }
  }
  return info;
}

bool IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char magic[sizeof(kMagic)] = {};
  if (!GetBytes(in, magic, sizeof(magic))) return false;
  return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Result<Dataset> LoadDataset(const std::string& path,
                            const std::string& dataset_name) {
  if (IsSnapshotFile(path)) return ReadSnapshot(path);
  return ReadTrajectoryCsv(path, dataset_name);
}

}  // namespace trajsearch
