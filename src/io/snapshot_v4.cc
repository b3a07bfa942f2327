#include "io/snapshot_v4.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "core/fingerprint.h"
#include "io/traj_csv.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace trajsearch {

namespace {

constexpr char kMagic[8] = {'T', 'R', 'A', 'J', 'S', 'N', 'A', 'P'};

/// Fixed prelude sizes (field-by-field serialization, never struct dumps).
constexpr uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr uint64_t kSectionEntryBytes = 4 + 4 + 8 + 8;
constexpr uint64_t kGridHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr uint64_t kCompressedHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;
/// A v4 file has at most one section of each known type.
constexpr uint32_t kMaxSections = 16;

uint64_t AlignUp(uint64_t value) {
  return (value + kV4PageSize - 1) & ~(kV4PageSize - 1);
}

struct SectionEntry {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

template <typename T>
void PutScalar(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void PutBytes(std::ofstream& out, const void* data, uint64_t length) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(length));
}

/// Zero padding from `position` up to the next page boundary; returns the
/// padded position.
uint64_t PutPad(std::ofstream& out, uint64_t position) {
  static const char zeros[kV4PageSize] = {};
  const uint64_t target = AlignUp(position);
  uint64_t remaining = target - position;
  while (remaining > 0) {
    const uint64_t chunk = std::min<uint64_t>(remaining, sizeof(zeros));
    out.write(zeros, static_cast<std::streamsize>(chunk));
    remaining -= chunk;
  }
  return target;
}

/// Cursor-advancing scalar read out of the mapped bytes; false past the end.
template <typename T>
bool LoadScalar(const std::byte* base, size_t size, size_t* cursor, T* out) {
  if (*cursor > size || size - *cursor < sizeof(T)) return false;
  std::memcpy(out, base + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

/// Typed span over a validated byte range of the mapping. Every section
/// starts on a page boundary and in-section array offsets keep descending
/// alignment, so the cast pointer is always suitably aligned.
template <typename T>
std::span<const T> SpanAt(const std::byte* base, uint64_t offset,
                          uint64_t count) {
  return {reinterpret_cast<const T*>(base + offset),
          static_cast<size_t>(count)};
}

/// Serialized grid-section shape (header fields, then the five arrays in
/// descending alignment: cell_keys i64, cell_offsets u64, slot_keys i64,
/// ids i32, slot_cells i32).
struct GridSectionShape {
  double cell_size = 0;
  int32_t dataset_size = 0;
  uint64_t cell_count = 0;
  uint64_t id_count = 0;
  uint64_t slot_count = 0;

  uint64_t ExpectedLength() const {
    return kGridHeaderBytes + cell_count * sizeof(int64_t) +
           (cell_count + 1) * sizeof(uint64_t) + slot_count * sizeof(int64_t) +
           id_count * sizeof(int32_t) + slot_count * sizeof(int32_t);
  }
};

/// Serialized compressed-section shape (header fields, then refs Point,
/// rx/ry double, qx/qy i32, modes u8 — descending alignment again).
struct CompressedSectionShape {
  uint32_t flags = 0;
  double resolution = 0;
  uint64_t trajectory_count = 0;
  uint64_t point_count = 0;
  uint64_t exception_points = 0;

  uint64_t ResidualCount() const {
    return (flags & 1u) != 0 ? point_count : exception_points;
  }
  uint64_t ExpectedLength() const {
    return kCompressedHeaderBytes + trajectory_count * sizeof(Point) +
           2 * ResidualCount() * sizeof(double) +
           2 * point_count * sizeof(int32_t) + trajectory_count;
  }
};

/// The parsed prelude of a v4 file: header fields, name and section table,
/// all bounds- and alignment-checked against the mapping size (the header
/// counts included). Shared by MmapSnapshot::Open and the probe.
struct V4Prelude {
  std::string name;
  uint64_t trajectory_count = 0;
  uint64_t point_count = 0;
  uint64_t fingerprint = 0;
  uint32_t flags = 0;
  std::vector<SectionEntry> sections;

  const SectionEntry* Find(uint32_t type) const {
    for (const SectionEntry& s : sections) {
      if (s.type == type) return &s;
    }
    return nullptr;
  }
};

Status ParsePrelude(const std::byte* base, size_t size,
                    const std::string& path, V4Prelude* out) {
  size_t cursor = 0;
  if (size < kHeaderBytes) {
    return Status::IoError("truncated snapshot header: " + path);
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a trajectory snapshot: " + path);
  }
  cursor = sizeof(kMagic);
  uint32_t version = 0, name_length = 0;
  LoadScalar(base, size, &cursor, &version);
  LoadScalar(base, size, &cursor, &name_length);
  LoadScalar(base, size, &cursor, &out->trajectory_count);
  LoadScalar(base, size, &cursor, &out->point_count);
  LoadScalar(base, size, &cursor, &out->fingerprint);
  if (version < kSnapshotVersionMapped) {
    // v1-v3 (length table, pool dump, pool dump + append journal) are
    // retired; their headers are not valid snapshots any more.
    return Status::InvalidArgument(
        "snapshot version " + std::to_string(version) +
        " is no longer readable (expected " +
        std::to_string(kSnapshotVersionMapped) + "): " + path);
  }
  if (version > kSnapshotVersionMapped) {
    return Status::Unsupported("snapshot version " + std::to_string(version) +
                               " (expected " +
                               std::to_string(kSnapshotVersionMapped) +
                               "): " + path);
  }
  if (out->trajectory_count > size || out->point_count > size) {
    // Counts must be plausible against the file before they size anything:
    // even the compressed tier stores several bytes per trajectory and per
    // point, so either count exceeding the byte size is corruption (and
    // unchecked would wrap the section-length arithmetic of the readers).
    return Status::IoError("snapshot shorter than its header declares: " +
                           path);
  }
  if (name_length > size - cursor) {
    return Status::IoError("truncated snapshot name: " + path);
  }
  out->name.assign(reinterpret_cast<const char*>(base + cursor), name_length);
  cursor += name_length;

  uint32_t section_count = 0;
  if (!LoadScalar(base, size, &cursor, &section_count) ||
      !LoadScalar(base, size, &cursor, &out->flags)) {
    return Status::IoError("truncated snapshot section table: " + path);
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument("implausible snapshot section count: " +
                                   path);
  }
  out->sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry entry;
    uint32_t reserved = 0;
    if (!LoadScalar(base, size, &cursor, &entry.type) ||
        !LoadScalar(base, size, &cursor, &reserved) ||
        !LoadScalar(base, size, &cursor, &entry.offset) ||
        !LoadScalar(base, size, &cursor, &entry.length)) {
      return Status::IoError("truncated snapshot section table: " + path);
    }
    if (entry.offset % kV4PageSize != 0) {
      return Status::InvalidArgument(
          "snapshot section is not page-aligned: " + path);
    }
    if (entry.offset > size || entry.length > size - entry.offset) {
      return Status::IoError(
          "snapshot section extends past end of file: " + path);
    }
    if (out->Find(entry.type) != nullptr) {
      return Status::InvalidArgument("duplicate snapshot section: " + path);
    }
    out->sections.push_back(entry);
  }
  // Sections must live past the prelude and must not overlap one another.
  // The per-entry bounds checks above already keep every read inside the
  // mapping; this keeps the views internally consistent — no section can
  // alias the header or a sibling section. `cursor` sits exactly at the end
  // of the prelude here, and offsets are page-aligned, so a section below
  // the first page boundary after the prelude would cover prelude bytes.
  std::vector<SectionEntry> ordered = out->sections;
  std::sort(ordered.begin(), ordered.end(),
            [](const SectionEntry& a, const SectionEntry& b) {
              return a.offset < b.offset;
            });
  uint64_t previous_end = cursor;
  for (const SectionEntry& entry : ordered) {
    if (entry.offset < previous_end) {
      return Status::InvalidArgument(
          "snapshot sections overlap the prelude or each other: " + path);
    }
    previous_end = entry.offset + entry.length;
  }
  return Status::OK();
}

/// Locates a required section and checks its exact payload length.
Result<const SectionEntry*> RequireSection(const V4Prelude& prelude,
                                           uint32_t type, uint64_t length,
                                           const std::string& path) {
  const SectionEntry* entry = prelude.Find(type);
  if (entry == nullptr) {
    return Status::InvalidArgument("snapshot section " + std::to_string(type) +
                                   " missing: " + path);
  }
  if (entry->length != length) {
    return Status::InvalidArgument("snapshot section " + std::to_string(type) +
                                   " has unexpected length: " + path);
  }
  return entry;
}

}  // namespace

Status WriteSnapshotV4(const Dataset& dataset, const std::string& path,
                       const V4WriteOptions& options) {
  // The corpus a reader reconstructs: the dataset itself, or — on the lossy
  // compressed tier — its quantized round-trip. Fingerprint and the prebuilt
  // grid both describe *that* corpus, so checksum verification passes and
  // the served grid is exactly what an engine would build at query time.
  CompressedColumns encoded;
  Dataset decoded;
  if (options.compress) {
    encoded = EncodeColumns(dataset, options.codec);
    std::vector<Point> pool;
    const Status decode_status =
        DecodeColumns(encoded.View(), dataset.offsets(), &pool);
    TRAJ_CHECK(decode_status.ok());  // the encoder's output always decodes
    std::vector<uint64_t> offsets(dataset.offsets().begin(),
                                  dataset.offsets().end());
    decoded = Dataset::FromPool(dataset.name(), std::move(pool),
                                std::move(offsets));
  }
  const Dataset& corpus = options.compress ? decoded : dataset;

  std::optional<GridIndex> grid;
  if (options.include_grid && !corpus.empty()) {
    double cell = options.grid_cell;
    if (cell <= 0) cell = DefaultCellSize(corpus.Bounds());
    grid.emplace(DatasetView(corpus), cell);
  }

  // Lay the sections out: table first, then page-aligned payloads.
  std::vector<SectionEntry> sections;
  const uint64_t traj_count = static_cast<uint64_t>(corpus.size());
  const uint64_t point_count = corpus.point_count();
  sections.push_back(
      {kV4SectionOffsets, 0, (traj_count + 1) * sizeof(uint64_t)});
  if (options.compress) {
    CompressedSectionShape shape;
    shape.flags = encoded.store_residuals ? 1u : 0u;
    shape.resolution = encoded.resolution;
    shape.trajectory_count = traj_count;
    shape.point_count = point_count;
    shape.exception_points = encoded.exception_points;
    sections.push_back({kV4SectionCompressed, 0, shape.ExpectedLength()});
  } else {
    sections.push_back({kV4SectionPool, 0, point_count * sizeof(Point)});
  }
  if (grid.has_value()) {
    GridSectionShape shape;
    shape.cell_count = grid->cell_count();
    shape.id_count = grid->posting_ids().size();
    shape.slot_count = grid->slot_keys().size();
    sections.push_back({kV4SectionGrid, 0, shape.ExpectedLength()});
  }
  const uint64_t prelude_bytes = kHeaderBytes + corpus.name().size() + 4 + 4 +
                                 sections.size() * kSectionEntryBytes;
  uint64_t position = AlignUp(prelude_bytes);
  for (SectionEntry& section : sections) {
    section.offset = position;
    position = AlignUp(position + section.length);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  PutScalar(out, kSnapshotVersionMapped);
  PutScalar(out, static_cast<uint32_t>(corpus.name().size()));
  PutScalar(out, traj_count);
  PutScalar(out, point_count);
  PutScalar(out, Fingerprint(corpus));
  PutBytes(out, corpus.name().data(), corpus.name().size());
  PutScalar(out, static_cast<uint32_t>(sections.size()));
  PutScalar(out, options.compress ? kV4FlagCompressed : 0u);
  for (const SectionEntry& section : sections) {
    PutScalar(out, section.type);
    PutScalar(out, uint32_t{0});
    PutScalar(out, section.offset);
    PutScalar(out, section.length);
  }
  uint64_t written = PutPad(out, prelude_bytes);

  for (const SectionEntry& section : sections) {
    TRAJ_CHECK(written == section.offset);
    switch (section.type) {
      case kV4SectionOffsets:
        PutBytes(out, corpus.offsets().data(),
                 corpus.offsets().size() * sizeof(uint64_t));
        break;
      case kV4SectionPool:
        static_assert(sizeof(Point) == 2 * sizeof(double));
        PutBytes(out, corpus.pool().data(),
                 corpus.pool().size() * sizeof(Point));
        break;
      case kV4SectionGrid: {
        PutScalar(out, grid->cell_size());
        PutScalar(out, static_cast<int32_t>(grid->dataset_size()));
        PutScalar(out, uint32_t{0});
        PutScalar(out, static_cast<uint64_t>(grid->cell_count()));
        PutScalar(out, static_cast<uint64_t>(grid->posting_ids().size()));
        PutScalar(out, static_cast<uint64_t>(grid->slot_keys().size()));
        PutBytes(out, grid->cell_keys().data(),
                 grid->cell_keys().size_bytes());
        PutBytes(out, grid->cell_offsets().data(),
                 grid->cell_offsets().size_bytes());
        PutBytes(out, grid->slot_keys().data(),
                 grid->slot_keys().size_bytes());
        PutBytes(out, grid->posting_ids().data(),
                 grid->posting_ids().size_bytes());
        PutBytes(out, grid->slot_cells().data(),
                 grid->slot_cells().size_bytes());
        break;
      }
      case kV4SectionCompressed: {
        PutScalar(out, encoded.store_residuals ? uint32_t{1} : uint32_t{0});
        PutScalar(out, uint32_t{0});
        PutScalar(out, encoded.resolution);
        PutScalar(out, traj_count);
        PutScalar(out, point_count);
        PutScalar(out, encoded.exception_points);
        PutBytes(out, encoded.refs.data(),
                 encoded.refs.size() * sizeof(Point));
        PutBytes(out, encoded.rx.data(), encoded.rx.size() * sizeof(double));
        PutBytes(out, encoded.ry.data(), encoded.ry.size() * sizeof(double));
        PutBytes(out, encoded.qx.data(), encoded.qx.size() * sizeof(int32_t));
        PutBytes(out, encoded.qy.data(), encoded.qy.size() * sizeof(int32_t));
        PutBytes(out, encoded.modes.data(), encoded.modes.size());
        break;
      }
      default:
        TRAJ_CHECK(false);
    }
    written = PutPad(out, section.offset + section.length);
  }
  out.flush();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<MmapSnapshot> MmapSnapshot::Open(const std::string& path,
                                        const MmapOptions& options) {
  Result<std::shared_ptr<MappedFile>> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<MappedFile> file = mapped.MoveValue();
  const std::byte* base = file->data();
  const size_t size = file->size();

  V4Prelude prelude;
  TRAJ_RETURN_NOT_OK(ParsePrelude(base, size, path, &prelude));
  const uint64_t traj_count = prelude.trajectory_count;
  const uint64_t point_count = prelude.point_count;

  MmapSnapshot snapshot;
  snapshot.file_ = file;
  snapshot.fingerprint_ = prelude.fingerprint;
  snapshot.metrics_ = options.metrics;
  snapshot.compressed_ = (prelude.flags & kV4FlagCompressed) != 0;

  // Offsets table: the one index structure Open fully validates (O(T), and
  // the only pages this faults besides the section table).
  Result<const SectionEntry*> offsets_entry = RequireSection(
      prelude, kV4SectionOffsets, (traj_count + 1) * sizeof(uint64_t), path);
  if (!offsets_entry.ok()) return offsets_entry.status();
  const std::span<const uint64_t> offsets =
      SpanAt<uint64_t>(base, offsets_entry.value()->offset, traj_count + 1);
  if (offsets.front() != 0 || offsets.back() != point_count ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::InvalidArgument(
        "snapshot offset table is not a valid pool layout: " + path);
  }

  if (snapshot.compressed_) {
    const SectionEntry* entry = prelude.Find(kV4SectionCompressed);
    if (entry == nullptr) {
      return Status::InvalidArgument(
          "compressed snapshot lacks its column section: " + path);
    }
    if (entry->length < kCompressedHeaderBytes) {
      return Status::IoError("truncated compressed column section: " + path);
    }
    CompressedSectionShape shape;
    size_t cursor = static_cast<size_t>(entry->offset);
    uint32_t pad = 0;
    LoadScalar(base, size, &cursor, &shape.flags);
    LoadScalar(base, size, &cursor, &pad);
    LoadScalar(base, size, &cursor, &shape.resolution);
    LoadScalar(base, size, &cursor, &shape.trajectory_count);
    LoadScalar(base, size, &cursor, &shape.point_count);
    LoadScalar(base, size, &cursor, &shape.exception_points);
    if (shape.trajectory_count != traj_count ||
        shape.point_count != point_count ||
        shape.exception_points > point_count ||
        shape.ExpectedLength() != entry->length) {
      return Status::InvalidArgument(
          "compressed column section disagrees with the header: " + path);
    }
    snapshot.residuals_ = (shape.flags & 1u) != 0;
    snapshot.resolution_ = shape.resolution;

    CompressedColumnsView view;
    view.resolution = shape.resolution;
    view.store_residuals = snapshot.residuals_;
    uint64_t at = entry->offset + kCompressedHeaderBytes;
    view.refs = SpanAt<Point>(base, at, traj_count);
    at += traj_count * sizeof(Point);
    const uint64_t residual_count = shape.ResidualCount();
    view.rx = SpanAt<double>(base, at, residual_count);
    at += residual_count * sizeof(double);
    view.ry = SpanAt<double>(base, at, residual_count);
    at += residual_count * sizeof(double);
    view.qx = SpanAt<int32_t>(base, at, point_count);
    at += point_count * sizeof(int32_t);
    view.qy = SpanAt<int32_t>(base, at, point_count);
    at += point_count * sizeof(int32_t);
    view.modes = SpanAt<uint8_t>(base, at, traj_count);

    // Decode into exactly-sized heap columns; the offsets table is copied
    // (it is (T+1) words) so the decoded dataset owns all its storage and
    // releases the mapping-independent corpus to callers like compaction.
    std::vector<Point> pool;
    TRAJ_RETURN_NOT_OK(DecodeColumns(view, offsets, &pool));
    std::vector<uint64_t> owned_offsets(offsets.begin(), offsets.end());
    snapshot.dataset_ = Dataset::FromPool(std::move(prelude.name),
                                          std::move(pool),
                                          std::move(owned_offsets));
  } else {
    // Files written before the shadow columns were retired also carry x/y
    // column sections (types 3 and 4); like any section this reader does
    // not use, they are skipped and never faulted.
    Result<const SectionEntry*> pool_entry = RequireSection(
        prelude, kV4SectionPool, point_count * sizeof(Point), path);
    if (!pool_entry.ok()) return pool_entry.status();
    snapshot.dataset_ = Dataset::FromMapped(
        std::move(prelude.name),
        SpanAt<Point>(base, pool_entry.value()->offset, point_count), offsets,
        file);
  }

  if (const SectionEntry* entry = prelude.Find(kV4SectionGrid)) {
    if (entry->length < kGridHeaderBytes) {
      return Status::IoError("truncated grid index section: " + path);
    }
    GridSectionShape shape;
    size_t cursor = static_cast<size_t>(entry->offset);
    uint32_t pad = 0;
    LoadScalar(base, size, &cursor, &shape.cell_size);
    LoadScalar(base, size, &cursor, &shape.dataset_size);
    LoadScalar(base, size, &cursor, &pad);
    LoadScalar(base, size, &cursor, &shape.cell_count);
    LoadScalar(base, size, &cursor, &shape.id_count);
    LoadScalar(base, size, &cursor, &shape.slot_count);
    if (shape.cell_count > size || shape.id_count > size ||
        shape.slot_count > size) {
      // Same plausibility bound the prelude counts get: every grid array
      // stores at least 4 bytes per entry, so any count beyond the file size
      // is corruption — and unchecked it could wrap the ExpectedLength
      // arithmetic below (e.g. cell_count + 2^61 multiplies back to the
      // genuine length mod 2^64) and size spans far past the mapping.
      return Status::IoError("grid index section counts exceed file size: " +
                             path);
    }
    if (shape.dataset_size < 0 ||
        static_cast<uint64_t>(shape.dataset_size) != traj_count ||
        shape.ExpectedLength() != entry->length) {
      return Status::InvalidArgument(
          "grid index section disagrees with the header: " + path);
    }
    uint64_t at = entry->offset + kGridHeaderBytes;
    const std::span<const int64_t> cell_keys =
        SpanAt<int64_t>(base, at, shape.cell_count);
    at += shape.cell_count * sizeof(int64_t);
    const std::span<const uint64_t> cell_offsets =
        SpanAt<uint64_t>(base, at, shape.cell_count + 1);
    at += (shape.cell_count + 1) * sizeof(uint64_t);
    const std::span<const int64_t> slot_keys =
        SpanAt<int64_t>(base, at, shape.slot_count);
    at += shape.slot_count * sizeof(int64_t);
    const std::span<const int32_t> ids =
        SpanAt<int32_t>(base, at, shape.id_count);
    at += shape.id_count * sizeof(int32_t);
    const std::span<const int32_t> slot_cells =
        SpanAt<int32_t>(base, at, shape.slot_count);
    Result<GridIndex> grid = GridIndex::FromParts(
        shape.cell_size, shape.dataset_size, cell_keys, cell_offsets, ids,
        slot_keys, slot_cells, file);
    if (!grid.ok()) {
      return Status::InvalidArgument("grid index section rejected (" +
                                     grid.status().message() + "): " + path);
    }
    snapshot.grid_.emplace(grid.MoveValue());
  }

  if (options.willneed) {
    // Best-effort prefetch; a failed advisory hint must not fail the open.
    static_cast<void>(snapshot.file_->WillNeed());
  }
  return snapshot;
}

void MmapSnapshot::UpdateGauges(obs::Registry* registry) const {
  obs::Registry* target = registry != nullptr ? registry : metrics_;
  if (target == nullptr || !target->enabled() || file_ == nullptr) return;
  target->gauge("storage.mapped_bytes")
      ->Set(static_cast<int64_t>(mapped_bytes()));
  target->gauge("storage.resident_bytes")
      ->Set(static_cast<int64_t>(file_->ResidentBytes()));
}

Status MmapSnapshot::Verify() const {
  if (Fingerprint(dataset_) != fingerprint_) {
    return Status::InvalidArgument("snapshot checksum mismatch");
  }
  if (grid_.has_value()) {
    // Open validates everything memory-safety-relevant (CSR bounds, slot
    // targets); the deep pass adds the pure integrity invariant that the
    // builder always emits sorted cell keys.
    const std::span<const int64_t> keys = grid_->cell_keys();
    if (!std::is_sorted(keys.begin(), keys.end())) {
      return Status::InvalidArgument("snapshot grid cell keys not sorted");
    }
  }
  return Status::OK();
}

Result<Dataset> ReadSnapshot(const std::string& path) {
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  if (!opened.ok()) return opened.status();
  MmapSnapshot snapshot = opened.MoveValue();
  TRAJ_RETURN_NOT_OK(snapshot.Verify());
  const Dataset& served = snapshot.dataset();
  if (!served.borrowed()) {
    // Compressed tier: Open already decoded into owned storage.
    return served;
  }
  // Deep-copy the mapped corpus into owned, exactly-sized vectors so the
  // returned dataset outlives the mapping.
  std::vector<Point> pool(served.pool().begin(), served.pool().end());
  std::vector<uint64_t> offsets(served.offsets().begin(),
                                served.offsets().end());
  return Dataset::FromPool(served.name(), std::move(pool),
                           std::move(offsets));
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  // The probe maps the file like Open does (mapping is cheaper than seeking
  // a stream around the section table) but touches only the prelude and, if
  // present, the compressed section's header fields — never a payload.
  Result<std::shared_ptr<MappedFile>> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<MappedFile> file = mapped.MoveValue();
  V4Prelude prelude;
  TRAJ_RETURN_NOT_OK(ParsePrelude(file->data(), file->size(), path, &prelude));

  SnapshotInfo info;
  info.version = kSnapshotVersionMapped;
  info.name = prelude.name;
  info.base_trajectories = prelude.trajectory_count;
  info.base_points = prelude.point_count;
  info.page_aligned = true;  // ParsePrelude rejects misaligned sections
  info.compressed = (prelude.flags & kV4FlagCompressed) != 0;
  info.bytes_per_trajectory =
      prelude.trajectory_count == 0
          ? 0
          : static_cast<double>(file->size()) /
                static_cast<double>(prelude.trajectory_count);
  info.sections.reserve(prelude.sections.size());
  for (const SectionEntry& section : prelude.sections) {
    info.sections.push_back({section.type, section.offset, section.length});
  }
  if (const SectionEntry* entry = prelude.Find(kV4SectionCompressed)) {
    if (entry->length < kCompressedHeaderBytes) {
      return Status::IoError("truncated compressed column section: " + path);
    }
    size_t cursor = static_cast<size_t>(entry->offset);
    uint32_t flags = 0, pad = 0;
    double resolution = 0;
    LoadScalar(file->data(), file->size(), &cursor, &flags);
    LoadScalar(file->data(), file->size(), &cursor, &pad);
    LoadScalar(file->data(), file->size(), &cursor, &resolution);
    info.compressed_residuals = (flags & 1u) != 0;
    info.compressed_resolution = resolution;
  }
  return info;
}

bool IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Result<Dataset> LoadDataset(const std::string& path,
                            const std::string& dataset_name) {
  if (IsSnapshotFile(path)) return ReadSnapshot(path);
  return ReadTrajectoryCsv(path, dataset_name);
}

}  // namespace trajsearch
