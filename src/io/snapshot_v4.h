#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/dataset.h"
#include "io/column_codec.h"
#include "io/mapped_file.h"
#include "io/snapshot.h"
#include "obs/registry.h"
#include "prune/grid_index.h"
#include "util/status.h"

namespace trajsearch {

/// Snapshot v4: the page-aligned, zero-copy serving format.
///
/// A v4 file starts with the 32-byte header + name described in
/// io/snapshot.h (version 4; counts and fingerprint describe the corpus),
/// followed by a section table and page-aligned sections:
///
///   section_count  uint32
///   flags          uint32   bit 0: compressed column tier
///   sections       section_count x { uint32 type; uint32 reserved;
///                                    uint64 offset; uint64 length }
///   ...zero padding to the page size...
///   sections' payloads, each starting on a page boundary
///
/// Section offsets are absolute file offsets. An *uncompressed* file carries
/// the corpus in exactly the in-memory layout — offsets table and AoS point
/// pool — so MmapSnapshot::Open serves it with zero copies:
/// Dataset::FromMapped borrows the mapped sections directly. A *compressed*
/// file replaces the pool with one encoded column section (see
/// column_codec.h) that Open decodes into an exactly-sized heap pool, which
/// the opened dataset then borrows the same way.
/// Either kind may carry a prebuilt CSR grid-index section, served borrowed
/// through GridIndex::FromParts. Its 40-byte header (cell size, corpus
/// size, a flags word, three array counts) precedes the five CSR arrays;
/// with grid flag bit 0 (kV4GridFlagBounds) the section ends with the
/// corpus bounding box — min x, min y, max x, max y as Dataset::Bounds() of
/// the reconstructed corpus — which Open hands to the dataset, so pinning
/// the GBP cell reads no point payload. Files whose grid flags are 0 (the
/// word was reserved) open the same and scan for the box. Readers skip
/// section types they do not use, which is how files that still carry the
/// retired x/y shadow columns (types 3 and 4) open.
enum : uint32_t {
  kV4SectionOffsets = 1,     ///< (traj_count + 1) x uint64 pool offsets
  kV4SectionPool = 2,        ///< point_count x Point, the AoS pool verbatim
  kV4SectionXs = 3,          ///< retired x shadow column; never reused
  kV4SectionYs = 4,          ///< retired y shadow column; never reused
  kV4SectionGrid = 5,        ///< prebuilt CSR grid index (see writer)
  kV4SectionCompressed = 6,  ///< encoded column tier (see column_codec.h)
};

/// Page size every v4 section boundary is aligned to. Fixed at write time
/// (not sysconf) so files are valid across systems; 4096 divides every
/// larger page size in practice.
inline constexpr uint64_t kV4PageSize = 4096;

/// Flag bits of the v4 header's `flags` word.
inline constexpr uint32_t kV4FlagCompressed = 1u << 0;

/// Flag bits of the grid section header's `flags` word (written 0 before
/// the box was recorded; unknown bits are rejected).
inline constexpr uint32_t kV4GridFlagBounds = 1u << 0;

struct V4WriteOptions {
  /// Write the compressed column tier instead of the pool section.
  bool compress = false;
  /// Codec settings for the compressed tier (ignored otherwise).
  ColumnCodecConfig codec;
  /// Serialize a prebuilt GBP grid-index section so serving skips the
  /// index build entirely.
  bool include_grid = true;
  /// Grid cell side; 0 derives DefaultCellSize(dataset.Bounds()) — the same
  /// rule the engine uses, so the served index matches what an engine would
  /// build for the whole corpus.
  double grid_cell = 0;
};

/// Writes `dataset` as a v4 snapshot. The header fingerprint always
/// describes the corpus a reader will *reconstruct*: for the lossy
/// compressed tier that is the quantized corpus (encode/decode arithmetic
/// is bit-reproducible), so checksum verification stays meaningful on every
/// tier.
Status WriteSnapshotV4(const Dataset& dataset, const std::string& path,
                       const V4WriteOptions& options = {});

struct MmapOptions {
  /// madvise(WILLNEED) the whole mapping at open — prefetch warmup for
  /// cold-start-sensitive serving.
  bool willneed = false;
  /// Registry UpdateGauges() publishes storage.mapped_bytes /
  /// storage.resident_bytes into. Observability-only; not owned.
  obs::Registry* metrics = nullptr;
};

/// \brief A v4 snapshot served read-only straight from the page cache.
///
/// Open() maps the file and validates structure only — header, section
/// bounds and alignment, offset-table monotonicity — which faults the index
/// tables but never the point payload, so open cost is O(trajectories), not
/// O(points). Payload integrity is the explicit Verify() call's job (it
/// reads everything). dataset() is borrowed on both tiers, so copying it is
/// a few words plus a refcount: it borrows the mapping on the uncompressed
/// tier and a shared, exactly-sized decoded pool on the compressed tier.
/// Either storage lives until the last borrower — dataset copies included —
/// is gone.
class MmapSnapshot {
 public:
  /// An unopened snapshot (the Result<MmapSnapshot> placeholder); every
  /// accessor below is only meaningful on a snapshot Open returned.
  MmapSnapshot() = default;

  static Result<MmapSnapshot> Open(const std::string& path,
                                   const MmapOptions& options = {});

  /// The served corpus. Copy it into a QueryService / LiveDataset freely:
  /// a borrowed Dataset copy shares the keepalive of the mapping or of the
  /// decoded pool.
  const Dataset& dataset() const { return dataset_; }

  /// The prebuilt grid index section, or null if the file carries none.
  /// Valid while this snapshot lives; feed it to
  /// EngineOptions::prebuilt_grid. An engine that adopts it keeps a copy
  /// sharing the mapped arrays, so the snapshot may go first.
  const GridIndex* grid() const {
    return grid_.has_value() ? &grid_.value() : nullptr;
  }

  bool compressed() const { return compressed_; }
  double compressed_resolution() const { return resolution_; }
  bool compressed_residuals() const { return residuals_; }

  /// Total bytes of the underlying mapping.
  size_t mapped_bytes() const { return file_->size(); }
  /// mincore-sampled resident estimate of the mapping.
  size_t ResidentBytes() const { return file_->ResidentBytes(); }

  /// Prefetch the whole file (MADV_WILLNEED).
  Status WillNeed() const { return file_->WillNeed(); }

  /// Publishes storage.mapped_bytes / storage.resident_bytes gauges to
  /// `registry` (defaulting to the one passed at Open — e.g. a
  /// QueryService's own registry, which only exists after the snapshot is
  /// opened). No-op without a registry or with its kill switch off (the
  /// mincore probe is not free).
  void UpdateGauges(obs::Registry* registry = nullptr) const;

  /// Full-payload verification: recomputes the corpus fingerprint (faulting
  /// every page it needs) against the header's, rescans a recorded corpus
  /// box, and checks the grid's cell-key order and that every posting id
  /// lies in [0, corpus size) — the parts of the grid Open does not read.
  Status Verify() const;

 private:
  std::shared_ptr<MappedFile> file_;
  Dataset dataset_;
  std::optional<GridIndex> grid_;
  /// The corpus box the grid section recorded, if it carries one.
  std::optional<BoundingBox> bounds_;
  uint64_t fingerprint_ = 0;
  bool compressed_ = false;
  double resolution_ = 0;
  bool residuals_ = false;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace trajsearch
