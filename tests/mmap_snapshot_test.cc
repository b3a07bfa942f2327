// Snapshot v4 and zero-copy serving tests: page-aligned section layout
// round-trips, the compressed column codec (lossy bounds, residual
// bit-exactness, verbatim fallback on adversarial coordinates), structural
// rejection of corrupted/truncated/misaligned files, borrowed-storage
// lifetime (the mapping outlives the MmapSnapshot through dataset-copy
// keepalives), prebuilt-grid adoption, and the hit-for-hit equivalence
// gate: a service over an mmap-served or compressed-residual corpus answers
// exactly like a heap-loaded one across the full algorithm x distance
// matrix, with threads > 1 and shards > 1, through live appends and a
// forced compaction on the mapped base.

#include "io/snapshot_v4.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "gen/taxi.h"
#include "io/column_codec.h"
#include "io/snapshot.h"
#include "prune/grid_index.h"
#include "search/engine.h"
#include "service/query_service.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace trajsearch {
namespace {

using testing::RandomWalk;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Inverts the byte at `offset` (guaranteed to change it).
void Corrupt(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(offset);
  const int byte = f.get();
  ASSERT_NE(byte, EOF);
  f.seekp(offset);
  f.put(static_cast<char>(~byte));
}

/// Reads a little-endian scalar straight out of the file.
template <typename T>
T ReadScalarAt(const std::string& path, std::streamoff offset) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(offset);
  T value{};
  f.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

/// Overwrites a scalar in place — corruption with a chosen value, where
/// Corrupt's bit-flip is not adversarial enough.
template <typename T>
void WriteScalarAt(const std::string& path, std::streamoff offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void Truncate(const std::string& path, std::streamoff size) {
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_LT(static_cast<size_t>(size), content.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), size);
}

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<size_t>(in.tellg());
}

void ExpectSameCorpus(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a[id].size(), b[id].size()) << "trajectory " << id;
    for (int i = 0; i < a[id].size(); ++i) {
      EXPECT_EQ(a[id][i], b[id][i]) << "trajectory " << id << " point " << i;
    }
  }
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
}

void ExpectSameHits(const std::vector<EngineHit>& a,
                    const std::vector<EngineHit>& b,
                    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trajectory_id, b[i].trajectory_id)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.distance, b[i].result.distance)
        << context << " rank " << i;
    EXPECT_EQ(a[i].result.range, b[i].result.range)
        << context << " rank " << i;
  }
}

/// Finds a section's table entry through the probe (no layout math).
const SnapshotSectionInfo* FindSection(const SnapshotInfo& info,
                                       uint32_t type) {
  for (const SnapshotSectionInfo& s : info.sections) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(SnapshotV4Test, UncompressedRoundTripIsExactAndZeroCopy) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(40));
  const std::string path = TempPath("v4_roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());

  // Heap path: ReadSnapshot dispatches on the version byte.
  const Result<Dataset> heap = ReadSnapshot(path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_FALSE(heap.value().borrowed());
  ExpectSameCorpus(heap.value(), original);
  EXPECT_EQ(heap.value().name(), original.name());

  // Mapped path: the served dataset borrows the file's pages directly.
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MmapSnapshot& snap = opened.value();
  EXPECT_FALSE(snap.compressed());
  EXPECT_TRUE(snap.dataset().borrowed());
  ExpectSameCorpus(snap.dataset(), original);
  EXPECT_TRUE(snap.Verify().ok());
  EXPECT_EQ(snap.mapped_bytes(), FileSize(path));

  // Zero copies: the pool pointer lands inside the mapping, on a page
  // boundary.
  const DatasetStats stats = snap.dataset().Stats();
  EXPECT_TRUE(stats.borrowed);
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);

  // The prebuilt grid arrives borrowed and matches a freshly-built index.
  const GridIndex* grid = snap.grid();
  ASSERT_NE(grid, nullptr);
  EXPECT_TRUE(grid->borrowed());
  const GridIndex fresh(snap.dataset(),
                        DefaultCellSize(snap.dataset().Bounds()));
  EXPECT_EQ(grid->cell_size(), fresh.cell_size());
  EXPECT_EQ(grid->dataset_size(), fresh.dataset_size());
  EXPECT_EQ(grid->stats().cell_count, fresh.stats().cell_count);
  EXPECT_EQ(grid->stats().entry_count, fresh.stats().entry_count);
  std::remove(path.c_str());
}

TEST(SnapshotV4Test, CompressedResidualTierIsBitExact) {
  const Dataset original = GenerateTaxiDataset(XianProfile(30));
  const std::string path = TempPath("v4_residual.snap");
  V4WriteOptions options;
  options.compress = true;
  options.codec.store_residuals = true;
  ASSERT_TRUE(WriteSnapshotV4(original, path, options).ok());

  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MmapSnapshot& snap = opened.value();
  EXPECT_TRUE(snap.compressed());
  EXPECT_TRUE(snap.compressed_residuals());
  // The decoded pool is served borrowed, like the mapped tier: a copy of
  // the opened dataset shares it instead of duplicating the corpus.
  EXPECT_TRUE(snap.dataset().borrowed());
  const Dataset copy = snap.dataset();
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(copy.pool().data(), snap.dataset().pool().data());
  EXPECT_EQ(copy.offsets().data(), snap.dataset().offsets().data());
  ExpectSameCorpus(snap.dataset(), original);
  EXPECT_TRUE(snap.Verify().ok());
  std::remove(path.c_str());
}

TEST(SnapshotV4Test, LossyTierIsWithinResolutionAndSelfConsistent) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(30));
  const std::string path = TempPath("v4_lossy.snap");
  V4WriteOptions options;
  options.compress = true;
  options.codec.resolution = 1e-7;
  ASSERT_TRUE(WriteSnapshotV4(original, path, options).ok());

  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Dataset& served = opened.value().dataset();
  ASSERT_EQ(served.size(), original.size());
  for (int id = 0; id < original.size(); ++id) {
    ASSERT_EQ(served[id].size(), original[id].size());
    for (int i = 0; i < original[id].size(); ++i) {
      // Round-to-nearest quantization: at most half a step off, plus the
      // rounding slack of the reconstruction arithmetic itself.
      EXPECT_NEAR(served[id][i].x, original[id][i].x, 1e-7);
      EXPECT_NEAR(served[id][i].y, original[id][i].y, 1e-7);
    }
  }
  // The header fingerprint describes the *reconstructed* corpus, so the
  // checksum is meaningful on the lossy tier too.
  EXPECT_TRUE(opened.value().Verify().ok());
  // A heap load reconstructs the identical quantized corpus.
  const Result<Dataset> heap = ReadSnapshot(path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ExpectSameCorpus(heap.value(), served);
  std::remove(path.c_str());
}

TEST(SnapshotV4Test, CompressedTierNearlyHalvesTheFile) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(200));
  const std::string pooled = TempPath("v4_size_pooled.snap");
  const std::string packed = TempPath("v4_size_packed.snap");
  V4WriteOptions plain;
  plain.include_grid = false;  // compare payload tiers, not the shared index
  ASSERT_TRUE(WriteSnapshotV4(original, pooled, plain).ok());
  V4WriteOptions compressed = plain;
  compressed.compress = true;
  ASSERT_TRUE(WriteSnapshotV4(original, packed, compressed).ok());
  // 8 bytes/point of quantized deltas, plus 17 bytes per trajectory for its
  // reference point and mode, vs the pool's 16 bytes/point (the only copy
  // of every point): a little over half the file at Porto lengths.
  EXPECT_LT(FileSize(packed), FileSize(pooled) * 3 / 5);
  std::remove(pooled.c_str());
  std::remove(packed.c_str());
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

TEST(SnapshotV4Test, ProbeReportsLayoutWithoutLoading) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(25));
  const std::string path = TempPath("v4_probe.snap");
  V4WriteOptions options;
  options.compress = true;
  options.codec.resolution = 5e-7;
  options.codec.store_residuals = true;
  ASSERT_TRUE(WriteSnapshotV4(original, path, options).ok());

  const Result<SnapshotInfo> probe = ProbeSnapshot(path);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const SnapshotInfo& info = probe.value();
  EXPECT_EQ(info.version, kSnapshotVersionMapped);
  EXPECT_EQ(info.base_trajectories, static_cast<uint64_t>(original.size()));
  EXPECT_TRUE(info.page_aligned);
  EXPECT_TRUE(info.compressed);
  EXPECT_EQ(info.compressed_resolution, 5e-7);
  EXPECT_TRUE(info.compressed_residuals);
  EXPECT_EQ(info.bytes_per_trajectory,
            static_cast<double>(FileSize(path)) / original.size());
  ASSERT_FALSE(info.sections.empty());
  EXPECT_NE(FindSection(info, kV4SectionOffsets), nullptr);
  EXPECT_NE(FindSection(info, kV4SectionCompressed), nullptr);
  EXPECT_NE(FindSection(info, kV4SectionGrid), nullptr);
  EXPECT_EQ(FindSection(info, kV4SectionPool), nullptr);
  for (const SnapshotSectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % kV4PageSize, 0u) << "section " << s.type;
    EXPECT_LE(s.offset + s.length, FileSize(path)) << "section " << s.type;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Rejection of damaged files
// ---------------------------------------------------------------------------

class SnapshotV4RejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = GenerateTaxiDataset(PortoProfile(20));
    path_ = TempPath("v4_reject.snap");
    ASSERT_TRUE(WriteSnapshotV4(corpus_, path_).ok());
    const Result<SnapshotInfo> probe = ProbeSnapshot(path_);
    ASSERT_TRUE(probe.ok());
    info_ = probe.value();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// The absolute file offset of a section-table entry's `offset` field.
  /// Layout: magic(8) + header(32) + name + {count,flags}(8) + entries of
  /// {type,reserved}(8) + offset(8) + length(8).
  std::streamoff TableOffsetField(size_t entry) const {
    return static_cast<std::streamoff>(40 + corpus_.name().size() + 8 +
                                       entry * 24 + 8);
  }

  Dataset corpus_;
  std::string path_;
  SnapshotInfo info_;
};

TEST_F(SnapshotV4RejectionTest, BadMagic) {
  Corrupt(path_, 0);
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
  EXPECT_FALSE(ReadSnapshot(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, TruncatedHeader) {
  Truncate(path_, 20);
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, TruncatedSectionTable) {
  Truncate(path_, TableOffsetField(1));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, TruncatedPayload) {
  // Cut into the last section's *payload* (the file ends with alignment
  // padding, which a shorter cut would merely trim): its table entry now
  // points past the end.
  uint64_t payload_end = 0;
  for (const SnapshotSectionInfo& s : info_.sections) {
    payload_end = std::max(payload_end, s.offset + s.length);
  }
  Truncate(path_, static_cast<std::streamoff>(payload_end - 64));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
  EXPECT_FALSE(ReadSnapshot(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, MisalignedSectionOffset) {
  // Page-aligned offsets have a zero low byte; flipping it breaks the
  // alignment contract without leaving the file.
  Corrupt(path_, TableOffsetField(0));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, SectionOffsetOutOfRange) {
  // Flip a high byte of the offset: far past the end of the file.
  Corrupt(path_, TableOffsetField(0) + 6);
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, CorruptOffsetsTable) {
  // offsets[0] must be 0; any flip breaks the monotonic table.
  const SnapshotSectionInfo* offsets = FindSection(info_, kV4SectionOffsets);
  ASSERT_NE(offsets, nullptr);
  Corrupt(path_, static_cast<std::streamoff>(offsets->offset));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, CorruptGridHeader) {
  // The grid section's cell_count (header offset 16) drives its expected
  // length; a flip makes table length and payload shape disagree.
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  Corrupt(path_, static_cast<std::streamoff>(grid->offset + 16));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, WrappedGridCountsRejected) {
  // Adding 2^61 to cell_count multiplies back to the *same* section length
  // mod 2^64 (both cell arrays are 8-byte strides, so the wrap contributes
  // two full 2^64 turns), so the length equation alone cannot catch it —
  // only the plausibility bound against the file size does. Unrejected, the
  // spans would cover ~2^61 elements and the open would read far past the
  // mapping.
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  const auto field = static_cast<std::streamoff>(grid->offset + 16);
  const auto cell_count = ReadScalarAt<uint64_t>(path_, field);
  WriteScalarAt<uint64_t>(path_, field, cell_count + (uint64_t{1} << 61));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, FullGridSlotTableRejected) {
  // A slot table with no empty slot would make CellPostings' open-addressing
  // probe spin forever on the first absent key; FromParts must reject it at
  // open time. Fill every empty slot with a valid cell target (0), which
  // passes the per-slot range check and fails only the termination one.
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  const auto base = static_cast<std::streamoff>(grid->offset);
  const auto cell_count = ReadScalarAt<uint64_t>(path_, base + 16);
  const auto id_count = ReadScalarAt<uint64_t>(path_, base + 24);
  const auto slot_count = ReadScalarAt<uint64_t>(path_, base + 32);
  ASSERT_GT(cell_count, 0u);
  const uint64_t slot_cells = grid->offset + 40 + cell_count * 8 +
                              (cell_count + 1) * 8 + slot_count * 8 +
                              id_count * 4;
  for (uint64_t i = 0; i < slot_count; ++i) {
    const auto at = static_cast<std::streamoff>(slot_cells + i * 4);
    if (ReadScalarAt<int32_t>(path_, at) == -1) {
      WriteScalarAt<int32_t>(path_, at, 0);
    }
  }
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, OverlappingSectionsRejected) {
  // Repoint the second section at the first one's offset: still page-aligned
  // and in-bounds, so only the no-overlap invariant is violated.
  ASSERT_GE(info_.sections.size(), 2u);
  WriteScalarAt<uint64_t>(path_, TableOffsetField(1),
                          info_.sections[0].offset);
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, SectionAliasingPreludeRejected) {
  // Offset 0 is page-aligned and in-bounds but covers the header itself.
  WriteScalarAt<uint64_t>(path_, TableOffsetField(0), uint64_t{0});
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, UnsortedGridKeysFailVerify) {
  // Cell-key order is not a memory-safety invariant (lookups hash-probe the
  // slot table), so Open adopts the grid without scanning the keys — the
  // deep Verify pass is what rejects the broken ordering.
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  // keys[1] starts after the 40-byte grid header + one key; inverting its
  // high (sign) byte drives it negative, below the non-negative keys[0].
  Corrupt(path_, static_cast<std::streamoff>(grid->offset + 40 + 8 + 7));
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().Verify().ok());
}

TEST_F(SnapshotV4RejectionTest, PayloadBitFlipFailsVerify) {
  // Structural checks never read the pool, so Open succeeds — the explicit
  // checksum pass is what catches payload damage.
  const SnapshotSectionInfo* pool = FindSection(info_, kV4SectionPool);
  ASSERT_NE(pool, nullptr);
  Corrupt(path_, static_cast<std::streamoff>(pool->offset + 17));
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().Verify().ok());
  // The heap read path always verifies.
  EXPECT_FALSE(ReadSnapshot(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, CorruptCompressedHeader) {
  V4WriteOptions options;
  options.compress = true;
  ASSERT_TRUE(WriteSnapshotV4(corpus_, path_, options).ok());
  const Result<SnapshotInfo> probe = ProbeSnapshot(path_);
  ASSERT_TRUE(probe.ok());
  const SnapshotSectionInfo* packed =
      FindSection(probe.value(), kV4SectionCompressed);
  ASSERT_NE(packed, nullptr);
  // traj_count lives at header offset 16; the section length no longer
  // matches the shape it implies.
  Corrupt(path_, static_cast<std::streamoff>(packed->offset + 16));
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

// ---------------------------------------------------------------------------
// The corpus box recorded in the grid section
// ---------------------------------------------------------------------------

/// File offset of the corpus box at the end of a flagged grid section.
std::streamoff GridBoxOffset(const std::string& path,
                             const SnapshotSectionInfo& grid) {
  const auto base = static_cast<std::streamoff>(grid.offset);
  const auto cells = ReadScalarAt<uint64_t>(path, base + 16);
  const auto ids = ReadScalarAt<uint64_t>(path, base + 24);
  const auto slots = ReadScalarAt<uint64_t>(path, base + 32);
  return base + static_cast<std::streamoff>(40 + cells * 8 + (cells + 1) * 8 +
                                            slots * 8 + ids * 4 + slots * 4);
}

void ExpectSameBox(const BoundingBox& a, const BoundingBox& b,
                   const std::string& context) {
  EXPECT_EQ(a.min_x, b.min_x) << context;
  EXPECT_EQ(a.min_y, b.min_y) << context;
  EXPECT_EQ(a.max_x, b.max_x) << context;
  EXPECT_EQ(a.max_y, b.max_y) << context;
}

TEST(SnapshotBoundsTest, RecordedBoxEqualsAFreshScanOnEveryTier) {
  const Dataset corpus = GenerateTaxiDataset(PortoProfile(120));
  const std::string path = TempPath("v4_box.snap");
  for (int tier = 0; tier < 3; ++tier) {
    V4WriteOptions options;
    options.compress = tier > 0;
    options.codec.store_residuals = tier == 1;
    const std::string context = "tier " + std::to_string(tier);
    ASSERT_TRUE(WriteSnapshotV4(corpus, path, options).ok()) << context;
    const Result<SnapshotInfo> probe = ProbeSnapshot(path);
    ASSERT_TRUE(probe.ok()) << context;
    const SnapshotSectionInfo* grid =
        FindSection(probe.value(), kV4SectionGrid);
    ASSERT_NE(grid, nullptr) << context;
    EXPECT_EQ(ReadScalarAt<uint32_t>(
                  path, static_cast<std::streamoff>(grid->offset + 12)),
              kV4GridFlagBounds)
        << context;

    Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const Dataset& served = opened.value().dataset();
    // Bounds() hands back the recorded box; a view scans the pool.
    ExpectSameBox(served.Bounds(), DatasetView(served).Bounds(), context);
    const Dataset copy = served;
    ExpectSameBox(copy.Bounds(), DatasetView(served).Bounds(), context);
    EXPECT_TRUE(opened.value().Verify().ok()) << context;
  }
  std::remove(path.c_str());
}

TEST(SnapshotBoundsTest, FlagZeroFilesScanAndServeTheSameHits) {
  const Dataset corpus = GenerateTaxiDataset(PortoProfile(150));
  const std::string flagged = TempPath("v4_box_flagged.snap");
  const std::string plain = TempPath("v4_box_plain.snap");
  ASSERT_TRUE(WriteSnapshotV4(corpus, flagged).ok());
  ASSERT_TRUE(WriteSnapshotV4(corpus, plain).ok());
  // Rewrite `plain` as a writer without the box left it: grid flags 0 and
  // a section 32 bytes shorter (the box becomes page padding).
  const Result<SnapshotInfo> probe = ProbeSnapshot(plain);
  ASSERT_TRUE(probe.ok());
  size_t entry = 0;
  while (probe.value().sections[entry].type != kV4SectionGrid) ++entry;
  const SnapshotSectionInfo& grid = probe.value().sections[entry];
  WriteScalarAt<uint32_t>(plain, static_cast<std::streamoff>(grid.offset + 12),
                          0u);
  const auto length_field = static_cast<std::streamoff>(
      40 + corpus.name().size() + 8 + entry * 24 + 16);
  ASSERT_EQ(ReadScalarAt<uint64_t>(plain, length_field), grid.length);
  WriteScalarAt<uint64_t>(plain, length_field, grid.length - 32);

  Result<MmapSnapshot> with_box = MmapSnapshot::Open(flagged);
  Result<MmapSnapshot> without_box = MmapSnapshot::Open(plain);
  ASSERT_TRUE(with_box.ok()) << with_box.status().ToString();
  ASSERT_TRUE(without_box.ok()) << without_box.status().ToString();
  EXPECT_TRUE(without_box.value().Verify().ok());
  ExpectSameBox(without_box.value().dataset().Bounds(),
                with_box.value().dataset().Bounds(), "flag 0");

  // The service pins the same GBP cell from the recorded box as from a
  // scan of the heap corpus, and both files serve the same hits.
  ServiceOptions options;
  options.engine.use_gbp = true;
  options.engine.use_kpf = true;
  options.engine.mu = 0.2;
  options.engine.top_k = 5;
  options.shards = 2;
  options.worker_threads = 2;
  options.engine.prebuilt_grid = with_box.value().grid();
  QueryService served(with_box.value().dataset(), options);
  options.engine.prebuilt_grid = without_box.value().grid();
  QueryService scanned(without_box.value().dataset(), options);
  EXPECT_EQ(served.options().engine.cell_size,
            DefaultCellSize(DatasetView(corpus).Bounds()));
  EXPECT_EQ(served.options().engine.cell_size,
            scanned.options().engine.cell_size);
  for (int id = 0; id < 150; id += 15) {
    const TrajectoryRef source = corpus[id];
    const TrajectoryView query =
        source.View().subspan(0, std::min<size_t>(source.size(), 20));
    ExpectSameHits(served.Submit(query, id), scanned.Submit(query, id),
                   "query " + std::to_string(id));
  }
  std::remove(flagged.c_str());
  std::remove(plain.c_str());
}

TEST_F(SnapshotV4RejectionTest, TamperedCorpusBoxFailsVerify) {
  // Open trusts the recorded box (reading it faults no point payload); the
  // deep Verify pass rescans the pool and rejects a box that disagrees.
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  const std::streamoff box = GridBoxOffset(path_, *grid);
  const auto min_x = ReadScalarAt<double>(path_, box);
  EXPECT_EQ(min_x, DatasetView(corpus_).Bounds().min_x);
  WriteScalarAt<double>(path_, box, min_x - 1.0);
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().dataset().Bounds().min_x, min_x - 1.0);
  EXPECT_FALSE(opened.value().Verify().ok());
}

TEST_F(SnapshotV4RejectionTest, UnknownGridFlagsRejected) {
  const SnapshotSectionInfo* grid = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(grid, nullptr);
  WriteScalarAt<uint32_t>(path_, static_cast<std::streamoff>(grid->offset + 12),
                          kV4GridFlagBounds | 2u);
  EXPECT_FALSE(MmapSnapshot::Open(path_).ok());
}

TEST_F(SnapshotV4RejectionTest, OutOfRangePostingIdsAreSunkAndFailVerify) {
  // Open reads no posting id (a pass over them would cost every open), so a
  // file whose ids lie outside the corpus opens. The GBP counter must serve
  // defined candidates from it anyway — every id it reports in range — and
  // the deep Verify pass must reject it.
  const SnapshotSectionInfo* section = FindSection(info_, kV4SectionGrid);
  ASSERT_NE(section, nullptr);
  const auto base = static_cast<std::streamoff>(section->offset);
  const auto cell_count = ReadScalarAt<uint64_t>(path_, base + 16);
  const auto id_count = ReadScalarAt<uint64_t>(path_, base + 24);
  const auto slot_count = ReadScalarAt<uint64_t>(path_, base + 32);
  ASSERT_GE(id_count, 2u);
  const std::streamoff ids =
      base + static_cast<std::streamoff>(40 + cell_count * 8 +
                                         (cell_count + 1) * 8 +
                                         slot_count * 8);
  WriteScalarAt<int32_t>(path_, ids, int32_t{1} << 28);
  WriteScalarAt<int32_t>(
      path_, ids + static_cast<std::streamoff>(4 * (id_count - 1)), -1);

  Result<MmapSnapshot> opened = MmapSnapshot::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const GridIndex* grid = opened.value().grid();
  ASSERT_NE(grid, nullptr);
  ASSERT_EQ(grid->posting_ids().front(), int32_t{1} << 28);
  ASSERT_EQ(grid->posting_ids().back(), -1);

  ServiceOptions options;
  options.engine.use_gbp = true;
  options.engine.mu = 0.0;
  options.engine.top_k = 3;
  options.shards = 1;
  options.worker_threads = 1;
  options.engine.prebuilt_grid = grid;
  QueryService service(opened.value().dataset(), options);
  // Each whole trajectory as a query: together they touch every cell, the
  // first and the last (where the crafted ids sit) included.
  for (int id = 0; id < corpus_.size(); ++id) {
    const TrajectoryView query = corpus_[id].View();
    const std::string context = "query " + std::to_string(id);
    for (const auto& [hit, count] : grid->CloseCounts(query)) {
      EXPECT_GE(hit, 0) << context;
      EXPECT_LT(hit, corpus_.size()) << context;
    }
    std::vector<int> ordered;
    grid->OrderedCandidates(query, 0.0, &ordered);
    for (const int hit : ordered) {
      EXPECT_GE(hit, 0) << context;
      EXPECT_LT(hit, corpus_.size()) << context;
    }
    const std::vector<EngineHit> hits = service.Submit(query);
    EXPECT_FALSE(hits.empty()) << context;
    for (const EngineHit& hit : hits) {
      EXPECT_GE(hit.trajectory_id, 0) << context;
      EXPECT_LT(hit.trajectory_id, corpus_.size()) << context;
    }
  }
  EXPECT_EQ(opened.value().Verify().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Column codec
// ---------------------------------------------------------------------------

TEST(ColumnCodecTest, AdversarialCoordinatesFallBackToVerbatim) {
  Dataset dataset("adversarial");
  // Finite and friendly: stays quantized.
  dataset.Add(Trajectory({Point{1.0, 2.0}, Point{1.0000001, 2.0000002}}));
  // Non-finite coordinates.
  dataset.Add(Trajectory(
      {Point{std::numeric_limits<double>::quiet_NaN(), 0.0}, Point{1.0, 1.0}}));
  dataset.Add(Trajectory(
      {Point{std::numeric_limits<double>::infinity(), 0.0}, Point{1.0, 1.0}}));
  // Delta overflows int32 at resolution 1e-7.
  dataset.Add(Trajectory({Point{0.0, 0.0}, Point{1e9, -1e9}}));
  // Signed zero must survive bitwise in residual mode.
  dataset.Add(Trajectory({Point{-0.0, 0.0}, Point{0.0, -0.0}}));

  for (const bool residuals : {false, true}) {
    ColumnCodecConfig config;
    config.store_residuals = residuals;
    const CompressedColumns encoded = EncodeColumns(dataset, config);
    ASSERT_EQ(encoded.modes.size(), static_cast<size_t>(dataset.size()));
    EXPECT_EQ(encoded.modes[0], kCodecModeQuantized);
    EXPECT_EQ(encoded.modes[1], kCodecModeVerbatim);
    EXPECT_EQ(encoded.modes[2], kCodecModeVerbatim);
    EXPECT_EQ(encoded.modes[3], kCodecModeVerbatim);
    EXPECT_GE(encoded.exception_points, 6u);

    std::vector<Point> pool;
    const Status decoded =
        DecodeColumns(encoded.View(), dataset.offsets(), &pool);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    ASSERT_EQ(pool.size(), static_cast<size_t>(dataset.point_count()));
    size_t cursor = 0;
    for (int id = 0; id < dataset.size(); ++id) {
      // Verbatim lanes round-trip every bit pattern, NaN included; with
      // residuals the quantized lanes do too. A lossy quantized lane is
      // only exact up to the step (and may normalize -0.0 to +0.0).
      const bool bitwise =
          residuals ||
          encoded.modes[static_cast<size_t>(id)] == kCodecModeVerbatim;
      for (const Point& p : dataset[id].points()) {
        const double rx = pool[cursor].x, ry = pool[cursor].y;
        if (bitwise) {
          EXPECT_EQ(std::memcmp(&rx, &p.x, sizeof(double)), 0)
              << "point " << cursor;
          EXPECT_EQ(std::memcmp(&ry, &p.y, sizeof(double)), 0)
              << "point " << cursor;
        } else {
          EXPECT_NEAR(rx, p.x, config.resolution) << "point " << cursor;
          EXPECT_NEAR(ry, p.y, config.resolution) << "point " << cursor;
        }
        ++cursor;
      }
    }
  }
}

TEST(ColumnCodecTest, ResidualModeIsBitExactOnGpsData) {
  const Dataset dataset = GenerateTaxiDataset(BeijingProfile(15));
  ColumnCodecConfig config;
  config.store_residuals = true;
  const CompressedColumns encoded = EncodeColumns(dataset, config);
  std::vector<Point> pool;
  ASSERT_TRUE(DecodeColumns(encoded.View(), dataset.offsets(), &pool).ok());
  size_t cursor = 0;
  for (const TrajectoryRef t : dataset) {
    for (const Point& p : t.points()) {
      EXPECT_EQ(pool[cursor].x, p.x);
      EXPECT_EQ(pool[cursor].y, p.y);
      ++cursor;
    }
  }
}

TEST(ColumnCodecTest, DecodeRejectsInconsistentShapes) {
  const Dataset dataset = GenerateTaxiDataset(PortoProfile(5));
  const CompressedColumns encoded = EncodeColumns(dataset, {});
  std::vector<Point> pool;

  CompressedColumnsView bad = encoded.View();
  bad.modes = bad.modes.subspan(1);
  EXPECT_FALSE(DecodeColumns(bad, dataset.offsets(), &pool).ok());

  bad = encoded.View();
  bad.qx = bad.qx.subspan(1);
  EXPECT_FALSE(DecodeColumns(bad, dataset.offsets(), &pool).ok());

  bad = encoded.View();
  bad.resolution = 0;
  EXPECT_FALSE(DecodeColumns(bad, dataset.offsets(), &pool).ok());
}

// ---------------------------------------------------------------------------
// Lifetime, gauges, warmup
// ---------------------------------------------------------------------------

TEST(MmapSnapshotTest, DatasetCopyOutlivesTheSnapshot) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(12));
  const std::string path = TempPath("v4_lifetime.snap");
  for (const bool compress : {false, true}) {
    V4WriteOptions options;
    options.compress = compress;
    options.codec.store_residuals = true;
    ASSERT_TRUE(WriteSnapshotV4(original, path, options).ok());

    Dataset copy;
    {
      Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      copy = opened.value().dataset();
      EXPECT_TRUE(copy.borrowed());
      EXPECT_EQ(copy.pool().data(), opened.value().dataset().pool().data());
    }
    // The MmapSnapshot (and its GridIndex) are gone; the copy's keepalive
    // holds the mapping or the decoded pool. ASan/valgrind would flag any
    // dangling access here.
    ExpectSameCorpus(copy, original);
  }
  std::remove(path.c_str());
}

TEST(MmapSnapshotTest, GaugesAndWillNeed) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(15));
  const std::string path = TempPath("v4_gauges.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());

  obs::Registry registry;
  MmapOptions options;
  options.willneed = true;
  options.metrics = &registry;
  Result<MmapSnapshot> opened = MmapSnapshot::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().WillNeed().ok());
  EXPECT_GT(opened.value().ResidentBytes(), 0u);
  EXPECT_LE(opened.value().ResidentBytes(), opened.value().mapped_bytes());

  opened.value().UpdateGauges();
  const obs::RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.gauge("storage.mapped_bytes"),
            static_cast<int64_t>(opened.value().mapped_bytes()));
  EXPECT_GT(snap.gauge("storage.resident_bytes"), 0);

  // A later registry (e.g. a QueryService's) overrides the open-time one.
  obs::Registry other;
  opened.value().UpdateGauges(&other);
  EXPECT_EQ(other.Snapshot().gauge("storage.mapped_bytes"),
            static_cast<int64_t>(opened.value().mapped_bytes()));

  // Kill switch: a disabled registry stays empty.
  obs::Registry off;
  off.set_enabled(false);
  opened.value().UpdateGauges(&off);
  EXPECT_EQ(off.Snapshot().gauges.size(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Prebuilt-grid adoption
// ---------------------------------------------------------------------------

TEST(MmapSnapshotTest, EngineAdoptsPrebuiltGridWithIdenticalResults) {
  Rng rng(77);
  Dataset corpus("grid");
  for (int i = 0; i < 40; ++i) corpus.Add(RandomWalk(&rng, 12 + i % 7));
  const std::string path = TempPath("v4_adopt.snap");
  ASSERT_TRUE(WriteSnapshotV4(corpus, path).ok());

  Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(opened.value().grid(), nullptr);

  EngineOptions options;
  options.use_gbp = true;
  options.mu = 0.15;
  options.top_k = 3;
  options.prebuilt_grid = opened.value().grid();
  const SearchEngine served(&opened.value().dataset(), options);
  // Adopted, not rebuilt: the engine's grid shares the mapped section's
  // arrays.
  ASSERT_NE(served.grid(), nullptr);
  EXPECT_EQ(served.grid()->cell_keys().data(),
            opened.value().grid()->cell_keys().data());

  EngineOptions plain = options;
  plain.prebuilt_grid = nullptr;
  const SearchEngine rebuilt(&corpus, plain);
  ASSERT_NE(rebuilt.grid(), nullptr);
  EXPECT_NE(rebuilt.grid()->cell_keys().data(),
            opened.value().grid()->cell_keys().data());

  const Trajectory query = RandomWalk(&rng, 8);
  ExpectSameHits(served.Query(query.View()), rebuilt.Query(query.View()),
                 "prebuilt grid");
  std::remove(path.c_str());
}

/// prebuilt_grid is read only while a service is constructed: the adopted
/// grid's copy keeps the mapping alive, and a compaction never looks at the
/// pointer again. So the snapshot it came from may go before the service —
/// through queries, appends and a compaction — and the service still
/// answers like a fresh engine over the merged corpus. One shard adopts the
/// grid; two shards build their own and only the compaction's rebuild could
/// have touched the pointer.
TEST(MmapSnapshotTest, ServiceOutlivesTheSnapshotItsGridCameFrom) {
  Rng rng(79);
  Dataset corpus("lifetime");
  for (int i = 0; i < 60; ++i) corpus.Add(RandomWalk(&rng, 10 + i % 9));
  const std::string path = TempPath("v4_lifetime.snap");
  ASSERT_TRUE(WriteSnapshotV4(corpus, path).ok());
  std::vector<Trajectory> appended;
  for (int i = 0; i < 5; ++i) appended.push_back(RandomWalk(&rng, 12));
  std::vector<Trajectory> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(RandomWalk(&rng, 7));

  for (const int shards : {1, 2}) {
    Result<MmapSnapshot> opened = MmapSnapshot::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto snapshot = std::make_unique<MmapSnapshot>(opened.MoveValue());
    ASSERT_NE(snapshot->grid(), nullptr);

    ServiceOptions options;
    options.engine.use_gbp = true;
    options.engine.use_kpf = true;
    options.engine.sample_rate = 1.0;
    options.engine.mu = 0.15;
    options.engine.top_k = 3;
    options.engine.prebuilt_grid = snapshot->grid();
    options.shards = shards;
    options.worker_threads = 2;
    options.compact_delta_trajectories = 0;
    QueryService service(snapshot->dataset(), options);
    snapshot.reset();

    EngineOptions reference = service.options().engine;
    reference.prebuilt_grid = nullptr;
    const auto expect_fresh = [&](const std::string& stage) {
      const Dataset merged = LiveDataset::Merge(service.View());
      const SearchEngine fresh(&merged, reference);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectSameHits(service.Submit(queries[qi]), fresh.Query(queries[qi]),
                       "shards " + std::to_string(shards) + " " + stage +
                           " query " + std::to_string(qi));
      }
    };
    expect_fresh("first");
    for (const Trajectory& t : appended) service.Append(t);
    expect_fresh("appended");
    ASSERT_TRUE(service.Compact());
    expect_fresh("compacted");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Equivalence gate: mmap-served == heap-loaded, full matrix
// ---------------------------------------------------------------------------

/// A service over an mmap-served v4 base — and one over the bit-exact
/// compressed-residual tier — must answer hit-for-hit identically to a
/// heap-loaded service, for every algorithm x distance combo, with engine
/// threads > 1 and shards > 1, while a live delta sits on the mapped base
/// and again after a forced compaction swaps it out. Both services run with
/// the same explicit cell size (the grown corpus would otherwise derive a
/// different grid than the base). Two inputs: 54 random walks with short
/// queries, and the Porto-shaped workbench with its queries' source ids
/// excluded.
struct GateInput {
  std::vector<Trajectory> all;
  int base = 0;  // the first `base` trajectories are snapshotted
  std::vector<Trajectory> queries;
  std::vector<int> excluded;  // empty: nothing excluded
  std::vector<DistanceSpec> specs;
};

void ExpectTiersMatchHeapLoad(const GateInput& input,
                              const std::string& name) {
  Dataset full_corpus("fresh");
  full_corpus.Reserve(input.all.size());
  for (const Trajectory& t : input.all) full_corpus.Add(t);
  const double cell = DefaultCellSize(full_corpus.Bounds());

  Dataset base("base");
  base.Reserve(static_cast<size_t>(input.base));
  for (int i = 0; i < input.base; ++i) {
    base.Add(input.all[static_cast<size_t>(i)]);
  }

  // The two served tiers of the same base corpus. The residual tier is the
  // bit-exact one — the identity gate below is only sound there.
  const std::string pooled_path = TempPath("v4_gate_pooled_" + name + ".snap");
  ASSERT_TRUE(WriteSnapshotV4(base, pooled_path).ok());
  const std::string residual_path =
      TempPath("v4_gate_residual_" + name + ".snap");
  V4WriteOptions residual;
  residual.compress = true;
  residual.codec.store_residuals = true;
  ASSERT_TRUE(WriteSnapshotV4(base, residual_path, residual).ok());

  Result<MmapSnapshot> pooled_snap = MmapSnapshot::Open(pooled_path);
  ASSERT_TRUE(pooled_snap.ok()) << pooled_snap.status().ToString();
  Result<MmapSnapshot> residual_snap = MmapSnapshot::Open(residual_path);
  ASSERT_TRUE(residual_snap.ok()) << residual_snap.status().ToString();
  const MmapSnapshot* tiers[] = {&pooled_snap.value(),
                                 &residual_snap.value()};
  const char* tier_names[] = {"mmap", "residual"};

  std::vector<TrajectoryView> queries;
  for (const Trajectory& q : input.queries) queries.push_back(q.View());

  const Algorithm algorithms[] = {
      Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
      Algorithm::kGreedyBacktracking, Algorithm::kPos,
      Algorithm::kPss,  Algorithm::kRls,    Algorithm::kRlsSkip};

  for (const Algorithm algorithm : algorithms) {
    for (const DistanceSpec& spec : input.specs) {
      if (!Supports(algorithm, spec.kind)) continue;
      EngineOptions engine;
      engine.spec = spec;
      engine.algorithm = algorithm;
      engine.use_gbp = true;
      engine.mu = 0.1;
      engine.cell_size = cell;
      engine.use_kpf = true;
      engine.sample_rate = 1.0;  // sound bound: results must be exact
      engine.top_k = 4;
      engine.threads = 2;

      ServiceOptions options;
      options.engine = engine;
      options.shards = 3;
      options.cache_capacity = 0;
      options.compact_delta_trajectories = 0;  // compaction forced below

      QueryService fresh(full_corpus, options);
      const auto expected = fresh.SubmitBatch(queries, input.excluded);

      for (size_t ti = 0; ti < 2; ++ti) {
        const std::string context =
            name + " " + std::string(ToString(algorithm)) + "/" +
            std::string(ToString(spec.kind)) + "/" + tier_names[ti];
        ServiceOptions tier_options = options;
        tier_options.engine.prebuilt_grid = tiers[ti]->grid();
        QueryService live(tiers[ti]->dataset(), tier_options);
        std::vector<TrajectoryView> appended;
        for (size_t i = static_cast<size_t>(input.base); i < input.all.size();
             ++i) {
          appended.push_back(input.all[i].View());
        }
        live.AppendBatch(appended);
        ASSERT_EQ(live.corpus_size(), fresh.corpus_size()) << context;

        const auto before_compact = live.SubmitBatch(queries, input.excluded);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectSameHits(expected[qi], before_compact[qi],
                         context + " pre-compaction query " +
                             std::to_string(qi));
        }
        ASSERT_TRUE(live.Compact()) << context;
        const auto after_compact = live.SubmitBatch(queries, input.excluded);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ExpectSameHits(expected[qi], after_compact[qi],
                         context + " post-compaction query " +
                             std::to_string(qi));
        }
      }
    }
  }
  std::remove(pooled_path.c_str());
  std::remove(residual_path.c_str());
}

TEST(MmapEquivalenceGate, FullMatrixMatchesHeapLoad) {
  GateInput walk;
  Rng rng(515);
  for (int i = 0; i < 54; ++i) walk.all.push_back(RandomWalk(&rng, 14 + i % 9));
  walk.base = 36;
  for (int i = 0; i < 3; ++i) walk.queries.push_back(RandomWalk(&rng, 7));
  walk.queries.push_back(Trajectory(walk.all[40].Slice(Subrange{1, 9})));
  walk.specs = testing::PaperGpsSpecs();
  ExpectTiersMatchHeapLoad(walk, "walk");

  testing::PortoWorkbench w = testing::MakePortoWorkbench(8);
  GateInput porto;
  for (const TrajectoryRef t : w.corpus) porto.all.emplace_back(t.View());
  porto.base = w.corpus.size() * 4 / 5;
  porto.queries = std::move(w.queries);
  porto.excluded = std::move(w.excluded);
  porto.specs = std::move(w.specs);
  ExpectTiersMatchHeapLoad(porto, "porto");
}

}  // namespace
}  // namespace trajsearch
