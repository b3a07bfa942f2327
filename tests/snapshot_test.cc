#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "gen/taxi.h"
#include "io/snapshot_v4.h"
#include "io/traj_csv.h"

namespace trajsearch {
namespace {

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

/// Truncates the file to `size` bytes.
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

/// Overwrites `size` bytes at `offset` with `value`'s little-endian bytes.
template <typename T>
void Patch(const std::string& path, std::streamoff offset, T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Header field offsets: magic(8), then version u32, name_length u32,
/// trajectory_count u64, point_count u64, fingerprint u64.
constexpr std::streamoff kVersionField = 8;
constexpr std::streamoff kNameLengthField = 12;
constexpr std::streamoff kTrajectoryCountField = 16;
constexpr std::streamoff kPointCountField = 24;

/// Writes `dataset` as a pooled snapshot without the grid section, so the
/// file's last payload is the pool.
void WritePooled(const Dataset& dataset, const std::string& path) {
  V4WriteOptions options;
  options.include_grid = false;
  ASSERT_TRUE(WriteSnapshotV4(dataset, path, options).ok());
}

/// A section's table entry, located through the probe (no layout math).
SnapshotSectionInfo Section(const std::string& path, uint32_t type) {
  const Result<SnapshotInfo> probe = ProbeSnapshot(path);
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  if (probe.ok()) {
    for (const SnapshotSectionInfo& s : probe.value().sections) {
      if (s.type == type) return s;
    }
  }
  ADD_FAILURE() << "section " << type << " missing";
  return {};
}

/// Expects the loader and the probe to reject the file with `code`.
void ExpectRejected(const std::string& path, StatusCode code,
                    const std::string& context) {
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok()) << context;
  EXPECT_EQ(loaded.status().code(), code)
      << context << ": " << loaded.status().ToString();
  const Result<SnapshotInfo> probed = ProbeSnapshot(path);
  ASSERT_FALSE(probed.ok()) << context;
  EXPECT_EQ(probed.status().code(), code)
      << context << ": " << probed.status().ToString();
}

TEST(SnapshotTest, RoundTripIsExact) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(25));
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());

  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& copy = loaded.value();

  EXPECT_EQ(copy.name(), original.name());
  EXPECT_FALSE(copy.borrowed());
  ASSERT_EQ(copy.size(), original.size());
  for (int id = 0; id < original.size(); ++id) {
    ASSERT_EQ(copy[id].size(), original[id].size());
    for (int i = 0; i < original[id].size(); ++i) {
      // Bit-exact, not just approximately equal (unlike the CSV format).
      EXPECT_EQ(copy[id][i], original[id][i]);
    }
  }
  EXPECT_EQ(Fingerprint(copy), Fingerprint(original));

  // Byte-identical summary statistics, and exactly-sized storage.
  const DatasetStats a = original.Stats();
  const DatasetStats b = copy.Stats();
  EXPECT_EQ(a.trajectory_count, b.trajectory_count);
  EXPECT_EQ(a.point_count, b.point_count);
  EXPECT_EQ(a.mean_length, b.mean_length);
  EXPECT_EQ(a.min_length, b.min_length);
  EXPECT_EQ(a.max_length, b.max_length);
  EXPECT_EQ(a.bounds.min_x, b.bounds.min_x);
  EXPECT_EQ(a.bounds.max_x, b.bounds.max_x);
  EXPECT_EQ(a.bounds.min_y, b.bounds.min_y);
  EXPECT_EQ(a.bounds.max_y, b.bounds.max_y);
  EXPECT_EQ(b.pool_capacity_bytes, b.pool_bytes);
  EXPECT_EQ(b.offsets_capacity_bytes, b.offsets_bytes);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CsvRoundTripThroughSnapshotKeepsFingerprint) {
  // CSV -> Dataset -> snapshot -> Dataset keeps the parsed content exact.
  const Dataset original = GenerateTaxiDataset(XianProfile(6));
  const std::string csv = TempPath("chain.csv");
  const std::string snap = TempPath("chain.snap");
  ASSERT_TRUE(WriteTrajectoryCsv(original, csv).ok());
  const Result<Dataset> parsed = ReadTrajectoryCsv(csv, "chain");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(WriteSnapshotV4(parsed.value(), snap).ok());
  const Result<Dataset> reloaded = ReadSnapshot(snap);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(Fingerprint(reloaded.value()), Fingerprint(parsed.value()));
  std::remove(csv.c_str());
  std::remove(snap.c_str());
}

TEST(SnapshotTest, EmptyTrajectoriesRoundTrip) {
  // Empty trajectories are legal (the engine skips them); the readers must
  // not reject a file the writer produced for such a corpus.
  Dataset original("with-empties");
  original.Add(TrajectoryView{});
  original.Add(Trajectory{Point{1, 2}, Point{3, 4}});
  original.Add(TrajectoryView{});
  const std::string path = TempPath("empties.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3);
  EXPECT_EQ(loaded.value()[0].size(), 0);
  EXPECT_EQ(loaded.value()[1].size(), 2);
  EXPECT_EQ(loaded.value()[2].size(), 0);
  EXPECT_EQ(Fingerprint(loaded.value()), Fingerprint(original));

  Result<MmapSnapshot> mapped = MmapSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(Fingerprint(mapped.value().dataset()), Fingerprint(original));
  EXPECT_TRUE(mapped.value().Verify().ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, ZeroTrajectoryCorpusRoundTrips) {
  // The empty corpus has zero-length pool and column sections and no grid.
  const Dataset original("nothing");
  const std::string path = TempPath("zero.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());

  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 0);
  EXPECT_EQ(loaded.value().name(), "nothing");
  EXPECT_EQ(Fingerprint(loaded.value()), Fingerprint(original));

  Result<MmapSnapshot> mapped = MmapSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().dataset().size(), 0);
  EXPECT_EQ(mapped.value().grid(), nullptr);
  EXPECT_TRUE(mapped.value().Verify().ok());

  const Result<SnapshotInfo> probed = ProbeSnapshot(path);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(probed.value().base_trajectories, 0u);
  EXPECT_EQ(probed.value().base_points, 0u);
  EXPECT_EQ(probed.value().bytes_per_trajectory, 0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RetiredHeadersAreInvalidArgument) {
  // v1 (length table), v2 (pool dump) and v3 (pool dump + append journal)
  // are no longer read: their headers are rejected up front, by the loader,
  // the probe and the mapped reader alike.
  const Dataset original = GenerateTaxiDataset(PortoProfile(12));
  const std::string path = TempPath("retired.snap");
  for (const uint32_t version : {1u, 2u, 3u}) {
    const std::string context = "version " + std::to_string(version);
    WritePooled(original, path);
    Patch<uint32_t>(path, kVersionField, version);
    ExpectRejected(path, StatusCode::kInvalidArgument, context);
    const Result<MmapSnapshot> mapped = MmapSnapshot::Open(path);
    ASSERT_FALSE(mapped.ok()) << context;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
        << context;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, NewerVersionIsUnsupported) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(3));
  const std::string path = TempPath("badversion.snap");
  WritePooled(original, path);
  Patch<uint32_t>(path, kVersionField, kSnapshotVersionMapped + 1);
  ExpectRejected(path, StatusCode::kUnsupported, "version 5");
  WritePooled(original, path);
  Corrupt(path, kVersionField);  // 4 -> 251
  ExpectRejected(path, StatusCode::kUnsupported, "version 251");
  std::remove(path.c_str());
}

TEST(SnapshotTest, OffsetTableCorruptionIsRejected) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("badoffsets.snap");
  WritePooled(original, path);
  // Flipping the low byte of offsets[0] breaks the offsets[0] == 0
  // invariant of the pool layout.
  const SnapshotSectionInfo offsets = Section(path, kV4SectionOffsets);
  Corrupt(path, static_cast<std::streamoff>(offsets.offset));
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedOffsetTableIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("truncoffsets.snap");
  WritePooled(original, path);
  // Cut inside the offset table (just past its first entry).
  const SnapshotSectionInfo offsets = Section(path, kV4SectionOffsets);
  Truncate(path, static_cast<std::streamoff>(offsets.offset) + 12);
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  const Result<Dataset> r = ReadSnapshot("/nonexistent/corpus.snap");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  const Result<SnapshotInfo> p = ProbeSnapshot("/nonexistent/corpus.snap");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicIsRejected) {
  const std::string path = TempPath("badmagic.snap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTASNAPXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX";
  }
  ExpectRejected(path, StatusCode::kInvalidArgument, "bad magic");
  EXPECT_FALSE(IsSnapshotFile(path));
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedHeaderIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(3));
  const std::string path = TempPath("truncheader.snap");
  WritePooled(original, path);
  Truncate(path, 20);  // inside the fixed header
  ExpectRejected(path, StatusCode::kIoError, "truncated header");
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedPayloadIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("truncpayload.snap");
  WritePooled(original, path);
  // Cut into the pool, the last payload (the file ends with alignment
  // padding, which a shorter cut would merely trim).
  const SnapshotSectionInfo pool = Section(path, kV4SectionPool);
  ASSERT_GT(pool.length, 64u);
  Truncate(path, static_cast<std::streamoff>(pool.offset + pool.length - 64));
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedPayloadByteFailsChecksum) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("bitflip.snap");
  WritePooled(original, path);
  const SnapshotSectionInfo pool = Section(path, kV4SectionPool);
  // Inside the last point's y coordinate.
  Corrupt(path, static_cast<std::streamoff>(pool.offset + pool.length - 9));
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProbeRejectsHeaderCountsLargerThanTheFile) {
  // No allocation or span may be sized from a header count before it is
  // checked against the file: a corrupt name_length must not provoke a
  // 4 GiB string resize, and a trajectory or point count of 2^60 must not
  // be reported (or mapped) as if the file held it.
  const Dataset original = GenerateTaxiDataset(PortoProfile(4));
  const std::string path = TempPath("huge_counts.snap");
  WritePooled(original, path);
  Patch<uint32_t>(path, kNameLengthField, 0xFFFFFFFFu);
  ExpectRejected(path, StatusCode::kIoError, "name_length");

  WritePooled(original, path);
  Patch<uint64_t>(path, kTrajectoryCountField, uint64_t{1} << 60);
  ExpectRejected(path, StatusCode::kIoError, "trajectory_count");

  WritePooled(original, path);
  Patch<uint64_t>(path, kPointCountField, uint64_t{1} << 60);
  ExpectRejected(path, StatusCode::kIoError, "point_count");
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProbeReportsVersionAndShapeWithoutLoading) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(6));
  const std::string path = TempPath("probe.snap");
  WritePooled(original, path);

  const Result<SnapshotInfo> probed = ProbeSnapshot(path);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  const SnapshotInfo& info = probed.value();
  EXPECT_EQ(info.version, kSnapshotVersionMapped);
  EXPECT_EQ(info.name, original.name());
  EXPECT_EQ(info.base_trajectories, static_cast<uint64_t>(original.size()));
  EXPECT_EQ(info.base_points, original.point_count());
  EXPECT_TRUE(info.page_aligned);
  EXPECT_FALSE(info.compressed);
  // Offsets and pool; no grid was asked for, and no point is stored twice.
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[0].type, kV4SectionOffsets);
  EXPECT_EQ(info.sections[1].type, kV4SectionPool);
  EXPECT_EQ(info.sections[1].length, original.point_count() * sizeof(Point));
  std::remove(path.c_str());
}

/// Rewrites a freshly written pooled file into the layout every file had
/// before the x/y shadow columns were retired: the section table lists
/// offsets, pool, x column (type 3), y column (type 4), then the rest, and
/// the two columns are page-aligned payloads mirroring the pool.
void AddRetiredShadowSections(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto load = [&](size_t at, auto* value) {
    ASSERT_LE(at + sizeof(*value), bytes.size());
    std::memcpy(value, bytes.data() + at, sizeof(*value));
  };
  uint32_t name_length = 0, section_count = 0;
  uint64_t point_count = 0;
  load(kNameLengthField, &name_length);
  load(kPointCountField, &point_count);
  const size_t table = 40 + name_length;  // {count, flags}, then entries
  load(table, &section_count);
  struct Entry {
    uint32_t type = 0, reserved = 0;
    uint64_t offset = 0, length = 0;
  };
  static_assert(sizeof(Entry) == 24);
  std::vector<Entry> entries(section_count);
  uint64_t pool_offset = 0, first_payload = bytes.size();
  for (uint32_t i = 0; i < section_count; ++i) {
    load(table + 8 + i * sizeof(Entry), &entries[i]);
    if (entries[i].type == kV4SectionPool) pool_offset = entries[i].offset;
    first_payload = std::min(first_payload, entries[i].offset);
  }
  ASSERT_NE(pool_offset, 0u);
  // The grown table must still end before the first payload.
  ASSERT_LE(table + 8 + (section_count + 2) * sizeof(Entry), first_payload);

  const std::string pool =
      bytes.substr(pool_offset, point_count * sizeof(Point));
  const auto append_column = [&](uint32_t type, size_t field) {
    bytes.resize((bytes.size() + kV4PageSize - 1) / kV4PageSize * kV4PageSize);
    const Entry entry{type, 0, bytes.size(), point_count * sizeof(double)};
    for (uint64_t i = 0; i < point_count; ++i) {
      bytes.append(pool, i * sizeof(Point) + field, sizeof(double));
    }
    return entry;
  };
  const Entry xs = append_column(kV4SectionXs, 0);
  const Entry ys = append_column(kV4SectionYs, sizeof(double));
  bytes.resize((bytes.size() + kV4PageSize - 1) / kV4PageSize * kV4PageSize);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].type == kV4SectionPool) {
      entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     {xs, ys});
      break;
    }
  }
  section_count = static_cast<uint32_t>(entries.size());
  std::memcpy(bytes.data() + table, &section_count, sizeof(section_count));
  std::memcpy(bytes.data() + table + 8, entries.data(),
              entries.size() * sizeof(Entry));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotTest, FilesWithRetiredShadowColumnsStillRead) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(30));
  const std::string path = TempPath("shadowed.snap");
  ASSERT_TRUE(WriteSnapshotV4(original, path).ok());  // with the grid
  AddRetiredShadowSections(path);

  const Result<SnapshotInfo> probed = ProbeSnapshot(path);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  ASSERT_EQ(probed.value().sections.size(), 5u);
  EXPECT_EQ(probed.value().sections[2].type, kV4SectionXs);
  EXPECT_EQ(probed.value().sections[3].type, kV4SectionYs);
  EXPECT_EQ(probed.value().sections[4].type, kV4SectionGrid);

  Result<MmapSnapshot> mapped = MmapSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().Verify().ok());
  EXPECT_NE(mapped.value().grid(), nullptr);
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const Dataset* read : {&mapped.value().dataset(), &loaded.value()}) {
    EXPECT_EQ(read->name(), original.name());
    ASSERT_EQ(read->size(), original.size());
    for (int id = 0; id < original.size(); ++id) {
      ASSERT_EQ((*read)[id].size(), original[id].size());
      for (int i = 0; i < original[id].size(); ++i) {
        EXPECT_EQ((*read)[id][i], original[id][i]);
      }
    }
    EXPECT_EQ(Fingerprint(*read), Fingerprint(original));
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadDatasetSniffsBothFormats) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(4));
  const std::string csv = TempPath("sniff.csv");
  const std::string snap = TempPath("sniff.snap");
  ASSERT_TRUE(WriteTrajectoryCsv(original, csv).ok());
  ASSERT_TRUE(WriteSnapshotV4(original, snap).ok());
  EXPECT_FALSE(IsSnapshotFile(csv));
  EXPECT_TRUE(IsSnapshotFile(snap));
  const Result<Dataset> from_csv = LoadDataset(csv, "sniff");
  const Result<Dataset> from_snap = LoadDataset(snap, "ignored");
  ASSERT_TRUE(from_csv.ok());
  ASSERT_TRUE(from_snap.ok());
  EXPECT_EQ(from_csv.value().size(), original.size());
  EXPECT_EQ(Fingerprint(from_snap.value()), Fingerprint(original));
  EXPECT_EQ(from_snap.value().name(), original.name());
  std::remove(csv.c_str());
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace trajsearch
