#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/fingerprint.h"
#include "gen/taxi.h"
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

TEST(SnapshotTest, RoundTripIsExact) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(25));
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());

  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& copy = loaded.value();

  EXPECT_EQ(copy.name(), original.name());
  ASSERT_EQ(copy.size(), original.size());
  for (int id = 0; id < original.size(); ++id) {
    ASSERT_EQ(copy[id].size(), original[id].size());
    for (int i = 0; i < original[id].size(); ++i) {
      // Bit-exact, not just approximately equal (unlike the CSV format).
      EXPECT_EQ(copy[id][i], original[id][i]);
    }
  }
  EXPECT_EQ(Fingerprint(copy), Fingerprint(original));

  // Byte-identical summary statistics.
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
  ASSERT_TRUE(WriteSnapshot(parsed.value(), snap).ok());
  const Result<Dataset> reloaded = ReadSnapshot(snap);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(Fingerprint(reloaded.value()), Fingerprint(parsed.value()));
  std::remove(csv.c_str());
  std::remove(snap.c_str());
}

TEST(SnapshotTest, EmptyTrajectoriesRoundTrip) {
  // Empty trajectories are legal (the engine skips them); the reader must
  // not reject a file the writer produced for such a corpus.
  Dataset original("with-empties");
  original.Add(TrajectoryView{});
  original.Add(Trajectory{Point{1, 2}, Point{3, 4}});
  original.Add(TrajectoryView{});
  const std::string path = TempPath("empties.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 3);
  EXPECT_EQ(loaded.value()[0].size(), 0);
  EXPECT_EQ(loaded.value()[1].size(), 2);
  EXPECT_EQ(loaded.value()[2].size(), 0);
  EXPECT_EQ(Fingerprint(loaded.value()), Fingerprint(original));
  std::remove(path.c_str());
}

TEST(SnapshotTest, RetiredV1HeaderIsInvalidArgument) {
  // v1 (length table instead of the pool offset table) is no longer read:
  // a v1 header is rejected up front, by the loader and the probe alike.
  const Dataset original = GenerateTaxiDataset(PortoProfile(12));
  const std::string path = TempPath("retired_v1.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  Patch<uint32_t>(path, 8, 1u);  // version field follows the 8-byte magic
  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const Result<SnapshotInfo> probed = ProbeSnapshot(path);
  ASSERT_FALSE(probed.ok());
  EXPECT_EQ(probed.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, V2OffsetTableCorruptionIsRejected) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("badoffsets.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  // First offset entry follows the 8-byte magic, 32-byte header and name;
  // flipping its low byte breaks the required offsets[0] == 0 invariant.
  const std::streamoff offset0 =
      8 + 32 + static_cast<std::streamoff>(original.name().size());
  Corrupt(path, offset0);
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedOffsetTableIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("truncoffsets.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  // Cut inside the offset table (just past the header + name + one entry).
  Truncate(path, 8 + 32 +
                     static_cast<std::streamoff>(original.name().size()) + 12);
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIoError) {
  const Result<Dataset> r = ReadSnapshot("/nonexistent/corpus.snap");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, BadMagicIsRejected) {
  const std::string path = TempPath("badmagic.snap");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTASNAPXXXXXXXXXXXXXXXXXXXXXXXX";
  }
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsSnapshotFile(path));
  std::remove(path.c_str());
}

TEST(SnapshotTest, UnknownVersionIsRejected) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(3));
  const std::string path = TempPath("badversion.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  Corrupt(path, 8);  // version field follows the 8-byte magic
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedHeaderIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(3));
  const std::string path = TempPath("truncheader.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  Truncate(path, 20);  // inside the fixed header
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedPayloadIsIoError) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("truncpayload.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in.tellg();
    ASSERT_GT(size, 100);
    in.close();
    Truncate(path, size - 64);  // drop the tail of the point array
  }
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedPayloadByteFailsChecksum) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(5));
  const std::string path = TempPath("bitflip.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  std::streamoff size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    size = in.tellg();
  }
  Corrupt(path, size - 9);  // inside the last point's y coordinate
  const Result<Dataset> r = ReadSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v3: base payload + replayable append journal
// ---------------------------------------------------------------------------

/// Writes a small base + journal pair and returns their flattened form.
Dataset WriteV3Fixture(const std::string& path, Dataset* base_out,
                       std::vector<Trajectory>* journal_out) {
  const Dataset base = GenerateTaxiDataset(PortoProfile(8));
  const Dataset extra = GenerateTaxiDataset(XianProfile(3));
  std::vector<Trajectory> journal;
  std::vector<TrajectoryView> views;
  for (const TrajectoryRef t : extra) {
    journal.emplace_back(t.View());
    views.push_back(t.View());
  }
  EXPECT_TRUE(WriteLiveSnapshot(base, views, path).ok());
  Dataset flat("flat");
  for (const TrajectoryRef t : base) flat.Add(t);
  for (const Trajectory& t : journal) flat.Add(t);
  if (base_out != nullptr) *base_out = base;
  if (journal_out != nullptr) *journal_out = std::move(journal);
  return flat;
}

TEST(SnapshotTest, V3RoundTripPreservesBaseAndJournal) {
  const std::string path = TempPath("live_v3.snap");
  Dataset base;
  std::vector<Trajectory> journal;
  const Dataset flat = WriteV3Fixture(path, &base, &journal);

  const Result<LiveSnapshot> loaded = ReadLiveSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LiveSnapshot& snapshot = loaded.value();
  EXPECT_EQ(Fingerprint(snapshot.base), Fingerprint(base));
  ASSERT_EQ(snapshot.journal.size(), journal.size());
  for (size_t i = 0; i < journal.size(); ++i) {
    EXPECT_EQ(Fingerprint(snapshot.journal[i].View()),
              Fingerprint(journal[i].View()))
        << "journal entry " << i;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, V3FlattensThroughReadSnapshotAndLoadDataset) {
  const std::string path = TempPath("live_flat.snap");
  const Dataset flat = WriteV3Fixture(path, nullptr, nullptr);

  const Result<Dataset> loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Base trajectories first, then the journal in order — the live corpus's
  // id assignment — and exact allocation despite the incremental journal.
  EXPECT_EQ(Fingerprint(loaded.value()), Fingerprint(flat));
  const DatasetStats stats = loaded.value().Stats();
  EXPECT_EQ(stats.pool_capacity_bytes, stats.pool_bytes);
  EXPECT_EQ(stats.offsets_capacity_bytes, stats.offsets_bytes);

  const Result<Dataset> sniffed = LoadDataset(path, "ignored");
  ASSERT_TRUE(sniffed.ok());
  EXPECT_EQ(Fingerprint(sniffed.value()), Fingerprint(flat));
  std::remove(path.c_str());
}

TEST(SnapshotTest, V3EmptyJournalLoads) {
  const Dataset base = GenerateTaxiDataset(PortoProfile(4));
  const std::string path = TempPath("live_empty.snap");
  ASSERT_TRUE(WriteLiveSnapshot(base, {}, path).ok());
  const Result<LiveSnapshot> loaded = ReadLiveSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().journal.empty());
  EXPECT_EQ(Fingerprint(loaded.value().base), Fingerprint(base));
  std::remove(path.c_str());
}

TEST(SnapshotTest, V2LoadsThroughReadLiveSnapshotWithEmptyJournal) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(4));
  const std::string path = TempPath("v2_as_live.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  const Result<LiveSnapshot> loaded = ReadLiveSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().journal.empty());
  EXPECT_EQ(Fingerprint(loaded.value().base), Fingerprint(original));
  std::remove(path.c_str());
}

TEST(SnapshotTest, V3TruncatedJournalIsIoError) {
  const std::string path = TempPath("live_trunc.snap");
  WriteV3Fixture(path, nullptr, nullptr);
  std::streamoff size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    size = in.tellg();
  }
  Truncate(path, size - 24);  // drop the tail of the last journal entry
  const Result<LiveSnapshot> r = ReadLiveSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, V3CorruptJournalFailsItsChecksum) {
  const std::string path = TempPath("live_flip.snap");
  WriteV3Fixture(path, nullptr, nullptr);
  std::streamoff size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    size = in.tellg();
  }
  Corrupt(path, size - 5);  // inside the last journal point
  const Result<LiveSnapshot> r = ReadLiveSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotTest, V3HugeJournalPointCountIsRejectedNotAllocated) {
  // A crafted journal_points of ~2^60 must be rejected by the size sanity
  // check, not wrap the needed-bytes arithmetic and reach the per-entry
  // allocations (regression: journal_points * sizeof(Point) overflowed to a
  // small value and a later bogus entry length provoked a giant alloc).
  const Dataset base = GenerateTaxiDataset(PortoProfile(4));
  const Trajectory a{Point{0, 0}, Point{1, 1}};
  const Trajectory b{Point{2, 2}, Point{3, 3}, Point{4, 4}};
  const std::string path = TempPath("huge_journal.snap");
  ASSERT_TRUE(WriteLiveSnapshot(base, {a.View(), b.View()}, path).ok());
  std::streamoff size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    size = in.tellg();
  }
  // Journal layout from the end: [count u64][points u64][fp u64][entries];
  // the two entries occupy (4 + 2*16) + (4 + 3*16) = 88 bytes.
  const std::streamoff points_offset = size - 88 - 16;
  Patch<uint64_t>(path, points_offset, uint64_t{1} << 60);
  const Result<LiveSnapshot> r = ReadLiveSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProbeRejectsHeaderCountsLargerThanTheFile) {
  // ProbeSnapshot must apply the same "no allocation sized from the file
  // before a bounds check" rule as the loader: a corrupt name_length must
  // not provoke a 4 GiB string resize.
  const Dataset original = GenerateTaxiDataset(PortoProfile(4));
  const std::string path = TempPath("huge_name.snap");
  ASSERT_TRUE(WriteSnapshot(original, path).ok());
  Patch<uint32_t>(path, 12, 0xFFFFFFFFu);  // name_length: magic(8)+version(4)
  const Result<SnapshotInfo> r = ProbeSnapshot(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ProbeReportsVersionAndShapeWithoutLoading) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(6));
  const std::string v2 = TempPath("probe_v2.snap");
  const std::string v3 = TempPath("probe_v3.snap");
  ASSERT_TRUE(WriteSnapshot(original, v2).ok());
  Dataset base;
  std::vector<Trajectory> journal;
  WriteV3Fixture(v3, &base, &journal);

  const Result<SnapshotInfo> p2 = ProbeSnapshot(v2);
  const Result<SnapshotInfo> p3 = ProbeSnapshot(v3);
  ASSERT_TRUE(p2.ok() && p3.ok());
  EXPECT_EQ(p2.value().version, 2u);
  EXPECT_EQ(p2.value().base_trajectories,
            static_cast<uint64_t>(original.size()));
  EXPECT_EQ(p2.value().journal_trajectories, 0u);
  EXPECT_EQ(p3.value().version, kSnapshotVersionLive);
  EXPECT_EQ(p3.value().base_trajectories,
            static_cast<uint64_t>(base.size()));
  EXPECT_EQ(p3.value().journal_trajectories, journal.size());
  EXPECT_EQ(p3.value().name, base.name());
  std::remove(v2.c_str());
  std::remove(v3.c_str());
}

TEST(SnapshotTest, LoadDatasetSniffsBothFormats) {
  const Dataset original = GenerateTaxiDataset(PortoProfile(4));
  const std::string csv = TempPath("sniff.csv");
  const std::string snap = TempPath("sniff.snap");
  ASSERT_TRUE(WriteTrajectoryCsv(original, csv).ok());
  ASSERT_TRUE(WriteSnapshot(original, snap).ok());
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
