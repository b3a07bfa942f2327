// trajsearch_cli — command-line front end for the library, so the system is
// usable without writing C++:
//
//   # generate a synthetic corpus as CSV (or bring your own CSV)
//   trajsearch_cli generate --profile=porto --count=500 --out=corpus.csv
//
//   # corpus statistics
//   trajsearch_cli stats --data=corpus.csv
//
//   # top-K similar subtrajectory search; the query is a slice of one
//   # corpus trajectory (or a second CSV file's first trajectory)
//   trajsearch_cli search --data=corpus.csv --query-id=7 --from=10 --to=25
//       --dist=edr --eps=0.003 --k=5
//   trajsearch_cli search --data=corpus.csv --query-file=query.csv --dist=dtw
//
//   # convert between CSV and the binary snapshot format (fast startup);
//   # the output format follows the --out extension (.snap = snapshot).
//   # --format picks the snapshot version: v2 (default, heap-loaded) or v4
//   # (page-aligned sections, zero-copy mmap serving + prebuilt grid index);
//   # --compress writes the v4 compressed column tier (--resolution sets
//   # the quantization step, --residuals makes it bit-exact), --grid=false
//   # omits the prebuilt grid section
//   trajsearch_cli snapshot --in=corpus.csv --out=corpus.snap
//   trajsearch_cli snapshot --in=corpus.csv --out=corpus.snap --format=v4
//   trajsearch_cli snapshot --in=corpus.csv --out=corpus.snap --format=v4
//       --compress --resolution=1e-7 --residuals
//   trajsearch_cli snapshot --in=corpus.snap --out=corpus.csv
//
//   # serve a whole query file through the sharded QueryService: every
//   # trajectory of --queries is one query; repeats exercise the cache.
//   # a v4 --data snapshot is served zero-copy via mmap (--willneed
//   # prefetches it; single-shard serving borrows the prebuilt grid)
//   trajsearch_cli batch --data=corpus.snap --queries=queries.csv
//       --dist=dtw --k=5 --shards=4 --workers=4 --cache=256 --repeat=2
//
//   # append a CSV/snapshot into a running live service (base + delta
//   # generations), print ingest + compaction stats, optionally force a
//   # compaction and/or save the result (v3 = base + append journal when a
//   # delta remains, plain v2 after compaction)
//   trajsearch_cli ingest --data=corpus.snap --add=new_day.csv
//       --batch=64 --threshold=1024 --compact --out=corpus_live.snap
//
//   # observability: run a workload through the service and export the
//   # metrics registry (counters, latency histograms with p50/p95/p99,
//   # pruning funnels, trace spans) as human tables or statsz JSON
//   trajsearch_cli statsz --data=corpus.snap --queries=queries.csv
//       --dist=dtw --k=5 --repeat=2
//   trajsearch_cli statsz --data=corpus.snap --queries=queries.csv --json
//       --trace --out=statsz.json

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "gen/taxi.h"
#include "io/snapshot.h"
#include "io/snapshot_v4.h"
#include "io/traj_csv.h"
#include "obs/export.h"
#include "prune/grid_index.h"
#include "search/engine.h"
#include "service/query_service.h"
#include "util/flags.h"
#include "util/stopwatch.h"

using namespace trajsearch;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

/// One-line latency summary of a registry histogram, in milliseconds.
void PrintPercentiles(const obs::RegistrySnapshot& snap, const char* name,
                      const char* label) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  if (h == nullptr || h->count == 0) return;
  std::printf("%s: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean %.3f ms "
              "(%llu samples)\n",
              label, h->Percentile(50) * 1e3, h->Percentile(95) * 1e3,
              h->Percentile(99) * 1e3, h->Mean() * 1e3,
              static_cast<unsigned long long>(h->count));
}

void PrintFunnels(const obs::RegistrySnapshot& snap) {
  for (const obs::FunnelRow& row : obs::ExtractFunnels(snap)) {
    std::printf("funnel [%s]: %llu candidates -> %llu skipped, %llu "
                "bound-pruned, %llu dp runs (%llu abandoned, %llu kept)%s\n",
                row.algorithm.c_str(),
                static_cast<unsigned long long>(row.candidates),
                static_cast<unsigned long long>(row.skipped),
                static_cast<unsigned long long>(row.bound_pruned),
                static_cast<unsigned long long>(row.dp_runs),
                static_cast<unsigned long long>(row.dp_abandoned),
                static_cast<unsigned long long>(row.dp_completed),
                row.Consistent() ? "" : "  [INCONSISTENT]");
  }
}

/// Builds the distance spec from --dist/--eps; false on an unknown name.
bool ParseSpec(const Flags& flags, const Dataset& dataset,
               DistanceSpec* spec) {
  const std::string dist = flags.GetString("dist", "dtw");
  if (dist == "dtw") {
    *spec = DistanceSpec::Dtw();
  } else if (dist == "edr") {
    *spec = DistanceSpec::Edr(flags.GetDouble("eps", 0.003));
  } else if (dist == "erp") {
    *spec = DistanceSpec::Erp(dataset.Bounds().Center());
  } else if (dist == "fd") {
    *spec = DistanceSpec::Frechet();
  } else {
    return false;
  }
  return true;
}

/// A corpus ready to serve, remembering how it was loaded. For a v4
/// snapshot the mapping (and its prebuilt grid section) lives in `mapped`,
/// which must stay in scope as long as the service/engine runs; `dataset`
/// is a borrowed copy sharing the mapping keepalive. Anything else is a
/// plain heap load.
struct ServingSource {
  Dataset dataset;
  std::optional<MmapSnapshot> mapped;
  double load_seconds = 0;
  const char* tier = "heap";
};

/// Loads --data for serving: v4 snapshots via zero-copy mmap (honouring
/// --willneed prefetch), everything else through LoadDataset. Returns 0 on
/// success, else the process exit code (already reported).
int LoadServingCorpus(const Flags& flags, const std::string& path,
                      ServingSource* out) {
  Stopwatch watch;
  if (IsSnapshotFile(path)) {
    const Result<SnapshotInfo> probe = ProbeSnapshot(path);
    if (!probe.ok()) return Fail(probe.status().ToString());
    if (probe.value().version == kSnapshotVersionMapped) {
      MmapOptions mmap_options;
      mmap_options.willneed = flags.GetBool("willneed", false);
      Result<MmapSnapshot> opened = MmapSnapshot::Open(path, mmap_options);
      if (!opened.ok()) return Fail(opened.status().ToString());
      out->mapped.emplace(opened.MoveValue());
      out->dataset = out->mapped->dataset();
      out->load_seconds = watch.Seconds();
      out->tier = out->mapped->compressed()
                      ? "v4 compressed columns (decoded at open)"
                      : "v4 mmap (zero-copy)";
      return 0;
    }
  }
  Result<Dataset> loaded = LoadDataset(path, path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  out->dataset = loaded.MoveValue();
  out->load_seconds = watch.Seconds();
  return 0;
}

const char* SectionTypeName(uint32_t type) {
  switch (type) {
    case kV4SectionOffsets: return "offsets";
    case kV4SectionPool: return "pool";
    case kV4SectionXs: return "xs";
    case kV4SectionYs: return "ys";
    case kV4SectionGrid: return "grid";
    case kV4SectionCompressed: return "compressed";
    default: return "unknown";
  }
}

int CmdGenerate(const Flags& flags) {
  const std::string profile_name = flags.GetString("profile", "porto");
  const int count = static_cast<int>(flags.GetInt("count", 500));
  TaxiProfile profile;
  if (profile_name == "porto") {
    profile = PortoProfile(count);
  } else if (profile_name == "xian") {
    profile = XianProfile(count);
  } else if (profile_name == "beijing") {
    profile = BeijingProfile(count);
  } else {
    return Fail("unknown --profile (porto|xian|beijing)");
  }
  profile.seed = static_cast<uint64_t>(flags.GetInt("seed", profile.seed));
  const Dataset dataset = GenerateTaxiDataset(profile);
  const std::string out = flags.GetString("out", "corpus.csv");
  const Status st = WriteTrajectoryCsv(dataset, out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %d trajectories (%s profile) to %s\n", dataset.size(),
              profile.name.c_str(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) return Fail("--data=<csv|snap> required");
  // Snapshot files first report their on-disk shape: format version and,
  // for live (v3) snapshots, the base/delta generation split.
  if (IsSnapshotFile(path)) {
    const Result<SnapshotInfo> probe = ProbeSnapshot(path);
    if (!probe.ok()) return Fail(probe.status().ToString());
    const SnapshotInfo& info = probe.value();
    std::printf("snapshot:     v%u (%s)\n", info.version,
                info.version == kSnapshotVersionLive
                    ? "live: base + append journal"
                : info.version == kSnapshotVersionMapped
                    ? "page-aligned sections, mmap-servable"
                    : "single generation");
    std::printf("base:         %llu trajectories, %llu points\n",
                static_cast<unsigned long long>(info.base_trajectories),
                static_cast<unsigned long long>(info.base_points));
    if (info.version == kSnapshotVersionLive) {
      std::printf("journal:      %llu trajectories, %llu points (replayed "
                  "on load)\n",
                  static_cast<unsigned long long>(info.journal_trajectories),
                  static_cast<unsigned long long>(info.journal_points));
    }
    if (info.version == kSnapshotVersionMapped) {
      // All of this comes from the probe's prelude read — no payload page
      // is ever faulted to print it.
      if (info.compressed) {
        std::printf("tier:         compressed columns, resolution %g%s\n",
                    info.compressed_resolution,
                    info.compressed_residuals
                        ? ", residuals (bit-exact)"
                        : " (quantized)");
      } else {
        std::printf("tier:         pooled (zero-copy servable)\n");
      }
      std::printf("layout:       %zu sections, %s, %.1f bytes/trajectory\n",
                  info.sections.size(),
                  info.page_aligned ? "page-aligned" : "UNALIGNED",
                  info.bytes_per_trajectory);
      for (const SnapshotSectionInfo& section : info.sections) {
        std::printf("  section %-10s offset %10llu  length %10llu\n",
                    SectionTypeName(section.type),
                    static_cast<unsigned long long>(section.offset),
                    static_cast<unsigned long long>(section.length));
      }
    }
  }
  Stopwatch load_watch;
  const Result<Dataset> loaded = LoadDataset(path, path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const double load_seconds = load_watch.Seconds();
  const Dataset& dataset = loaded.value();
  const DatasetStats s = dataset.Stats();
  std::printf("trajectories: %zu\npoints:       %zu\nmean length:  %.1f\n",
              s.trajectory_count, s.point_count, s.mean_length);
  std::printf("length range: [%d, %d]\nbbox:         [%.6f, %.6f] x [%.6f, %.6f]\n",
              s.min_length, s.max_length, s.bounds.min_x, s.bounds.max_x,
              s.bounds.min_y, s.bounds.max_y);
  std::printf("pool bytes:   %zu\nload time:    %.3f s\n", s.pool_bytes,
              load_seconds);

  // Grid-index shape at the given (or derived) cell size, so storage-layout
  // regressions show up in numbers rather than in a profiler.
  if (!dataset.empty()) {
    double cell = flags.GetDouble("cell", 0);
    if (cell <= 0) cell = DefaultCellSize(s.bounds);
    const GridIndex index(dataset, cell);
    const GridIndexStats& g = index.stats();
    std::printf("grid index:   cell size %.6f%s, %zu cells, %zu entries, "
                "%zu bytes, built in %.3f s\n",
                g.cell_size, flags.GetDouble("cell", 0) <= 0 ? " (derived)" : "",
                g.cell_count, g.entry_count, g.index_bytes, g.build_seconds);
  }
  return 0;
}

int CmdSearch(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) return Fail("--data=<csv|snap> required");
  ServingSource source;
  if (const int rc = LoadServingCorpus(flags, path, &source)) return rc;
  const Dataset& dataset = source.dataset;

  // Query source: a slice of a corpus trajectory, or an external file.
  Trajectory query;
  int excluded_id = -1;
  const std::string query_file = flags.GetString("query-file", "");
  if (!query_file.empty()) {
    const Result<Dataset> q = ReadTrajectoryCsv(query_file, query_file);
    if (!q.ok()) return Fail(q.status().ToString());
    query = Trajectory(q.value()[0].View());
  } else {
    const int id = static_cast<int>(flags.GetInt("query-id", 0));
    if (id < 0 || id >= dataset.size()) return Fail("--query-id out of range");
    const TrajectoryRef base = dataset[id];
    const int from = static_cast<int>(flags.GetInt("from", 0));
    const int to = static_cast<int>(
        flags.GetInt("to", std::min(base.size() - 1, from + 19)));
    if (from < 0 || to < from || to >= base.size()) {
      return Fail("--from/--to out of range");
    }
    std::vector<Point> pts(base.points().begin() + from,
                           base.points().begin() + to + 1);
    query = Trajectory(std::move(pts));
    excluded_id = id;
  }

  EngineOptions options;
  if (!ParseSpec(flags, dataset, &options.spec)) {
    return Fail("unknown --dist (dtw|edr|erp|fd)");
  }
  const std::string dist = flags.GetString("dist", "dtw");
  options.top_k = static_cast<int>(flags.GetInt("k", 5));
  options.mu = flags.GetDouble("mu", 0.2);
  options.use_gbp = flags.GetBool("gbp", true);
  options.use_kpf = flags.GetBool("kpf", true);
  options.threads = static_cast<int>(flags.GetInt("threads", 1));
  options.order_candidates = flags.GetBool("order", true);
  options.prebuilt_grid =
      source.mapped.has_value() ? source.mapped->grid() : nullptr;

  const SearchEngine engine(&dataset, options);
  Stopwatch watch;
  QueryStats stats;
  const std::vector<EngineHit> hits = engine.Query(query, &stats, excluded_id);
  std::printf("query: %d points, distance: %s, corpus: %d trajectories "
              "(%s, loaded in %.3f s)\n",
              query.size(), dist.c_str(), dataset.size(), source.tier,
              source.load_seconds);
  for (size_t i = 0; i < hits.size(); ++i) {
    std::printf("#%zu  traj %d  points [%d..%d]  distance %.6f\n", i + 1,
                hits[i].trajectory_id, hits[i].result.range.start,
                hits[i].result.range.end, hits[i].result.distance);
  }
  if (hits.empty()) {
    std::printf("no candidates survived pruning; retry with --mu=0.05 or "
                "--gbp=false\n");
  }
  std::printf("%.3f s (prune %.3f s, search %.3f s, %d searched, %d pruned)\n",
              watch.Seconds(), stats.prune_seconds, stats.search_seconds,
              stats.searched, stats.pruned_by_bound);
  std::printf("engine split: bound checks %.3f s, pair search %.3f s\n",
              stats.bound_seconds, stats.pair_search_seconds);
  std::printf("funnel: %d candidates -> %d skipped, %d bound-pruned, %d dp "
              "runs (%d abandoned, %d kept)\n",
              stats.candidates_after_gbp, stats.skipped,
              stats.pruned_by_bound, stats.searched, stats.abandoned,
              stats.searched - stats.abandoned);
  std::printf("execution: %d worker thread%s, shared top-K threshold, "
              "candidates %s\n",
              options.threads, options.threads == 1 ? "" : "s",
              options.order_candidates ? "ordered most-promising-first"
                                       : "in id order");
  return 0;
}

int CmdSnapshot(const Flags& flags) {
  const std::string in = flags.GetString("in", flags.GetString("data", ""));
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty()) {
    return Fail("--in=<csv|snap> and --out=<csv|snap> required");
  }
  Stopwatch load_watch;
  const Result<Dataset> loaded = LoadDataset(in, in);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const double load_seconds = load_watch.Seconds();

  const bool to_snapshot =
      out.size() >= 5 && out.compare(out.size() - 5, 5, ".snap") == 0;
  const std::string format = flags.GetString("format", "v2");
  const bool compress = flags.GetBool("compress", false);
  const char* written_as = "csv";
  Stopwatch write_watch;
  Status st;
  if (!to_snapshot) {
    st = WriteTrajectoryCsv(loaded.value(), out);
  } else if (format == "v4" || compress) {
    V4WriteOptions v4;
    v4.compress = compress;
    v4.codec.resolution = flags.GetDouble("resolution", 1e-7);
    v4.codec.store_residuals = flags.GetBool("residuals", false);
    v4.include_grid = flags.GetBool("grid", true);
    st = WriteSnapshotV4(loaded.value(), out, v4);
    written_as = compress ? "snapshot v4, compressed columns"
                          : "snapshot v4, zero-copy servable";
  } else if (format == "v1") {
    st = WriteSnapshotV1(loaded.value(), out);
    written_as = "snapshot v1";
  } else if (format == "v2") {
    st = WriteSnapshot(loaded.value(), out);
    written_as = "snapshot v2";
  } else {
    return Fail("unknown --format (v1|v2|v4)");
  }
  if (!st.ok()) return Fail(st.ToString());
  std::printf("converted %d trajectories: read %s in %.3f s, wrote %s (%s) "
              "in %.3f s\n",
              loaded.value().size(), in.c_str(), load_seconds, out.c_str(),
              written_as, write_watch.Seconds());
  return 0;
}

int CmdBatch(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) return Fail("--data=<csv|snap> required");
  // `source` outlives the service: it owns the mmap keepalive and the
  // prebuilt grid the engines may borrow.
  ServingSource source;
  if (const int rc = LoadServingCorpus(flags, path, &source)) return rc;

  const std::string query_path = flags.GetString("queries", "");
  if (query_path.empty()) return Fail("--queries=<csv|snap> required");
  const Result<Dataset> query_set = LoadDataset(query_path, query_path);
  if (!query_set.ok()) return Fail(query_set.status().ToString());

  ServiceOptions options;
  if (!ParseSpec(flags, source.dataset, &options.engine.spec)) {
    return Fail("unknown --dist (dtw|edr|erp|fd)");
  }
  options.engine.top_k = static_cast<int>(flags.GetInt("k", 5));
  options.engine.mu = flags.GetDouble("mu", 0.2);
  options.engine.use_gbp = flags.GetBool("gbp", true);
  options.engine.use_kpf = flags.GetBool("kpf", true);
  options.engine.threads = static_cast<int>(flags.GetInt("threads", 1));
  options.engine.order_candidates = flags.GetBool("order", true);
  options.shards = static_cast<int>(flags.GetInt("shards", 4));
  options.worker_threads = static_cast<int>(flags.GetInt("workers", 0));
  options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache", 256));
  const int repeat = static_cast<int>(flags.GetInt("repeat", 1));
  const bool verbose = flags.GetBool("verbose", false);
  options.engine.prebuilt_grid =
      source.mapped.has_value() ? source.mapped->grid() : nullptr;

  const int corpus_size = source.dataset.size();
  QueryService service(std::move(source.dataset), options);
  std::printf("corpus: %d trajectories (%s, loaded in %.3f s), %d shards, "
              "%d workers, cache %zu entries\n",
              corpus_size, source.tier, source.load_seconds,
              service.shard_count(), service.options().worker_threads,
              options.cache_capacity);
  std::printf("execution: one scheduler pool for shard fan-out and engine "
              "workers (%d tasks/query);\n           one shared top-K "
              "threshold across shards and workers, candidates %s\n",
              service.shard_count() * std::max(1, options.engine.threads),
              options.engine.order_candidates
                  ? "ordered most-promising-first"
                  : "in id order");

  std::vector<TrajectoryView> queries;
  queries.reserve(static_cast<size_t>(query_set.value().size()));
  for (const TrajectoryRef q : query_set.value()) {
    queries.push_back(q.View());
  }

  Stopwatch watch;
  std::vector<std::vector<EngineHit>> results;
  for (int r = 0; r < repeat; ++r) {
    results = service.SubmitBatch(queries);
  }
  const double seconds = watch.Seconds();

  if (verbose) {
    for (size_t qi = 0; qi < results.size(); ++qi) {
      std::printf("query %zu (%zu points):\n", qi, queries[qi].size());
      for (size_t i = 0; i < results[qi].size(); ++i) {
        const EngineHit& hit = results[qi][i];
        std::printf("  #%zu  traj %d  points [%d..%d]  distance %.6f\n",
                    i + 1, hit.trajectory_id, hit.result.range.start,
                    hit.result.range.end, hit.result.distance);
      }
    }
  }

  const ServiceStats stats = service.Stats();
  const double total_queries =
      static_cast<double>(queries.size()) * static_cast<double>(repeat);
  std::printf("%zu queries x %d passes in %.3f s  (%.1f queries/s)\n",
              queries.size(), repeat, seconds, total_queries / seconds);
  std::printf("cache: %llu hits, %llu misses (hit rate %.1f%%), "
              "%llu evictions\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              stats.HitRate() * 100.0,
              static_cast<unsigned long long>(stats.cache_evictions));
  std::printf("engine split (cpu s, all shards): prune %.3f, bound checks "
              "%.3f, pair search %.3f\n",
              stats.prune_seconds, stats.bound_seconds,
              stats.pair_search_seconds);
  std::printf("service split (cpu s): cache lookups %.3f, top-K merge %.3f\n",
              stats.cache_lookup_seconds, stats.merge_seconds);
  if (source.mapped.has_value()) {
    source.mapped->UpdateGauges(&service.metrics());
  }
  const obs::RegistrySnapshot snap = service.metrics().Snapshot();
  PrintPercentiles(snap, "service.query_seconds", "latency (per query)");
  PrintPercentiles(snap, "service.batch_seconds", "latency (per batch)");
  PrintFunnels(snap);
  const std::string statsz_out = flags.GetString("statsz", "");
  if (!statsz_out.empty()) {
    if (!WriteTextFile(statsz_out, obs::StatszJson(snap))) {
      return Fail("cannot write " + statsz_out);
    }
    std::printf("wrote statsz JSON to %s\n", statsz_out.c_str());
  }
  return 0;
}

void PrintShape(const char* label, const CorpusShape& shape) {
  std::printf("%s: base %d trajectories (generation %llu, %llu "
              "compactions), delta %d trajectories / %zu points\n",
              label, shape.base_trajectories,
              static_cast<unsigned long long>(shape.generation),
              static_cast<unsigned long long>(shape.base_generation),
              shape.delta_trajectories, shape.delta_points);
}

int CmdIngest(const Flags& flags) {
  const std::string data_path = flags.GetString("data", "");
  const std::string add_path = flags.GetString("add", "");
  if (data_path.empty() || add_path.empty()) {
    return Fail("--data=<csv|snap> and --add=<csv|snap> required");
  }
  Stopwatch load_watch;
  Result<Dataset> loaded = LoadDataset(data_path, data_path);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Result<Dataset> incoming = LoadDataset(add_path, add_path);
  if (!incoming.ok()) return Fail(incoming.status().ToString());
  const double load_seconds = load_watch.Seconds();

  ServiceOptions options;
  if (!ParseSpec(flags, loaded.value(), &options.engine.spec)) {
    return Fail("unknown --dist (dtw|edr|erp|fd)");
  }
  options.engine.top_k = static_cast<int>(flags.GetInt("k", 5));
  options.engine.mu = flags.GetDouble("mu", 0.2);
  options.engine.use_gbp = flags.GetBool("gbp", true);
  options.engine.use_kpf = flags.GetBool("kpf", true);
  options.shards = static_cast<int>(flags.GetInt("shards", 4));
  options.worker_threads = static_cast<int>(flags.GetInt("workers", 0));
  options.compact_delta_trajectories =
      static_cast<size_t>(flags.GetInt("threshold", 1024));
  const int batch = std::max(1, static_cast<int>(flags.GetInt("batch", 64)));

  QueryService service(loaded.MoveValue(), options);
  std::printf("loaded %s + %s in %.3f s; serving %d trajectories on %d "
              "shards (auto-compact at %zu delta trajectories)\n",
              data_path.c_str(), add_path.c_str(), load_seconds,
              service.corpus_size(), service.shard_count(),
              options.compact_delta_trajectories);

  // Append the incoming file into the running service, batch by batch —
  // queries could be served concurrently the whole time.
  const Dataset& extra = incoming.value();
  Stopwatch ingest_watch;
  std::vector<TrajectoryView> views;
  views.reserve(static_cast<size_t>(batch));
  for (int begin = 0; begin < extra.size(); begin += batch) {
    views.clear();
    const int end = std::min(extra.size(), begin + batch);
    for (int i = begin; i < end; ++i) views.push_back(extra[i].View());
    service.AppendBatch(views);
  }
  const double ingest_seconds = ingest_watch.Seconds();

  const ServiceStats stats = service.Stats();
  std::printf("ingested %llu trajectories (%llu points) in %llu batches in "
              "%.3f s (%.0f trajectories/s)\n",
              static_cast<unsigned long long>(stats.appends),
              static_cast<unsigned long long>(stats.appended_points),
              static_cast<unsigned long long>(stats.append_batches),
              ingest_seconds,
              static_cast<double>(stats.appends) /
                  std::max(ingest_seconds, 1e-12));
  std::printf("compactions:  %llu background, %.3f s rebuilding\n",
              static_cast<unsigned long long>(stats.compactions),
              stats.compaction_seconds);
  PrintShape("serving", service.Shape());
  {
    const obs::RegistrySnapshot snap = service.metrics().Snapshot();
    PrintPercentiles(snap, "live.append_seconds", "append latency");
    PrintPercentiles(snap, "live.adopt_seconds", "compaction-swap latency");
    std::printf("storage gauges: generation %lld (%lld compactions), delta "
                "%lld trajectories / %lld points\n",
                static_cast<long long>(snap.gauge("live.generation")),
                static_cast<long long>(snap.gauge("live.base_generation")),
                static_cast<long long>(snap.gauge("live.delta_trajectories")),
                static_cast<long long>(snap.gauge("live.delta_points")));
  }

  if (flags.GetBool("compact", false)) {
    Stopwatch compact_watch;
    const bool compacted = service.Compact();
    std::printf("forced compaction: %s (%.3f s)\n",
                compacted ? "merged delta into base" : "delta already empty",
                compact_watch.Seconds());
    PrintShape("serving", service.Shape());
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    const Status st = service.SaveSnapshot(out);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s (%s)\n", out.c_str(),
                service.Shape().delta_trajectories > 0
                    ? "v3: base + append journal"
                    : "v2: single generation");
  }
  return 0;
}

/// Runs a workload through a QueryService and exports the metrics registry:
/// human tables by default, statsz JSON with --json (stdout) or --out=FILE;
/// --trace includes the retained trace spans in the JSON.
int CmdStatsz(const Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) return Fail("--data=<csv|snap> required");
  ServingSource source;
  if (const int rc = LoadServingCorpus(flags, path, &source)) return rc;

  const std::string query_path = flags.GetString("queries", "");
  if (query_path.empty()) return Fail("--queries=<csv|snap> required");
  const Result<Dataset> query_set = LoadDataset(query_path, query_path);
  if (!query_set.ok()) return Fail(query_set.status().ToString());

  ServiceOptions options;
  if (!ParseSpec(flags, source.dataset, &options.engine.spec)) {
    return Fail("unknown --dist (dtw|edr|erp|fd)");
  }
  options.engine.top_k = static_cast<int>(flags.GetInt("k", 5));
  options.engine.mu = flags.GetDouble("mu", 0.2);
  options.engine.use_gbp = flags.GetBool("gbp", true);
  options.engine.use_kpf = flags.GetBool("kpf", true);
  options.engine.threads = static_cast<int>(flags.GetInt("threads", 1));
  options.shards = static_cast<int>(flags.GetInt("shards", 4));
  options.worker_threads = static_cast<int>(flags.GetInt("workers", 0));
  options.cache_capacity = static_cast<size_t>(flags.GetInt("cache", 256));
  const int repeat = static_cast<int>(flags.GetInt("repeat", 1));
  options.engine.prebuilt_grid =
      source.mapped.has_value() ? source.mapped->grid() : nullptr;

  QueryService service(std::move(source.dataset), options);
  std::vector<TrajectoryView> queries;
  queries.reserve(static_cast<size_t>(query_set.value().size()));
  for (const TrajectoryRef q : query_set.value()) {
    queries.push_back(q.View());
  }
  for (int r = 0; r < repeat; ++r) {
    (void)service.SubmitBatch(queries);
  }

  // Publish the storage gauges last so the exported registry reflects the
  // mapping's residency after the workload touched it.
  if (source.mapped.has_value()) {
    source.mapped->UpdateGauges(&service.metrics());
  }
  const obs::RegistrySnapshot snap = service.metrics().Snapshot();
  const std::string out = flags.GetString("out", "");
  const bool json = flags.GetBool("json", false) || !out.empty();
  if (json) {
    std::vector<obs::TraceSpan> spans;
    const bool with_trace = flags.GetBool("trace", false);
    if (with_trace) spans = service.metrics().trace().Snapshot();
    const std::string payload =
        obs::StatszJson(snap, with_trace ? &spans : nullptr);
    if (out.empty()) {
      std::fputs(payload.c_str(), stdout);
    } else if (!WriteTextFile(out, payload)) {
      return Fail("cannot write " + out);
    } else {
      std::printf("wrote statsz JSON to %s\n", out.c_str());
    }
  } else {
    std::fputs(obs::StatszTable(snap).c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const Flags flags(argc, argv);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "snapshot") return CmdSnapshot(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "ingest") return CmdIngest(flags);
  if (command == "statsz") return CmdStatsz(flags);
  std::fprintf(stderr,
               "usage: trajsearch_cli "
               "<generate|stats|search|snapshot|batch|ingest|statsz> "
               "[--flags]\n"
               "see the header comment of examples/trajsearch_cli.cpp\n");
  return command.empty() ? 0 : 1;
}
