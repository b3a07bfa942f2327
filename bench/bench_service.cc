// Service-layer benchmark: aggregate queries/sec of the sharded QueryService
// vs shard count, result identity against the unsharded SearchEngine,
// result-cache hit rate under repeated traffic, a storage-layout section
// that measures the pooled dataset / CSR grid / snapshot-v2 stack against
// reimplementations of the pre-refactor layouts in the same run, and an
// execution-model section that measures the Bind/Run query plans (bind-once
// state + early abandoning) against the pre-refactor stateless search path.
//
// Flags: --scale (corpus multiplier), --queries, --seed, --passes,
// --json=<path> (write the storage-layout metrics as JSON, e.g.
// BENCH_pr2.json), --json-pr3=<path> (write the execution-model metrics,
// e.g. BENCH_pr3.json), --json-pr4=<path> (write the threshold-sharing
// metrics, e.g. BENCH_pr4.json), --json-pr5=<path> (write the live-corpus
// ingest metrics, e.g. BENCH_pr5.json), --json-pr6=<path> (write the
// observability overhead/funnel metrics, e.g. BENCH_pr6.json),
// --json-pr7=<path> (write the SIMD kernel metrics, e.g. BENCH_pr7.json),
// --json-pr8=<path> (write the multi-sweep batching metrics, e.g.
// BENCH_pr8.json), --json-pr10=<path> (write the mmap-serving storage-tier
// metrics, e.g. BENCH_pr10.json), --statsz=<path> (dump the final registry
// snapshot as statsz JSON), --probe=1 (print the SIMD dispatch probe and
// exit).

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench/bench_common.h"
#include "core/fingerprint.h"
#include "distance/cost_model.h"
#include "distance/dp.h"
#include "io/snapshot.h"
#include "io/snapshot_v4.h"
#include "obs/export.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/cma.h"
#include "search/searcher.h"
#include "search/topk.h"
#include "service/query_service.h"
#include "tests/legacy_baseline.h"
#include "util/rng.h"
#include "util/simd.h"

namespace trajsearch::bench {
namespace {

// ---------------------------------------------------------------------------
// Pre-refactor storage baselines (PR-1 layout), so every run records the new
// layout against the one it replaced rather than against stale numbers. The
// legacy hash-map grid itself lives in tests/legacy_baseline.h, shared with
// the pooled-storage equivalence tests.
// ---------------------------------------------------------------------------

using testing::LegacyGrid;

std::vector<TrajectoryView> CorpusViews(const Dataset& dataset) {
  std::vector<TrajectoryView> views;
  views.reserve(static_cast<size_t>(dataset.size()));
  for (const TrajectoryRef t : dataset) views.push_back(t.View());
  return views;
}

/// Pre-refactor snapshot load: parses a v1 file the way PR 1's reader did —
/// header, length table, then one heap allocation + block read per
/// trajectory — instead of a single contiguous read into the pool.
Dataset LegacyReadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  in.read(magic, sizeof(magic));
  uint32_t version = 0, name_length = 0;
  uint64_t trajectory_count = 0, point_count = 0, fingerprint = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&name_length), sizeof(name_length));
  in.read(reinterpret_cast<char*>(&trajectory_count),
          sizeof(trajectory_count));
  in.read(reinterpret_cast<char*>(&point_count), sizeof(point_count));
  in.read(reinterpret_cast<char*>(&fingerprint), sizeof(fingerprint));
  std::string name(name_length, '\0');
  in.read(name.data(), static_cast<std::streamsize>(name.size()));
  std::vector<uint32_t> lengths(trajectory_count);
  in.read(reinterpret_cast<char*>(lengths.data()),
          static_cast<std::streamsize>(lengths.size() * sizeof(uint32_t)));
  std::vector<Trajectory> trajectories;
  trajectories.reserve(lengths.size());
  for (const uint32_t len : lengths) {
    std::vector<Point> points(len);
    in.read(reinterpret_cast<char*>(points.data()),
            static_cast<std::streamsize>(points.size() * sizeof(Point)));
    trajectories.emplace_back(std::move(points));
  }
  Dataset dataset(name);
  dataset.AddAll(std::move(trajectories));
  // The v1 reader verified the content checksum on load; keep the
  // comparison honest by paying the same cost here.
  if (Fingerprint(dataset) != fingerprint) {
    std::fprintf(stderr, "legacy snapshot checksum mismatch\n");
  }
  return dataset;
}

/// Best-of-N wall-clock seconds of `fn`.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.Seconds());
  }
  return best;
}

/// Best-of-N seconds to *construct* the value `make` returns; the value is
/// destroyed after the stopwatch is read, so teardown cost (per-node frees
/// in the legacy hash map vs a few vector frees in the CSR index) never
/// leaks into the build timing of either side.
template <typename Fn>
double BestBuildSeconds(int reps, Fn&& make) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    auto built = make();
    best = std::min(best, watch.Seconds());
    (void)built;
  }
  return best;
}

struct StorageMetrics {
  size_t corpus_trajectories = 0;
  size_t corpus_points = 0;
  double grid_build_seconds = 0;
  double grid_build_seconds_legacy = 0;
  double grid_query_seconds = 0;
  double grid_query_seconds_legacy = 0;
  double snapshot_load_seconds = 0;
  double snapshot_load_seconds_legacy = 0;
  double query_latency_seconds = 0;
  double service_qps = 0;
};

void WriteMetricsJson(const StorageMetrics& m, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"pr2_storage\",\n"
               "  \"corpus_trajectories\": %zu,\n"
               "  \"corpus_points\": %zu,\n"
               "  \"grid_build_seconds\": %.6f,\n"
               "  \"grid_build_seconds_legacy\": %.6f,\n"
               "  \"grid_query_seconds\": %.6f,\n"
               "  \"grid_query_seconds_legacy\": %.6f,\n"
               "  \"snapshot_load_seconds\": %.6f,\n"
               "  \"snapshot_load_seconds_legacy\": %.6f,\n"
               "  \"query_latency_seconds\": %.6f,\n"
               "  \"service_qps\": %.1f\n"
               "}\n",
               m.corpus_trajectories, m.corpus_points, m.grid_build_seconds,
               m.grid_build_seconds_legacy, m.grid_query_seconds,
               m.grid_query_seconds_legacy, m.snapshot_load_seconds,
               m.snapshot_load_seconds_legacy, m.query_latency_seconds,
               m.service_qps);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

struct Workbench {
  Dataset corpus;
  std::vector<Trajectory> queries;
  std::vector<int> excluded;
};

Workbench MakeWorkbench(const BenchConfig& config) {
  Workbench w;
  // 500-trajectory Porto corpus at scale 1 (the acceptance corpus size).
  TaxiProfile profile = PortoProfile(static_cast<int>(500 * config.scale));
  w.corpus = GenerateTaxiDataset(profile);
  // Queries long enough that the per-shard DP work dominates pool dispatch
  // (a ~40-point query against a 500-trajectory Porto corpus is a few ms of
  // search), so shard scaling is visible on multi-core machines.
  WorkloadOptions wopts;
  wopts.count = std::max(8, config.queries * 4);
  wopts.min_length = 30;
  wopts.max_length = 50;
  wopts.seed = config.seed;
  Workload workload = SampleQueries(w.corpus, wopts);
  w.queries = std::move(workload.queries);
  w.excluded = std::move(workload.source_ids);
  return w;
}

EngineOptions ServingEngineOptions(const Dataset& corpus) {
  EngineOptions options;
  options.spec = DistanceSpec::Dtw();
  options.use_gbp = true;
  options.mu = 0.1;
  options.use_kpf = true;
  options.sample_rate = 1.0;  // sound bound: sharded == unsharded results
  options.top_k = 10;
  (void)corpus;
  return options;
}

std::vector<TrajectoryView> Views(const std::vector<Trajectory>& queries) {
  std::vector<TrajectoryView> views;
  views.reserve(queries.size());
  for (const Trajectory& q : queries) views.push_back(q.View());
  return views;
}

/// True if every hit list matches (same ids, same distances, same order).
bool Identical(const std::vector<std::vector<EngineHit>>& a,
               const std::vector<std::vector<EngineHit>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t qi = 0; qi < a.size(); ++qi) {
    if (a[qi].size() != b[qi].size()) return false;
    for (size_t i = 0; i < a[qi].size(); ++i) {
      if (a[qi][i].trajectory_id != b[qi][i].trajectory_id ||
          a[qi][i].result.distance != b[qi][i].result.distance) {
        return false;
      }
    }
  }
  return true;
}

void Main(int argc, char** argv) {
  const BenchConfig config = ParseBenchConfig(argc, argv);
  const Flags flags(argc, argv);
  const int passes = static_cast<int>(flags.GetInt("passes", 5));

  // --probe=1: print which vector ISA this build+CPU dispatches to and exit
  // (CI logs this so bench-number differences between runners are
  // diagnosable without running the full suite).
  if (flags.GetInt("probe", 0) != 0) {
    std::printf("dispatch: isa=%s, lanes=%d, runtime %s\n", simd::IsaName(),
                simd::Width(),
                simd::Enabled() ? "enabled" : "disabled (scalar)");
    return;
  }

  PrintHeader("[Service] Sharded serving throughput and cache hit rate");
  Workbench w = MakeWorkbench(config);
  const EngineOptions engine_options = ServingEngineOptions(w.corpus);
  const std::vector<TrajectoryView> queries = Views(w.queries);
  std::printf("corpus: %d trajectories, %zu queries, top-%d, DTW, "
              "GBP+KPF(r=1), %u hardware threads\n",
              w.corpus.size(), queries.size(), engine_options.top_k,
              std::thread::hardware_concurrency());

  // -------------------------------------------------------------------
  // Correctness: sharded service vs the unsharded single-query engine.
  // -------------------------------------------------------------------
  std::vector<std::vector<EngineHit>> reference(queries.size());
  {
    const SearchEngine engine(&w.corpus, engine_options);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      reference[qi] = engine.Query(queries[qi], nullptr, w.excluded[qi]);
    }
  }
  {
    ServiceOptions options;
    options.engine = engine_options;
    options.shards = 4;
    options.cache_capacity = 0;
    QueryService service(w.corpus, options);  // copies the corpus
    const std::vector<std::vector<EngineHit>> sharded =
        service.SubmitBatch(queries, w.excluded);
    std::printf("identity (4 shards vs unsharded engine): %s\n",
                Identical(reference, sharded) ? "IDENTICAL" : "MISMATCH");
  }

  // -------------------------------------------------------------------
  // Throughput vs shard count (cache off; every pass really searches).
  // -------------------------------------------------------------------
  TablePrinter table(
      {"Shards", "Workers", "Time (s)", "Queries/s", "Speedup"});
  double baseline_qps = 0;
  for (const int shards : {1, 2, 4, 8}) {
    ServiceOptions options;
    options.engine = engine_options;
    options.shards = shards;
    options.worker_threads = shards;
    options.cache_capacity = 0;
    QueryService service(w.corpus, options);
    service.SubmitBatch(queries, w.excluded);  // warm-up pass
    Stopwatch watch;
    for (int p = 0; p < passes; ++p) {
      service.SubmitBatch(queries, w.excluded);
    }
    const double seconds = watch.Seconds();
    const double qps =
        static_cast<double>(queries.size()) * passes / seconds;
    if (baseline_qps == 0) baseline_qps = qps;
    table.AddRow({std::to_string(service.shard_count()),
                  std::to_string(service.options().worker_threads),
                  TablePrinter::Num(seconds, 3), TablePrinter::Num(qps, 1),
                  TablePrinter::Num(qps / baseline_qps, 2) + "x"});
  }
  table.Print();

  // -------------------------------------------------------------------
  // Cache: repeated traffic should be absorbed by the LRU.
  // -------------------------------------------------------------------
  {
    ServiceOptions options;
    options.engine = engine_options;
    options.shards = 4;
    options.cache_capacity = 4096;
    QueryService service(w.corpus, options);
    TablePrinter cache_table({"Pass", "Time (s)", "Hit rate"});
    for (int p = 1; p <= 3; ++p) {
      Stopwatch watch;
      service.SubmitBatch(queries, w.excluded);
      cache_table.AddRow({std::to_string(p),
                          TablePrinter::Num(watch.Seconds(), 4),
                          TablePrinter::Num(service.Stats().HitRate() * 100, 1) +
                              "%"});
    }
    cache_table.Print();
    const ServiceStats stats = service.Stats();
    std::printf("cache totals: %llu hits / %llu misses over %llu queries\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.queries));
  }

  // -------------------------------------------------------------------
  // Storage layout: pooled dataset / CSR grid / snapshot v2 vs the PR-1
  // layouts they replaced, measured head to head in this same run.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR2] Storage layout: pool + CSR grid + snapshot v2 "
                "vs legacy layouts");
    StorageMetrics m;
    const DatasetStats stats = w.corpus.Stats();
    m.corpus_trajectories = stats.trajectory_count;
    m.corpus_points = stats.point_count;
    const int reps = 3;

    const double cell = DefaultCellSize(w.corpus.Bounds());
    const std::vector<TrajectoryView> corpus_views = CorpusViews(w.corpus);

    m.grid_build_seconds = BestBuildSeconds(
        reps, [&]() { return GridIndex(w.corpus, cell); });
    m.grid_build_seconds_legacy = BestBuildSeconds(
        reps, [&]() { return LegacyGrid(corpus_views, cell); });

    const GridIndex index(w.corpus, cell);
    const LegacyGrid legacy(corpus_views, cell);
    // Equal counts first, then timings over the same query set.
    bool counts_match = true;
    for (const TrajectoryView& q : queries) {
      if (index.CloseCounts(q) != legacy.CloseCounts(q, w.corpus.size())) {
        counts_match = false;
      }
    }
    std::vector<std::pair<int, int>> scratch;
    m.grid_query_seconds = BestSeconds(reps, [&]() {
                             for (const TrajectoryView& q : queries) {
                               index.CloseCounts(q, &scratch);
                             }
                           }) /
                           static_cast<double>(queries.size());
    m.grid_query_seconds_legacy =
        BestSeconds(reps, [&]() {
          for (const TrajectoryView& q : queries) {
            legacy.CloseCounts(q, w.corpus.size());
          }
        }) /
        static_cast<double>(queries.size());

    const std::string v2_path = "bench_pr2_corpus.snap";
    const std::string v1_path = "bench_pr2_corpus_v1.snap";
    WriteSnapshot(w.corpus, v2_path);
    WriteSnapshotV1(w.corpus, v1_path);
    m.snapshot_load_seconds =
        BestBuildSeconds(reps, [&]() { return ReadSnapshot(v2_path); });
    m.snapshot_load_seconds_legacy = BestBuildSeconds(
        reps, [&]() { return LegacyReadSnapshot(v1_path); });
    std::remove(v2_path.c_str());
    std::remove(v1_path.c_str());

    // Single-query latency through the serving stack (4 shards, no cache).
    {
      ServiceOptions options;
      options.engine = engine_options;
      options.shards = 4;
      options.cache_capacity = 0;
      QueryService service(w.corpus, options);
      service.SubmitBatch(queries, w.excluded);  // warm-up
      Stopwatch watch;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        service.Submit(queries[qi], w.excluded[qi]);
      }
      m.query_latency_seconds =
          watch.Seconds() / static_cast<double>(queries.size());
      Stopwatch batch_watch;
      service.SubmitBatch(queries, w.excluded);
      m.service_qps = static_cast<double>(queries.size()) /
                      batch_watch.Seconds();
    }

    TablePrinter layout({"Metric", "Pooled/CSR/v2", "Legacy", "Speedup"});
    auto row = [&](const std::string& name, double now, double before) {
      layout.AddRow({name, TablePrinter::Num(now * 1e3, 3) + " ms",
                     TablePrinter::Num(before * 1e3, 3) + " ms",
                     TablePrinter::Num(before / std::max(now, 1e-12), 2) +
                         "x"});
    };
    row("grid build", m.grid_build_seconds, m.grid_build_seconds_legacy);
    row("grid query (per query)", m.grid_query_seconds,
        m.grid_query_seconds_legacy);
    row("snapshot load", m.snapshot_load_seconds,
        m.snapshot_load_seconds_legacy);
    layout.Print();
    std::printf("grid counts identical to legacy grid: %s\n",
                counts_match ? "IDENTICAL" : "MISMATCH");
    if (!counts_match) {
      // This line is CI's correctness gate for the CSR index; a divergence
      // must fail the smoke step, not just print.
      std::fprintf(stderr, "FATAL: CSR grid diverges from legacy grid\n");
      std::exit(1);
    }
    std::printf("service: %.3f ms/query (4 shards), %.1f queries/s batched\n",
                m.query_latency_seconds * 1e3, m.service_qps);

    const std::string json = flags.GetString("json", "");
    if (!json.empty()) WriteMetricsJson(m, json);
  }

  // -------------------------------------------------------------------
  // Execution model: bind-once query plans + bound-aware early abandoning
  // vs the PR-2 stateless per-pair search. Measured on the pair-search
  // stage itself (DTW / CMA, top-10) with every corpus trajectory as a
  // candidate — the dense-survivor regime the plan API targets; the serving
  // pipeline layers GBP/KPF on top of this stage (their timing split is
  // surfaced via QueryStats / ServiceStats).
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR3] Execution model: bind-once plans + early abandoning "
                "vs stateless search");
    const DistanceSpec spec = engine_options.spec;
    const int top_k = engine_options.top_k;
    const int reps = 5;
    const size_t candidate_pairs =
        queries.size() * static_cast<size_t>(w.corpus.size() - 1);

    enum class ExecMode {
      kStateless,       // PR-2: stateless CmaSearch per pair
      kPerPairBind,     // one warm plan, but rebound for every pair
      kBindOnce,        // one Bind per query, no cutoff
      kBindOnceCutoff,  // one Bind per query + live heap->Worst() cutoff
    };
    auto searcher = MakeSearcher(engine_options.algorithm, spec).MoveValue();

    auto run_mode = [&](ExecMode mode,
                        std::vector<std::vector<EngineHit>>* hits) {
      std::unique_ptr<QueryRun> plan = searcher->NewRun();
      hits->assign(queries.size(), {});
      Stopwatch watch;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const TrajectoryView query = queries[qi];
        if (mode == ExecMode::kBindOnce || mode == ExecMode::kBindOnceCutoff) {
          plan->Bind(query);
        }
        TopKHeap heap(top_k);
        for (int id = 0; id < w.corpus.size(); ++id) {
          if (id == w.excluded[qi]) continue;
          const TrajectoryRef data = w.corpus[id];
          if (data.empty()) continue;
          SearchResult result;
          switch (mode) {
            case ExecMode::kStateless:
              result = testing::LegacyStatelessSearch(
                  engine_options.algorithm, spec, nullptr, query, data);
              break;
            case ExecMode::kPerPairBind:
              plan->Bind(query);  // rebind cost paid per pair
              result = plan->Run(data, kNoCutoff);
              break;
            case ExecMode::kBindOnce:
              result = plan->Run(data, kNoCutoff);
              break;
            case ExecMode::kBindOnceCutoff:
              result = plan->Run(
                  data, heap.Full() ? heap.Worst() : kNoCutoff);
              break;
          }
          heap.Offer(EngineHit{id, result});
        }
        (*hits)[qi] = heap.Sorted();
      }
      return watch.Seconds();
    };

    auto best_mode_seconds = [&](ExecMode mode,
                                 std::vector<std::vector<EngineHit>>* hits) {
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        best = std::min(best, run_mode(mode, hits));
      }
      return best;
    };

    std::vector<std::vector<EngineHit>> ref_hits, mode_hits;
    const double stateless_s =
        best_mode_seconds(ExecMode::kStateless, &ref_hits);
    const double per_pair_s =
        best_mode_seconds(ExecMode::kPerPairBind, &mode_hits);
    const bool per_pair_identical = Identical(ref_hits, mode_hits);
    const double bind_once_s =
        best_mode_seconds(ExecMode::kBindOnce, &mode_hits);
    const bool bind_once_identical = Identical(ref_hits, mode_hits);
    const double cutoff_s =
        best_mode_seconds(ExecMode::kBindOnceCutoff, &mode_hits);
    const bool cutoff_identical = Identical(ref_hits, mode_hits);

    TablePrinter exec_table({"Search stage", "Time (s)", "Speedup"});
    auto exec_row = [&](const std::string& name, double seconds) {
      exec_table.AddRow({name, TablePrinter::Num(seconds, 4),
                         TablePrinter::Num(stateless_s / seconds, 2) + "x"});
    };
    exec_row("stateless per-pair (PR2)", stateless_s);
    exec_row("plan, rebind per pair", per_pair_s);
    exec_row("plan, bind once", bind_once_s);
    exec_row("plan, bind once + cutoff", cutoff_s);
    exec_table.Print();
    std::printf("%zu candidate pairs over %zu queries; results identical to "
                "stateless: rebind %s, bind-once %s, cutoff %s\n",
                candidate_pairs, queries.size(),
                per_pair_identical ? "yes" : "NO",
                bind_once_identical ? "yes" : "NO",
                cutoff_identical ? "yes" : "NO");
    if (!per_pair_identical || !bind_once_identical || !cutoff_identical) {
      // CI correctness gate: the plans must be hit-for-hit with PR-2.
      std::fprintf(stderr,
                   "FATAL: plan execution diverges from stateless search\n");
      std::exit(1);
    }

    const std::string json_pr3 = flags.GetString("json-pr3", "");
    if (!json_pr3.empty()) {
      FILE* f = std::fopen(json_pr3.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr3.c_str());
      } else {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pr3_execution_model\",\n"
            "  \"corpus_trajectories\": %d,\n"
            "  \"queries\": %zu,\n"
            "  \"candidate_pairs\": %zu,\n"
            "  \"stateless_seconds\": %.6f,\n"
            "  \"plan_rebind_per_pair_seconds\": %.6f,\n"
            "  \"plan_bind_once_seconds\": %.6f,\n"
            "  \"plan_bind_once_cutoff_seconds\": %.6f,\n"
            "  \"speedup_bind_once_vs_stateless\": %.3f,\n"
            "  \"speedup_cutoff_vs_stateless\": %.3f,\n"
            "  \"identical_results\": true\n"
            "}\n",
            w.corpus.size(), queries.size(), candidate_pairs, stateless_s,
            per_pair_s, bind_once_s, cutoff_s, stateless_s / bind_once_s,
            stateless_s / cutoff_s);
        std::fclose(f);
        std::printf("wrote %s\n", json_pr3.c_str());
      }
    }
  }

  // -------------------------------------------------------------------
  // Threshold sharing: the PR-4 execution model on the threaded/sharded
  // serving workload — the dense-survivor regime the plan API targets
  // (every corpus trajectory a candidate, as in the [PR3] section), served
  // through a 4-shard QueryService with 2 engine worker tasks per shard
  // (cache off, so every pass really searches). Two sound sub-workloads,
  // so every row is hit-for-hit identical to the unsharded serial engine:
  //
  //   abandon-only (no bound filter): the global SharedTopK's only lever is
  //     DP early abandoning inside QueryRun::Run — the baseline row.
  //   OSF bound (KPF at r=1.0): adds the sound bound filter; the ordered
  //     row additionally evaluates candidates by ascending cached bound,
  //     so the global threshold tightens at the front of the list.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR4] Shared top-K threshold: abandon-only vs OSF bound "
                "vs OSF + ordered candidates");
    const int shards = 4;
    const int engine_threads = 2;
    EngineOptions dense = engine_options;
    dense.use_gbp = false;  // dense survivors: all corpus trajectories
    dense.use_kpf = false;
    dense.threads = engine_threads;

    // Reference: unsharded serial engine over the same dense pipeline (all
    // three rows below must match it exactly).
    std::vector<std::vector<EngineHit>> dense_reference(queries.size());
    {
      EngineOptions serial = dense;
      serial.threads = 1;
      const SearchEngine engine(&w.corpus, serial);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        dense_reference[qi] = engine.Query(queries[qi], nullptr,
                                           w.excluded[qi]);
      }
    }

    struct Pr4Mode {
      const char* name;
      bool osf_bound;  // KPF at r=1.0 (sound) vs no bound filter
      bool order;
    };
    const Pr4Mode modes[] = {
        {"abandon-only, shared threshold", false, false},
        {"OSF bound, shared threshold", true, false},
        {"OSF bound, shared + ordered", true, true},
    };
    constexpr int kModes = 3;
    double seconds[kModes];
    bool identical[kModes];
    for (int m = 0; m < kModes; ++m) {
      ServiceOptions options;
      options.engine = dense;
      options.engine.use_kpf = modes[m].osf_bound;
      options.engine.sample_rate = 1.0;  // sound: shared == serial results
      options.engine.order_candidates = modes[m].order;
      options.shards = shards;
      options.cache_capacity = 0;
      QueryService service(w.corpus, options);
      const std::vector<std::vector<EngineHit>> got =
          service.SubmitBatch(queries, w.excluded);  // warm-up + identity
      identical[m] = Identical(dense_reference, got);
      double best = 1e300;
      for (int p = 0; p < passes; ++p) {
        Stopwatch watch;
        service.SubmitBatch(queries, w.excluded);
        best = std::min(best, watch.Seconds());
      }
      seconds[m] = best;
    }

    TablePrinter pr4_table({"Search stage", "Batch (s)", "vs abandon-only"});
    for (int m = 0; m < kModes; ++m) {  // vs the abandon-only row
      pr4_table.AddRow(
          {modes[m].name, TablePrinter::Num(seconds[m], 4),
           TablePrinter::Num(seconds[0] / seconds[m], 2) + "x"});
    }
    pr4_table.Print();
    bool all_identical = true;
    for (int m = 0; m < kModes; ++m) all_identical &= identical[m];
    std::printf("%d shards x %d engine workers, top-%d over %d dense "
                "candidates/query;\nall rows identical to the unsharded "
                "serial engine: %s\n",
                shards, engine_threads, dense.top_k, w.corpus.size(),
                all_identical ? "yes" : "NO");
    if (!all_identical) {
      // CI correctness gate: sharding, worker threads, the bound filter and
      // ordering must not change results under a sound bound.
      std::fprintf(stderr,
                   "FATAL: the shared-threshold service diverges from the "
                   "serial engine\n");
      std::exit(1);
    }

    const std::string json_pr4 = flags.GetString("json-pr4", "");
    if (!json_pr4.empty()) {
      FILE* f = std::fopen(json_pr4.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr4.c_str());
      } else {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pr4_threshold_sharing\",\n"
            "  \"corpus_trajectories\": %d,\n"
            "  \"queries\": %zu,\n"
            "  \"shards\": %d,\n"
            "  \"engine_threads\": %d,\n"
            "  \"abandon_shared_seconds\": %.6f,\n"
            "  \"osf_shared_seconds\": %.6f,\n"
            "  \"osf_shared_ordered_seconds\": %.6f,\n"
            "  \"speedup_osf_vs_abandon\": %.3f,\n"
            "  \"speedup_ordered_vs_abandon\": %.3f,\n"
            "  \"identical_results\": true\n"
            "}\n",
            w.corpus.size(), queries.size(), shards, engine_threads,
            seconds[0], seconds[1], seconds[2], seconds[0] / seconds[1],
            seconds[0] / seconds[2]);
        std::fclose(f);
        std::printf("wrote %s\n", json_pr4.c_str());
      }
    }
  }

  // -------------------------------------------------------------------
  // Live corpus: append throughput, read-latency impact of a delta,
  // compaction pause, and the delta-free read-path regression vs a
  // reproduction of the PR-4 static serving path. One engine config
  // everywhere (DTW, GBP at an explicitly pinned cell + KPF r=1.0, top-10,
  // 4 shards, cache off) with a sound bound, so every serving mode must be
  // hit-for-hit identical.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR5] Live corpus: ingest throughput, delta reads, "
                "compaction");
    const int kShards = 4;
    const int total = w.corpus.size();
    const int base_count = total * 4 / 5;
    // Pin the cell size explicitly from the *full* corpus for every mode:
    // the live service would otherwise derive it from its smaller base
    // bounding box and legitimately produce a different GBP candidate set
    // than a fresh build over the grown corpus.
    EngineOptions live_engine = engine_options;
    live_engine.cell_size = DefaultCellSize(w.corpus.Bounds());

    ServiceOptions live_options;
    live_options.engine = live_engine;
    live_options.shards = kShards;
    live_options.cache_capacity = 0;
    live_options.compact_delta_trajectories = 0;  // compaction forced below

    Dataset base_corpus("live-base");
    base_corpus.Reserve(static_cast<size_t>(base_count));
    for (int id = 0; id < base_count; ++id) base_corpus.Add(w.corpus[id]);
    std::vector<TrajectoryView> feed;
    size_t feed_points = 0;
    for (int id = base_count; id < total; ++id) {
      feed.push_back(w.corpus[id].View());
      feed_points += feed.back().size();
    }

    // PR-4 static serving path, reproduced in-run (like the [PR2] legacy
    // layouts): fixed shards over the corpus, one SharedTopK per query on a
    // dedicated pool — no generation pinning, no live layer. This is the
    // baseline the delta-free live read path is gated against.
    ThreadPool static_pool(kShards);
    EngineOptions static_engine = live_engine;
    static_engine.scheduler = &static_pool;
    std::vector<DatasetView> static_views;
    std::vector<std::unique_ptr<SearchEngine>> static_engines;
    int next_begin = 0;
    for (int s = 0; s < kShards; ++s) {
      const int count = total / kShards + (s < total % kShards ? 1 : 0);
      static_views.emplace_back(w.corpus, next_begin, count);
      static_engines.push_back(std::make_unique<SearchEngine>(
          static_views.back(), static_engine));
      next_begin += count;
    }
    auto static_batch = [&](std::vector<std::vector<EngineHit>>* hits) {
      hits->assign(queries.size(), {});
      std::vector<std::unique_ptr<SharedTopK>> topks(queries.size());
      for (auto& topk : topks) {
        topk = std::make_unique<SharedTopK>(live_engine.top_k);
      }
      TaskGroup group;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        for (int s = 0; s < kShards; ++s) {
          static_pool.Submit(&group, [&, qi, s]() {
            const DatasetView& view = static_views[static_cast<size_t>(s)];
            const int begin = view.begin_id();
            const int excluded = w.excluded[qi];
            int local_excluded = -1;
            if (excluded >= begin && excluded < begin + view.size()) {
              local_excluded = excluded - begin;
            }
            static_engines[static_cast<size_t>(s)]->QueryInto(
                queries[qi], topks[qi].get(), begin, nullptr, local_excluded);
          });
        }
      }
      group.Wait();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        (*hits)[qi] = topks[qi]->Sorted();
      }
    };

    // Append throughput: one service ingesting the feed trajectory by
    // trajectory (every append publishes a generation), another in batches
    // of 32 (one publication per batch).
    double append_single_seconds = 0;
    {
      QueryService single(base_corpus, live_options);
      Stopwatch watch;
      for (const TrajectoryView& t : feed) single.Append(t);
      append_single_seconds = watch.Seconds();
    }
    QueryService live(std::move(base_corpus), live_options);
    double append_batch_seconds = 0;
    {
      constexpr size_t kBatch = 32;
      Stopwatch watch;
      std::vector<TrajectoryView> chunk;
      for (size_t begin = 0; begin < feed.size(); begin += kBatch) {
        chunk.assign(feed.begin() + static_cast<std::ptrdiff_t>(begin),
                     feed.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(begin + kBatch,
                                                 feed.size())));
        live.AppendBatch(chunk);
      }
      append_batch_seconds = watch.Seconds();
    }

    // Read latency: fresh-built full corpus (the delta-free live path) vs
    // the live service carrying its 20% delta, then post-compaction.
    QueryService fresh(w.corpus, live_options);
    std::vector<std::vector<EngineHit>> static_hits;
    static_batch(&static_hits);  // warm-up + reference results
    const double static_seconds = BestSeconds(passes, [&]() {
      std::vector<std::vector<EngineHit>> hits;
      static_batch(&hits);
    });
    auto timed_service = [&](QueryService* service, double* seconds) {
      std::vector<std::vector<EngineHit>> hits =
          service->SubmitBatch(queries, w.excluded);  // warm-up + identity
      *seconds = BestSeconds(passes, [&]() {
        service->SubmitBatch(queries, w.excluded);
      });
      return hits;
    };
    double fresh_seconds = 0, delta_seconds = 0, compacted_seconds = 0;
    const auto fresh_hits = timed_service(&fresh, &fresh_seconds);
    const auto delta_hits = timed_service(&live, &delta_seconds);

    Stopwatch compact_watch;
    const bool compacted = live.Compact();
    const double compaction_pause = compact_watch.Seconds();
    const auto compacted_hits = timed_service(&live, &compacted_seconds);

    const bool identical = compacted && Identical(static_hits, fresh_hits) &&
                           Identical(static_hits, delta_hits) &&
                           Identical(static_hits, compacted_hits);

    TablePrinter pr5_table({"Serving mode", "Batch (s)", "vs static"});
    auto pr5_row = [&](const std::string& name, double seconds) {
      pr5_table.AddRow({name, TablePrinter::Num(seconds, 4),
                        TablePrinter::Num(seconds / static_seconds, 3) +
                            "x"});
    };
    pr5_row("static shards (PR4 reproduction)", static_seconds);
    pr5_row("live service, empty delta", fresh_seconds);
    pr5_row("live service, 20% delta", delta_seconds);
    pr5_row("live service, post-compaction", compacted_seconds);
    pr5_table.Print();
    std::printf("ingest: %.0f trajectories/s appended one by one, %.0f "
                "batched x32 (%zu trajectories, %zu points)\n",
                static_cast<double>(feed.size()) /
                    std::max(append_single_seconds, 1e-12),
                static_cast<double>(feed.size()) /
                    std::max(append_batch_seconds, 1e-12),
                feed.size(), feed_points);
    std::printf("compaction: %.3f s to merge %zu delta trajectories into a "
                "%d-trajectory base and swap (reads never paused)\n",
                compaction_pause, feed.size(), total);
    std::printf("all serving modes identical to the static baseline: %s\n",
                identical ? "yes" : "NO");
    if (!identical) {
      // CI correctness gate: the live read path must be hit-for-hit with
      // the static one under a sound bound, with and without a delta.
      std::fprintf(stderr,
                   "FATAL: live corpus serving diverges from the static "
                   "baseline\n");
      std::exit(1);
    }

    const std::string json_pr5 = flags.GetString("json-pr5", "");
    if (!json_pr5.empty()) {
      FILE* f = std::fopen(json_pr5.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr5.c_str());
      } else {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pr5_live_corpus\",\n"
            "  \"corpus_trajectories\": %d,\n"
            "  \"base_trajectories\": %d,\n"
            "  \"delta_trajectories\": %zu,\n"
            "  \"queries\": %zu,\n"
            "  \"append_single_per_sec\": %.1f,\n"
            "  \"append_batch32_per_sec\": %.1f,\n"
            "  \"static_baseline_seconds\": %.6f,\n"
            "  \"live_delta_free_seconds\": %.6f,\n"
            "  \"read_regression_delta_free\": %.4f,\n"
            "  \"live_delta20_seconds\": %.6f,\n"
            "  \"delta_read_overhead\": %.4f,\n"
            "  \"compaction_pause_seconds\": %.6f,\n"
            "  \"live_post_compaction_seconds\": %.6f,\n"
            "  \"identical_results\": true\n"
            "}\n",
            total, base_count, feed.size(), queries.size(),
            static_cast<double>(feed.size()) /
                std::max(append_single_seconds, 1e-12),
            static_cast<double>(feed.size()) /
                std::max(append_batch_seconds, 1e-12),
            static_seconds, fresh_seconds,
            fresh_seconds / static_seconds - 1.0, delta_seconds,
            delta_seconds / fresh_seconds - 1.0, compaction_pause,
            compacted_seconds);
        std::fclose(f);
        std::printf("wrote %s\n", json_pr5.c_str());
      }
    }
  }

  // -------------------------------------------------------------------
  // Observability: instrumentation overhead (metrics on vs off on the
  // same service, alternating passes so machine drift cancels), e2e
  // latency percentiles from the registry's histograms, the pruning
  // funnel, and the wait-free Stats() path hammered while batches run.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR6] Observability: overhead, latency percentiles, "
                "pruning funnel");
    ServiceOptions options;
    options.engine = engine_options;
    options.shards = 4;
    options.cache_capacity = 0;
    QueryService service(w.corpus, options);

    // A/B overhead: the registry's kill switch flips between passes on one
    // service, so both sides run the same code, corpus, and thread pool.
    // Best-of keeps scheduler noise out of a gate this tight.
    service.SubmitBatch(queries, w.excluded);  // warm-up
    const int obs_passes = std::max(passes, 5);
    double enabled_seconds = 1e300, disabled_seconds = 1e300;
    for (int p = 0; p < obs_passes; ++p) {
      service.metrics().set_enabled(false);
      {
        Stopwatch watch;
        service.SubmitBatch(queries, w.excluded);
        disabled_seconds = std::min(disabled_seconds, watch.Seconds());
      }
      service.metrics().set_enabled(true);
      {
        Stopwatch watch;
        service.SubmitBatch(queries, w.excluded);
        enabled_seconds = std::min(enabled_seconds, watch.Seconds());
      }
    }
    const double overhead = enabled_seconds / disabled_seconds - 1.0;

    // Wait-free Stats(): hammer it from this thread while another thread
    // keeps SubmitBatch busy. Stats() reads sharded relaxed counters and
    // takes no lock, so it can neither block nor be blocked by serving —
    // the per-call cost below stays flat no matter the query load.
    std::atomic<bool> stop{false};
    std::thread load([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        service.SubmitBatch(queries, w.excluded);
      }
    });
    const int stats_calls = 20000;
    uint64_t sink = 0;
    Stopwatch stats_watch;
    for (int i = 0; i < stats_calls; ++i) {
      sink += service.Stats().queries;
    }
    const double stats_nanos =
        stats_watch.Seconds() / stats_calls * 1e9;
    stop.store(true);
    load.join();

    const obs::RegistrySnapshot snapshot = service.metrics().Snapshot();
    const obs::HistogramSnapshot* e2e =
        snapshot.histogram("service.query_seconds");
    const std::vector<obs::FunnelRow> funnels = obs::ExtractFunnels(snapshot);

    TablePrinter pr6_table({"Configuration", "Batch (s)", "Overhead"});
    pr6_table.AddRow({"metrics disabled",
                      TablePrinter::Num(disabled_seconds, 4), "-"});
    pr6_table.AddRow({"metrics enabled",
                      TablePrinter::Num(enabled_seconds, 4),
                      TablePrinter::Num(overhead * 100, 2) + "%"});
    pr6_table.Print();
    if (e2e != nullptr && e2e->count > 0) {
      std::printf("e2e query latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f "
                  "ms, p99.9 %.3f ms over %llu queries\n",
                  e2e->Percentile(50) * 1e3, e2e->Percentile(95) * 1e3,
                  e2e->Percentile(99) * 1e3, e2e->Percentile(99.9) * 1e3,
                  static_cast<unsigned long long>(e2e->count));
    }
    bool funnels_consistent = !funnels.empty();
    for (const obs::FunnelRow& f : funnels) {
      std::printf("funnel %s: %llu candidates -> %llu skipped, %llu "
                  "bound-pruned, %llu dp runs (%llu abandoned, %llu kept) "
                  "[%s]\n",
                  f.algorithm.c_str(),
                  static_cast<unsigned long long>(f.candidates),
                  static_cast<unsigned long long>(f.skipped),
                  static_cast<unsigned long long>(f.bound_pruned),
                  static_cast<unsigned long long>(f.dp_runs),
                  static_cast<unsigned long long>(f.dp_abandoned),
                  static_cast<unsigned long long>(f.dp_completed),
                  f.Consistent() ? "consistent" : "INCONSISTENT");
      funnels_consistent &= f.Consistent();
    }
    std::printf("wait-free Stats(): %.0f ns/call under concurrent batch "
                "load (%d calls, sink %llu); Stats() never touches the "
                "cache mutex, so serving throughput is unaffected\n",
                stats_nanos, stats_calls,
                static_cast<unsigned long long>(sink));
    if (!funnels_consistent) {
      // CI correctness gate: the funnel counters must telescope exactly.
      std::fprintf(stderr,
                   "FATAL: pruning-funnel counters are inconsistent\n");
      std::exit(1);
    }
    if (overhead > 0.02) {
      // CI overhead gate: enabled instrumentation must stay within 2% of
      // the metrics-disabled hot path.
      std::fprintf(stderr,
                   "FATAL: instrumentation overhead %.2f%% exceeds the 2%% "
                   "budget\n",
                   overhead * 100);
      std::exit(1);
    }

    const std::string json_pr6 = flags.GetString("json-pr6", "");
    if (!json_pr6.empty()) {
      FILE* f = std::fopen(json_pr6.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr6.c_str());
      } else {
        const obs::FunnelRow funnel =
            funnels.empty() ? obs::FunnelRow{} : funnels.front();
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pr6_observability\",\n"
            "  \"corpus_trajectories\": %d,\n"
            "  \"queries\": %zu,\n"
            "  \"metrics_disabled_seconds\": %.6f,\n"
            "  \"metrics_enabled_seconds\": %.6f,\n"
            "  \"overhead_fraction\": %.6f,\n"
            "  \"overhead_budget_fraction\": 0.02,\n"
            "  \"stats_call_nanos\": %.1f,\n"
            "  \"e2e_p50_ms\": %.4f,\n"
            "  \"e2e_p95_ms\": %.4f,\n"
            "  \"e2e_p99_ms\": %.4f,\n"
            "  \"e2e_p999_ms\": %.4f,\n"
            "  \"e2e_count\": %llu,\n"
            "  \"funnel_algorithm\": \"%s\",\n"
            "  \"funnel_candidates\": %llu,\n"
            "  \"funnel_skipped\": %llu,\n"
            "  \"funnel_bound_pruned\": %llu,\n"
            "  \"funnel_dp_runs\": %llu,\n"
            "  \"funnel_dp_abandoned\": %llu,\n"
            "  \"funnel_dp_completed\": %llu,\n"
            "  \"funnel_consistent\": true\n"
            "}\n",
            w.corpus.size(), queries.size(), disabled_seconds,
            enabled_seconds, overhead, stats_nanos,
            e2e != nullptr ? e2e->Percentile(50) * 1e3 : 0.0,
            e2e != nullptr ? e2e->Percentile(95) * 1e3 : 0.0,
            e2e != nullptr ? e2e->Percentile(99) * 1e3 : 0.0,
            e2e != nullptr ? e2e->Percentile(99.9) * 1e3 : 0.0,
            e2e != nullptr
                ? static_cast<unsigned long long>(e2e->count)
                : 0ULL,
            funnel.algorithm.c_str(),
            static_cast<unsigned long long>(funnel.candidates),
            static_cast<unsigned long long>(funnel.skipped),
            static_cast<unsigned long long>(funnel.bound_pruned),
            static_cast<unsigned long long>(funnel.dp_runs),
            static_cast<unsigned long long>(funnel.dp_abandoned),
            static_cast<unsigned long long>(funnel.dp_completed));
        std::fclose(f);
        std::printf("wrote %s\n", json_pr6.c_str());
      }
    }
    const std::string statsz_path = flags.GetString("statsz", "");
    if (!statsz_path.empty()) {
      FILE* f = std::fopen(statsz_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", statsz_path.c_str());
      } else {
        const std::string json = obs::StatszJson(snapshot);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", statsz_path.c_str());
      }
    }
  }

  // -------------------------------------------------------------------
  // PR 7: SIMD-batched DP kernels. First the three column steppers in
  // isolation (scalar oracle vs vector dispatch streaming Reset+Extend
  // sweeps over the same cost model), then the end-to-end search stage
  // under ExactS — the stepper-dominated algorithm — once per stepper
  // family. Speed is reported; correctness is enforced: the vector path
  // must reproduce the scalar hit lists bit-for-bit (gated).
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR7] SIMD kernels: vectorized column sweeps vs the "
                "scalar oracle");
    const bool prev_simd = simd::Enabled();
    simd::SetEnabled(true);
    const bool vector_hw = simd::Enabled();  // clamped to hardware support
    std::printf("dispatch: isa=%s, lanes=%d, runtime %s\n", simd::IsaName(),
                simd::Width(), vector_hw ? "enabled" : "disabled (scalar)");

    // Per-kernel: m = 64 is the query length (the dimension the lanes
    // batch over), n = 256 data points per sweep; one timed rep streams
    // kSweeps full sweeps ≈ 6.5M DP cells through one stepper.
    constexpr int kM = 64;
    constexpr int kN = 256;
    constexpr int kSweeps = 400;
    const int kernel_reps = std::max(passes, 3);
    const double kernel_cells = static_cast<double>(kSweeps) * kN * kM;
    TaxiProfile kernel_profile = XianProfile(1);
    Rng kernel_rng(config.seed + 7);
    const Trajectory kernel_q =
        GenerateTaxiTrajectory(kernel_profile, &kernel_rng, kM);
    const Trajectory kernel_d =
        GenerateTaxiTrajectory(kernel_profile, &kernel_rng, kN);
    DpArena kernel_arena;
    const PointCols kernel_qc = FillCols(kernel_q, &kernel_arena);
    volatile double kernel_sink = 0;
    auto sweep_seconds = [&](auto& dp) {
      return BestSeconds(kernel_reps, [&]() {
        double v = 0;
        for (int s = 0; s < kSweeps; ++s) {
          dp.Reset();
          for (int j = 0; j < kN; ++j) v = dp.Extend(j);
        }
        kernel_sink = kernel_sink + v;
      });
    };

    double wed_scalar = 0, wed_simd = 0, dtw_scalar = 0, dtw_simd = 0,
           frechet_scalar = 0, frechet_simd = 0;
    {
      // No query columns bound → the stepper stays on the scalar oracle
      // path no matter the dispatch switch.
      const ErpCosts costs{kernel_q, kernel_d, kernel_d.Bounds().Center()};
      WedColumnDp<ErpCosts> dp(kM, costs);
      wed_scalar = sweep_seconds(dp);
    }
    {
      const ErpCosts costs{kernel_q, kernel_d, kernel_d.Bounds().Center(),
                           kernel_qc};
      WedColumnDp<ErpCosts> dp(kM, costs);
      wed_simd = sweep_seconds(dp);
    }
    {
      const EuclideanSub sub{kernel_q, kernel_d};
      DtwColumnDp<EuclideanSub> dp(kM, sub);
      dtw_scalar = sweep_seconds(dp);
    }
    {
      const EuclideanSub sub{kernel_q, kernel_d, kernel_qc};
      DtwColumnDp<EuclideanSub> dp(kM, sub);
      dtw_simd = sweep_seconds(dp);
    }
    {
      const EuclideanSub sub{kernel_q, kernel_d};
      FrechetColumnDp<EuclideanSub> dp(kM, sub);
      frechet_scalar = sweep_seconds(dp);
    }
    {
      const EuclideanSub sub{kernel_q, kernel_d, kernel_qc};
      FrechetColumnDp<EuclideanSub> dp(kM, sub);
      frechet_simd = sweep_seconds(dp);
    }

    TablePrinter kernel_table(
        {"Kernel", "Scalar (s)", "SIMD (s)", "Speedup", "SIMD Mcells/s"});
    auto kernel_row = [&](const char* name, double scalar_s, double simd_s) {
      kernel_table.AddRow({name, TablePrinter::Num(scalar_s, 4),
                           TablePrinter::Num(simd_s, 4),
                           TablePrinter::Num(scalar_s / simd_s, 2) + "x",
                           TablePrinter::Num(kernel_cells / simd_s / 1e6, 0)});
    };
    kernel_row("WED column sweep (ERP)", wed_scalar, wed_simd);
    kernel_row("DTW column sweep (forced)", dtw_scalar, dtw_simd);
    kernel_row("Frechet column sweep (forced)", frechet_scalar, frechet_simd);
    kernel_table.Print();

    // End-to-end: the serving pipeline (GBP + sound KPF, top-10, early
    // abandon) with the ExactS plan, whose inner loop is exactly the
    // column sweep above, once per stepper family. Serial search stage so
    // the kernel effect is not hidden behind thread overlap.
    struct E2eRow {
      const char* name;
      const char* key;
      DistanceSpec spec;
      double scalar_seconds = 0;
      double simd_seconds = 0;
      uint64_t vector_cells = 0;
      uint64_t scalar_cells = 0;
    };
    // The DTW/Fréchet *column* steppers stay Forced()-gated (the serial
    // pass-B left chain makes their split a wash), but since PR 8 the
    // ExactS plan auto-dispatches those distances to the multi-sweep batch
    // kernels instead, so these rows now ride the batched path — the wash
    // caveat the original [PR7] rows documented is retired. The [PR8]
    // section below measures that path against its own gates.
    E2eRow e2e_rows[] = {
        {"ExactS/ERP", "erp", DistanceSpec::Erp(w.corpus.Bounds().Center())},
        {"ExactS/DTW", "dtw", DistanceSpec::Dtw()},
        {"ExactS/Frechet", "frechet", DistanceSpec::Frechet()},
    };
    const size_t e2e_queries = std::min<size_t>(queries.size(), 16);
    bool identical = true;
    for (E2eRow& row : e2e_rows) {
      EngineOptions opt = engine_options;
      opt.spec = row.spec;
      opt.algorithm = Algorithm::kExactS;
      opt.threads = 1;
      const SearchEngine engine(&w.corpus, opt);
      std::vector<std::vector<EngineHit>> hits_simd(e2e_queries);
      std::vector<std::vector<EngineHit>> hits_scalar(e2e_queries);
      auto run_batch = [&](std::vector<std::vector<EngineHit>>* hits,
                           E2eRow* cells) {
        for (size_t qi = 0; qi < e2e_queries; ++qi) {
          QueryStats qs;
          (*hits)[qi] = engine.Query(queries[qi], &qs, w.excluded[qi]);
          if (cells != nullptr) {
            cells->vector_cells += qs.simd_vector_cells;
            cells->scalar_cells += qs.simd_scalar_cells;
          }
        }
      };
      simd::SetEnabled(true);
      run_batch(&hits_simd, nullptr);  // warm-up
      row.simd_seconds =
          BestSeconds(passes, [&]() { run_batch(&hits_simd, &row); });
      simd::SetEnabled(false);
      run_batch(&hits_scalar, nullptr);  // warm-up
      row.scalar_seconds =
          BestSeconds(passes, [&]() { run_batch(&hits_scalar, nullptr); });
      identical &= Identical(hits_simd, hits_scalar);
    }

    TablePrinter e2e_table({"Search stage (serial)", "Scalar (s)", "SIMD (s)",
                            "Speedup", "Vector-cell share"});
    for (const E2eRow& row : e2e_rows) {
      const double total =
          static_cast<double>(row.vector_cells + row.scalar_cells);
      e2e_table.AddRow(
          {row.name, TablePrinter::Num(row.scalar_seconds, 4),
           TablePrinter::Num(row.simd_seconds, 4),
           TablePrinter::Num(row.scalar_seconds / row.simd_seconds, 2) + "x",
           TablePrinter::Num(
               total > 0 ? row.vector_cells / total * 100 : 0, 1) +
               "%"});
    }
    e2e_table.Print();
    std::printf("%zu queries, top-%d, GBP+KPF(r=1), early abandon on; "
                "hit lists %s across dispatch\n",
                e2e_queries, engine_options.top_k,
                identical ? "bit-identical" : "DIVERGENT");
    std::printf("auto dispatch vectorizes the WED column stepper and the "
                "multi-sweep batch kernels; the DTW/Frechet *column* "
                "kernels remain opt-in (forced) identity twins\n");
    if (!identical) {
      // CI correctness gate: vector dispatch must not change any result.
      std::fprintf(stderr,
                   "FATAL: SIMD and scalar dispatch returned different "
                   "hit lists\n");
      std::exit(1);
    }

    const std::string json_pr7 = flags.GetString("json-pr7", "");
    if (!json_pr7.empty()) {
      FILE* f = std::fopen(json_pr7.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr7.c_str());
      } else {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"pr7_simd\",\n"
                     "  \"isa\": \"%s\",\n"
                     "  \"lanes\": %d,\n"
                     "  \"runtime_enabled\": %s,\n"
                     "  \"kernel_query_length\": %d,\n"
                     "  \"kernel_cells_per_rep\": %.0f,\n"
                     "  \"wed_kernel_scalar_seconds\": %.6f,\n"
                     "  \"wed_kernel_simd_seconds\": %.6f,\n"
                     "  \"wed_kernel_speedup\": %.3f,\n"
                     "  \"dtw_kernel_scalar_seconds\": %.6f,\n"
                     "  \"dtw_kernel_simd_seconds\": %.6f,\n"
                     "  \"dtw_kernel_speedup\": %.3f,\n"
                     "  \"frechet_kernel_scalar_seconds\": %.6f,\n"
                     "  \"frechet_kernel_simd_seconds\": %.6f,\n"
                     "  \"frechet_kernel_speedup\": %.3f,\n",
                     simd::IsaName(), simd::Width(),
                     vector_hw ? "true" : "false", kM, kernel_cells,
                     wed_scalar, wed_simd, wed_scalar / wed_simd, dtw_scalar,
                     dtw_simd, dtw_scalar / dtw_simd, frechet_scalar,
                     frechet_simd, frechet_scalar / frechet_simd);
        std::fprintf(f, "  \"e2e_queries\": %zu,\n", e2e_queries);
        for (const E2eRow& row : e2e_rows) {
          const double total =
              static_cast<double>(row.vector_cells + row.scalar_cells);
          std::fprintf(f,
                       "  \"e2e_%s_scalar_seconds\": %.6f,\n"
                       "  \"e2e_%s_simd_seconds\": %.6f,\n"
                       "  \"e2e_%s_speedup\": %.3f,\n"
                       "  \"e2e_%s_vector_cell_share\": %.4f,\n",
                       row.key, row.scalar_seconds, row.key, row.simd_seconds,
                       row.key, row.scalar_seconds / row.simd_seconds,
                       row.key, total > 0 ? row.vector_cells / total : 0.0);
        }
        std::fprintf(f, "  \"identical_results\": true\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_pr7.c_str());
      }
    }
    simd::SetEnabled(prev_simd);
  }

  // -------------------------------------------------------------------
  // PR 8: multi-sweep SIMD batching. The PR-7 kernels vectorized one DP
  // column along the query dimension; this section measures the second
  // batching axis — ExactS sweeping kLanes start positions of one
  // candidate per lane, and CMA running kLanes candidates per lane — as
  // the search-stage A/B the auto-dispatch flip is justified by, plus the
  // full algorithm x distance identity matrix (threads > 1, live delta
  // and post-compaction corpora) that gates the whole feature.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR8] Multi-sweep batching: lane-parallel ExactS starts, "
                "cross-candidate CMA rows");
    const bool prev_simd = simd::Enabled();
    simd::SetEnabled(true);
    const bool vector_hw = simd::Enabled();  // clamped to hardware support
    std::printf("dispatch: isa=%s, lanes=%d, batch lanes=%d, runtime %s\n",
                simd::IsaName(), simd::Width(), simd::BatchLanes(),
                vector_hw ? "enabled" : "disabled (scalar)");

    // Search-stage A/B: batched vs scalar dispatch on the same serial
    // engine (thread overlap would hide the kernel effect). Wall time is
    // the whole Query; "stage" is the summed pair-search interval, the
    // part the batching actually touches and the one the gates are on.
    // DTW and Fréchet ExactS ran *forced* in [PR7] and documented a wash;
    // these rows are the retirement of that caveat — multi-sweep batching
    // is why auto dispatch now sends them to the vector kernels.
    struct Pr8Pruning {
      bool use_gbp;
      bool use_kpf;
      bool use_early_abandon;
    };
    struct Pr8Row {
      const char* name;
      const char* key;
      Algorithm algorithm;
      DistanceSpec spec;
      Pr8Pruning pruning;
      double scalar_seconds = 1e300;
      double batched_seconds = 1e300;
      double scalar_stage_seconds = 1e300;
      double batched_stage_seconds = 1e300;
      uint64_t lane_abandons = 0;
    };
    // The ExactS rows keep the full serving config (GBP+KPF+abandon):
    // their O(mn^2) DP dominates either way. The CMA rows run a full scan
    // with complete DP instead — on a 500-trajectory corpus GBP+KPF leave
    // so few DP survivors per query that batches never fill (the row would
    // time pruning math), and a cutoff-heavy full scan times the abandon
    // *asymmetry* — the scalar loop drops a candidate after a few rows
    // while a batch keeps sweeping until its slowest lane dies (see
    // EXPERIMENTS.md) — not the kernel. Full DP streams every candidate
    // through full lanes: the regime the cross-candidate batcher is for.
    constexpr Pr8Pruning kServing{true, true, true};
    constexpr Pr8Pruning kFullDp{false, false, false};
    Pr8Row pr8_rows[] = {
        {"ExactS/DTW", "exacts_dtw", Algorithm::kExactS, DistanceSpec::Dtw(),
         kServing},
        {"ExactS/Frechet", "exacts_frechet", Algorithm::kExactS,
         DistanceSpec::Frechet(), kServing},
        {"CMA/DTW (full DP)", "cma_dtw", Algorithm::kCma, DistanceSpec::Dtw(),
         kFullDp},
        {"CMA/Frechet (full DP)", "cma_frechet", Algorithm::kCma,
         DistanceSpec::Frechet(), kFullDp},
    };
    const size_t pr8_queries = std::min<size_t>(queries.size(), 16);
    bool pr8_identical = true;
    for (Pr8Row& row : pr8_rows) {
      EngineOptions opt = engine_options;
      opt.spec = row.spec;
      opt.algorithm = row.algorithm;
      opt.use_gbp = row.pruning.use_gbp;
      opt.use_kpf = row.pruning.use_kpf;
      opt.use_early_abandon = row.pruning.use_early_abandon;
      opt.threads = 1;
      const SearchEngine engine(&w.corpus, opt);
      std::vector<std::vector<EngineHit>> hits_batched(pr8_queries);
      std::vector<std::vector<EngineHit>> hits_scalar(pr8_queries);
      auto time_mode = [&](bool batched,
                           std::vector<std::vector<EngineHit>>* hits,
                           double* wall, double* stage, uint64_t* abandons) {
        simd::SetEnabled(batched);
        auto pass = [&](double* stage_sum, uint64_t* abandon_sum) {
          for (size_t qi = 0; qi < pr8_queries; ++qi) {
            QueryStats qs;
            (*hits)[qi] = engine.Query(queries[qi], &qs, w.excluded[qi]);
            if (stage_sum != nullptr) *stage_sum += qs.search_seconds;
            if (abandon_sum != nullptr) {
              *abandon_sum += qs.simd_lane_abandons;
            }
          }
        };
        pass(nullptr, nullptr);  // warm-up
        for (int p = 0; p < passes; ++p) {
          Stopwatch watch;
          double stage_sum = 0;
          uint64_t abandon_sum = 0;
          pass(&stage_sum, &abandon_sum);
          *wall = std::min(*wall, watch.Seconds());
          if (stage_sum < *stage) {
            *stage = stage_sum;
            if (abandons != nullptr) *abandons = abandon_sum;
          }
        }
      };
      time_mode(true, &hits_batched, &row.batched_seconds,
                &row.batched_stage_seconds, &row.lane_abandons);
      time_mode(false, &hits_scalar, &row.scalar_seconds,
                &row.scalar_stage_seconds, nullptr);
      pr8_identical &= Identical(hits_batched, hits_scalar);
    }

    TablePrinter pr8_table({"Search stage (serial)", "Scalar (s)",
                            "Batched (s)", "Stage speedup", "Wall speedup",
                            "Lane abandons"});
    for (const Pr8Row& row : pr8_rows) {
      pr8_table.AddRow(
          {row.name, TablePrinter::Num(row.scalar_stage_seconds, 4),
           TablePrinter::Num(row.batched_stage_seconds, 4),
           TablePrinter::Num(
               row.scalar_stage_seconds / row.batched_stage_seconds, 2) +
               "x",
           TablePrinter::Num(row.scalar_seconds / row.batched_seconds, 2) +
               "x",
           std::to_string(row.lane_abandons)});
    }
    pr8_table.Print();
    std::printf("%zu queries, top-%d; ExactS rows GBP+KPF(r=1, sound) with "
                "early abandon, CMA rows full scan + complete DP; hit "
                "lists %s across dispatch\n",
                pr8_queries, engine_options.top_k,
                pr8_identical ? "bit-identical" : "DIVERGENT");

    // Identity matrix: every algorithm x distance combination the
    // dispatcher supports, served through the sharded live service
    // (threads > 1) carrying a 20% delta, then again post-compaction.
    // Batched and scalar dispatch must agree hit-for-hit everywhere; a
    // single divergence fails the run.
    const DistanceSpec matrix_specs[] = {
        DistanceSpec::Dtw(), DistanceSpec::Frechet(), DistanceSpec::Edr(0.003),
        DistanceSpec::Erp(w.corpus.Bounds().Center())};
    const char* matrix_spec_names[] = {"DTW", "Frechet", "EDR", "ERP"};
    const Algorithm matrix_algos[] = {
        Algorithm::kCma,  Algorithm::kExactS, Algorithm::kSpring,
        Algorithm::kGreedyBacktracking, Algorithm::kPos, Algorithm::kPss,
        Algorithm::kRls,  Algorithm::kRlsSkip};
    const size_t matrix_query_count = std::min<size_t>(queries.size(), 8);
    const std::vector<TrajectoryView> matrix_queries(
        queries.begin(),
        queries.begin() + static_cast<std::ptrdiff_t>(matrix_query_count));
    const std::vector<int> matrix_excluded(
        w.excluded.begin(),
        w.excluded.begin() + static_cast<std::ptrdiff_t>(matrix_query_count));
    const int matrix_total = w.corpus.size();
    const int matrix_base = matrix_total * 4 / 5;
    std::vector<TrajectoryView> matrix_feed;
    for (int id = matrix_base; id < matrix_total; ++id) {
      matrix_feed.push_back(w.corpus[id].View());
    }
    int matrix_combos = 0;
    bool matrix_identical = true;
    for (const Algorithm algorithm : matrix_algos) {
      for (size_t si = 0; si < 4; ++si) {
        const DistanceSpec& spec = matrix_specs[si];
        if (!Supports(algorithm, spec.kind)) continue;
        ++matrix_combos;
        EngineOptions opt = engine_options;
        opt.spec = spec;
        opt.algorithm = algorithm;
        opt.threads = 2;
        // Pin the cell size from the full corpus so the base+delta service
        // and the compacted one generate the same GBP candidate set (the
        // same pinning the [PR5] section needs).
        opt.cell_size = DefaultCellSize(w.corpus.Bounds());
        ServiceOptions sopt;
        sopt.engine = opt;
        sopt.shards = 2;
        sopt.cache_capacity = 0;
        sopt.compact_delta_trajectories = 0;  // compaction forced below
        Dataset base("pr8-matrix-base");
        base.Reserve(static_cast<size_t>(matrix_base));
        for (int id = 0; id < matrix_base; ++id) base.Add(w.corpus[id]);
        QueryService service(std::move(base), sopt);
        service.AppendBatch(matrix_feed);
        auto submit = [&](bool batched) {
          simd::SetEnabled(batched);
          return service.SubmitBatch(matrix_queries, matrix_excluded);
        };
        const auto live_batched = submit(true);
        const auto live_scalar = submit(false);
        bool ok = Identical(live_batched, live_scalar);
        const bool compacted = service.Compact();
        const auto compact_batched = submit(true);
        const auto compact_scalar = submit(false);
        ok = ok && compacted && Identical(compact_batched, compact_scalar) &&
             Identical(live_batched, compact_batched);
        if (!ok) {
          std::fprintf(stderr, "identity matrix mismatch: %s/%s\n",
                       std::string(ToString(algorithm)).c_str(),
                       matrix_spec_names[si]);
          matrix_identical = false;
        }
      }
    }
    std::printf("identity matrix: %d algorithm x distance combinations, "
                "2 shards x 2 threads, live 20%% delta + post-compaction: "
                "%s\n",
                matrix_combos, matrix_identical ? "IDENTICAL" : "MISMATCH");
    if (!pr8_identical || !matrix_identical) {
      // CI correctness gate: batched dispatch must not change any result
      // anywhere in the matrix, live or compacted.
      std::fprintf(stderr,
                   "FATAL: batched and scalar dispatch returned different "
                   "hit lists\n");
      std::exit(1);
    }

    const std::string json_pr8 = flags.GetString("json-pr8", "");
    if (!json_pr8.empty()) {
      FILE* f = std::fopen(json_pr8.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr8.c_str());
      } else {
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"pr8_multisweep\",\n"
                     "  \"isa\": \"%s\",\n"
                     "  \"lanes\": %d,\n"
                     "  \"batch_lanes\": %d,\n"
                     "  \"runtime_enabled\": %s,\n"
                     "  \"e2e_queries\": %zu,\n",
                     simd::IsaName(), simd::Width(), simd::BatchLanes(),
                     vector_hw ? "true" : "false", pr8_queries);
        for (const Pr8Row& row : pr8_rows) {
          std::fprintf(
              f,
              "  \"e2e_%s_scalar_stage_seconds\": %.6f,\n"
              "  \"e2e_%s_batched_stage_seconds\": %.6f,\n"
              "  \"e2e_%s_stage_speedup\": %.3f,\n"
              "  \"e2e_%s_wall_speedup\": %.3f,\n"
              "  \"e2e_%s_lane_abandons\": %llu,\n",
              row.key, row.scalar_stage_seconds, row.key,
              row.batched_stage_seconds, row.key,
              row.scalar_stage_seconds / row.batched_stage_seconds, row.key,
              row.scalar_seconds / row.batched_seconds, row.key,
              static_cast<unsigned long long>(row.lane_abandons));
        }
        std::fprintf(f,
                     "  \"identity_matrix_combos\": %d,\n"
                     "  \"identical_results\": true\n"
                     "}\n",
                     matrix_combos);
        std::fclose(f);
        std::printf("wrote %s\n", json_pr8.c_str());
      }
    }
    simd::SetEnabled(prev_simd);
  }

  // -------------------------------------------------------------------
  // Zero-copy mmap serving: snapshot v4 open cost vs the v2 heap load,
  // bytes/trajectory of the payload tiers, and the query-latency delta of
  // serving straight from the mapping (with the prebuilt grid section) and
  // from the bit-exact compressed-residual tier — both identity-gated
  // against the heap-loaded service.
  // -------------------------------------------------------------------
  {
    PrintHeader("[PR10] Zero-copy mmap serving: v4 open vs v2 load, "
                "storage tiers");
    const std::string v2_path = "bench_pr10_v2.snap";
    const std::string v4_path = "bench_pr10_v4.snap";
    const std::string v4_pool_path = "bench_pr10_v4_pool.snap";
    const std::string v4_lossy_path = "bench_pr10_v4_lossy.snap";
    const std::string v4_exact_path = "bench_pr10_v4_exact.snap";
    WriteSnapshot(w.corpus, v2_path);
    WriteSnapshotV4(w.corpus, v4_path);  // serving file: grid included
    // Payload-tier files without the (shared) grid section, so the
    // bytes/trajectory comparison measures the tiers, not the index.
    V4WriteOptions pool_only;
    pool_only.include_grid = false;
    WriteSnapshotV4(w.corpus, v4_pool_path, pool_only);
    V4WriteOptions lossy = pool_only;
    lossy.compress = true;
    WriteSnapshotV4(w.corpus, v4_lossy_path, lossy);
    V4WriteOptions exact = lossy;
    exact.codec.store_residuals = true;
    WriteSnapshotV4(w.corpus, v4_exact_path, exact);
    auto file_bytes = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      return static_cast<double>(in.tellg());
    };
    const double traj_count = static_cast<double>(w.corpus.size());
    const double pooled_bpt = file_bytes(v4_pool_path) / traj_count;
    const double lossy_bpt = file_bytes(v4_lossy_path) / traj_count;
    const double exact_bpt = file_bytes(v4_exact_path) / traj_count;
    const double v2_bpt = file_bytes(v2_path) / traj_count;

    // Startup: the v2 reader streams and fingerprints every point; the v4
    // open maps the file and validates structure only (the payload stays
    // un-faulted until queries touch it). Files sit in the page cache for
    // both sides, so this isolates the open paths themselves.
    const double v2_read_seconds =
        BestBuildSeconds(passes, [&]() { return ReadSnapshot(v2_path); });
    const double v4_open_seconds = BestBuildSeconds(passes, [&]() {
      Result<MmapSnapshot> opened = MmapSnapshot::Open(v4_path);
      if (!opened.ok()) {
        std::fprintf(stderr, "FATAL: v4 open failed: %s\n",
                     opened.status().ToString().c_str());
        std::exit(1);
      }
      return opened.MoveValue();
    });
    const double open_speedup = v2_read_seconds / v4_open_seconds;

    // Serving: one shard so the whole-corpus engines adopt the mapped grid
    // (multi-shard views build their own per-shard indexes on any tier).
    Result<MmapSnapshot> mapped = MmapSnapshot::Open(v4_path);
    Result<MmapSnapshot> residual = MmapSnapshot::Open(v4_exact_path);
    if (!mapped.ok() || !residual.ok()) {
      std::fprintf(stderr, "FATAL: v4 serving open failed\n");
      std::exit(1);
    }
    ServiceOptions serve_options;
    serve_options.engine = engine_options;
    serve_options.shards = 1;
    serve_options.cache_capacity = 0;

    QueryService heap_service(w.corpus, serve_options);
    ServiceOptions mapped_options = serve_options;
    mapped_options.engine.prebuilt_grid = mapped.value().grid();
    QueryService mmap_service(mapped.value().dataset(), mapped_options);
    QueryService residual_service(residual.value().dataset(), serve_options);

    auto timed_batch = [&](QueryService* service, double* seconds) {
      auto hits = service->SubmitBatch(queries, w.excluded);  // warm-up
      *seconds = BestSeconds(passes, [&]() {
        service->SubmitBatch(queries, w.excluded);
      });
      return hits;
    };
    double heap_seconds = 0, mmap_seconds = 0, residual_seconds = 0;
    const auto heap_hits = timed_batch(&heap_service, &heap_seconds);
    const auto mmap_hits = timed_batch(&mmap_service, &mmap_seconds);
    const auto residual_hits =
        timed_batch(&residual_service, &residual_seconds);
    const bool identical = Identical(heap_hits, mmap_hits) &&
                           Identical(heap_hits, residual_hits);

    TablePrinter pr10_table({"Startup path", "Seconds", "Speedup"});
    pr10_table.AddRow({"v2 heap load (read + checksum)",
                       TablePrinter::Num(v2_read_seconds, 6), "1.000x"});
    pr10_table.AddRow({"v4 mmap open (structural checks)",
                       TablePrinter::Num(v4_open_seconds, 6),
                       TablePrinter::Num(open_speedup, 1) + "x"});
    pr10_table.Print();
    TablePrinter tier_table({"Storage tier", "Bytes/traj", "vs pooled"});
    auto tier_row = [&](const std::string& name, double bpt) {
      tier_table.AddRow({name, TablePrinter::Num(bpt, 1),
                         TablePrinter::Num(bpt / pooled_bpt, 3) + "x"});
    };
    tier_row("v2 (pool only)", v2_bpt);
    tier_row("v4 pooled (pool + SoA shadows)", pooled_bpt);
    tier_row("v4 compressed, lossy 1e-7", lossy_bpt);
    tier_row("v4 compressed + residuals (exact)", exact_bpt);
    tier_table.Print();
    TablePrinter latency_table({"Serving tier", "Batch (s)", "vs heap"});
    auto latency_row = [&](const std::string& name, double seconds) {
      latency_table.AddRow({name, TablePrinter::Num(seconds, 4),
                            TablePrinter::Num(seconds / heap_seconds, 3) +
                                "x"});
    };
    latency_row("heap-loaded corpus", heap_seconds);
    latency_row("v4 mmap + prebuilt grid", mmap_seconds);
    latency_row("v4 compressed residuals (decoded)", residual_seconds);
    latency_table.Print();
    std::printf("mmap and residual tiers identical to heap serving: %s\n",
                identical ? "yes" : "NO");
    if (!identical) {
      // CI correctness gate: zero-copy and bit-exact compressed serving
      // must be hit-for-hit with the heap-loaded corpus.
      std::fprintf(stderr,
                   "FATAL: mmap/compressed serving diverges from the "
                   "heap-loaded baseline\n");
      std::exit(1);
    }

    const std::string json_pr10 = flags.GetString("json-pr10", "");
    if (!json_pr10.empty()) {
      FILE* f = std::fopen(json_pr10.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_pr10.c_str());
      } else {
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"pr10_mmap_serving\",\n"
            "  \"corpus_trajectories\": %d,\n"
            "  \"queries\": %zu,\n"
            "  \"v2_read_seconds\": %.6f,\n"
            "  \"v4_open_seconds\": %.6f,\n"
            "  \"open_speedup\": %.1f,\n"
            "  \"v2_bytes_per_traj\": %.1f,\n"
            "  \"pooled_bytes_per_traj\": %.1f,\n"
            "  \"compressed_bytes_per_traj\": %.1f,\n"
            "  \"compressed_vs_pooled\": %.3f,\n"
            "  \"compressed_exact_bytes_per_traj\": %.1f,\n"
            "  \"heap_batch_seconds\": %.6f,\n"
            "  \"mmap_batch_seconds\": %.6f,\n"
            "  \"mmap_read_delta\": %.4f,\n"
            "  \"residual_batch_seconds\": %.6f,\n"
            "  \"residual_read_delta\": %.4f,\n"
            "  \"identical_results\": true\n"
            "}\n",
            w.corpus.size(), queries.size(), v2_read_seconds,
            v4_open_seconds, open_speedup, v2_bpt, pooled_bpt, lossy_bpt,
            lossy_bpt / pooled_bpt, exact_bpt, heap_seconds, mmap_seconds,
            mmap_seconds / heap_seconds - 1.0, residual_seconds,
            residual_seconds / heap_seconds - 1.0);
        std::fclose(f);
        std::printf("wrote %s\n", json_pr10.c_str());
      }
    }
    std::remove(v2_path.c_str());
    std::remove(v4_path.c_str());
    std::remove(v4_pool_path.c_str());
    std::remove(v4_lossy_path.c_str());
    std::remove(v4_exact_path.c_str());
  }

  std::printf(
      "\nShape check: on a machine with >= 4 hardware threads, queries/s "
      "grows with shard\ncount (the 4-shard row exceeds 1.5x the 1-shard "
      "baseline; near-linear until the\ncore count). The cache absorbs "
      "passes 2-3 (hit rate -> 2/3 of lookups). The\n[PR2] grid query and "
      "snapshot load rows must be at least 1x vs legacy. The\n[PR3] "
      "bind-once + cutoff row must be at least 1.2x vs the stateless "
      "stage.\nThe [PR4] rows price the OSF bound filter and bound "
      "ordering against\nabandoning alone under one shared threshold; all "
      "three must equal the\nunsharded serial engine (gated). The\n"
      "[PR5] delta-free live row "
      "must stay within 5%% of the static baseline, the\n20%%-delta row "
      "within the delta's share of the corpus, and the post-compaction\n"
      "row back at the delta-free level. The [PR6] metrics-enabled row must "
      "stay\nwithin 2%% of metrics-disabled (gated), the funnel rows must "
      "telescope\nexactly (gated), and Stats() stays sub-microsecond under "
      "load. The [PR7]\nSIMD rows must be bit-identical to the scalar oracle "
      "(gated); on vector\nhardware the WED column sweep shows >= 1.5x and "
      "the ExactS/ERP end-to-end\nrow a visible search-stage win, while the "
      "(forced) DTW/Frechet rows document\nwhy the column split alone left "
      "those steppers scalar (in a scalar build\nevery [PR7] speedup is ~1x "
      "by construction). The [PR8] multi-sweep rows are\nthe second "
      "batching axis that retires that caveat: on vector hardware the\n"
      "ExactS/DTW and ExactS/Frechet stage speedups reach >= 1.5x and CMA "
      ">= 1.3x,\nand the algorithm x distance identity matrix must report "
      "IDENTICAL (gated)\nacross live delta and post-compaction corpora. "
      "The [PR10] v4 mmap open must\nbeat the v2 heap load by >= 20x (it "
      "validates structure instead of streaming\nand checksumming the "
      "payload), the compressed tier must need <= 0.5x the\npooled tier's "
      "bytes/trajectory, and the mmap and compressed-residual serving\n"
      "tiers must be hit-for-hit identical to heap serving (gated).\n");
}

}  // namespace
}  // namespace trajsearch::bench

int main(int argc, char** argv) { trajsearch::bench::Main(argc, argv); }
