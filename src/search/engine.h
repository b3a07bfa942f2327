#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/dataset.h"
#include "obs/registry.h"
#include "prune/grid_index.h"
#include "prune/key_point_filter.h"
#include "search/plan_pool.h"
#include "search/searcher.h"

namespace trajsearch {

class SharedTopK;
class ThreadPool;
struct PipelineScratch;

/// \brief Configuration of the database-level search pipeline (Algorithm 3):
/// GBP candidate filter -> KPF lower-bound filter -> per-trajectory search.
struct EngineOptions {
  DistanceSpec spec;
  Algorithm algorithm = Algorithm::kCma;
  /// Grid-Based Pruning on/off.
  bool use_gbp = true;
  /// Key Points Filter on/off.
  bool use_kpf = true;
  /// Replaces KPF's sampled bound with the OSF comparator (full bound).
  bool use_osf = false;
  /// GBP grid cell side (the paper's epsilon); 0 derives bbox width / 256.
  /// The engine never writes the derived value back — options() always
  /// returns what the caller passed; read the actual cell side from
  /// grid()->stats().cell_size.
  double cell_size = 0;
  /// GBP close-count fraction mu in (0, 1) (paper default 0.4).
  double mu = 0.4;
  /// KPF key-point sampling rate r (paper default 0.05).
  double sample_rate = 0.05;
  /// Number of results to return (top-K, Appendix E).
  int top_k = 1;
  /// Trained policy for kRls / kRlsSkip (optional; untrained if null).
  const RlsPolicy* rls_policy = nullptr;
  /// Worker threads for the search stage (1 = the paper's serial pipeline).
  /// With more threads, candidates are processed in chunks pulled from a
  /// shared counter by up to `threads` worker tasks on the scheduler pool;
  /// all workers prune against one global SharedTopK threshold. Results are
  /// identical to the serial engine whenever the bound is sound (KPF at
  /// sample_rate 1.0, OSF, or bounds off) — a *sampled* KPF estimate may
  /// prune differently depending on when the shared threshold tightened.
  int threads = 1;
  /// Threads the live top-K threshold (SharedTopK::Cutoff()) into
  /// QueryRun::Run as an early-abandon cutoff. Results are identical either
  /// way — the plans only abandon work that provably cannot beat the
  /// threshold — so this exists for benchmarking/ablation, like `threads`.
  bool use_early_abandon = true;
  /// Evaluate candidates most-promising-first (descending GBP close count;
  /// with GBP off, ascending KPF/OSF lower bound) instead of ascending id,
  /// so the top-K threshold tightens early and prunes the tail. The base
  /// shards and the live delta apply the same rule. The candidate *set*
  /// and, under a sound bound, the results are unchanged; with a *sampled*
  /// KPF estimate the evaluation order can change which candidates the
  /// estimate prunes (same caveat as `threads`), and the shared threshold's
  /// tightening time then also depends on thread interleaving, so threaded
  /// or sharded results can vary run to run — use sample_rate = 1.0 or OSF
  /// where determinism matters.
  bool order_candidates = true;
  /// Scheduler pool for the multi-threaded search stage; null uses the
  /// process-wide DefaultScheduler(). The QueryService injects its own pool
  /// here so shard fan-out and per-query workers share one thread set
  /// (not owned).
  ThreadPool* scheduler = nullptr;
  /// Metrics registry the engine folds its pruning funnel into
  /// (`engine.<Algorithm>.funnel.*` counters, once per QueryInto). Null
  /// disables funnel export entirely. Observability-only; not owned.
  obs::Registry* metrics = nullptr;
  /// A prebuilt GBP index to serve from instead of building one — the
  /// zero-copy path for the grid section of a mapped v4 snapshot. Used only
  /// when it provably matches what the engine would build itself: use_gbp is
  /// on, the engine's view is the whole corpus the index covers
  /// (begin_id() == 0 and size() == prebuilt_grid->dataset_size()) and the
  /// cell side equals the one this engine derives; otherwise the engine
  /// silently builds its own (per-shard views always do). Read only while
  /// the engine or service is constructed: an adopted grid is copied, and
  /// the copy shares the arrays and their keepalive (the snapshot's
  /// mapping), so the pointed-to index may be destroyed afterwards. Not
  /// owned.
  const GridIndex* prebuilt_grid = nullptr;
};

/// \brief One result of a database query.
struct EngineHit {
  int trajectory_id = -1;
  SearchResult result;
};

/// \brief Timing/pruning breakdown of one query (feeds Figures 9-11).
///
/// Serial mode is threads <= 1 — always the case for DeltaEngine, which
/// runs the same stages with one worker.
struct QueryStats {
  /// Candidate generation + bound filtering (GBP + KPF/OSF) in serial mode;
  /// GBP only when threads > 1 (bound checks then run inside the workers —
  /// see bound_seconds).
  double prune_seconds = 0;
  /// Wall-clock of the whole search stage (equals pair_search_seconds in
  /// serial mode).
  double search_seconds = 0;
  /// Time in KPF/OSF bound checks alone; summed across workers when
  /// threads > 1 (CPU seconds, not wall-clock).
  double bound_seconds = 0;
  /// Time in per-pair QueryRun::Run calls alone; summed across workers when
  /// threads > 1 (CPU seconds, not wall-clock).
  double pair_search_seconds = 0;
  /// Candidate-generation time alone (GBP, or the identity scan with GBP
  /// off); already included in prune_seconds.
  double gbp_seconds = 0;
  int candidates_after_gbp = 0;
  int pruned_by_bound = 0;
  int searched = 0;
  /// Candidates dropped before any bound math: the excluded query id and
  /// empty trajectories. candidates_after_gbp == skipped + pruned_by_bound
  /// + searched, always.
  int skipped = 0;
  /// Searched candidates whose result landed at or above the early-abandon
  /// cutoff captured before the run: DP work the plan abandoned early, or a
  /// completed result the top-K merge then discarded. searched == abandoned
  /// + (hits that were competitive when computed).
  int abandoned = 0;
  /// DP cells evaluated through the SIMD column/batch kernels (full lane
  /// groups; batch kernels count per live lane) vs. scalar iterations (tail
  /// lanes, or whole sweeps when dispatch picked the scalar path); summed
  /// across workers. Their sum is dispatch-invariant.
  uint64_t simd_vector_cells = 0;
  uint64_t simd_scalar_cells = 0;
  /// Batch-kernel lanes retired early by the shared cutoff (per-lane
  /// SweepLowerBound crossings; for CMA the row floor plus suffix floor); 0
  /// under scalar dispatch, where the same abandons surface as shorter
  /// sweeps.
  uint64_t simd_lane_abandons = 0;
  /// CMA lanes restarted with the next candidate of the batch window after
  /// their candidate completed or abandoned; 0 under scalar dispatch.
  uint64_t simd_lane_refills = 0;
};

/// \brief Resolved `engine.<Algorithm>.funnel.*` counters. SearchEngine and
/// DeltaEngine fold into the same per-algorithm funnel through their
/// SearchPipeline. All-null when constructed without a registry, making
/// Fold a no-op.
struct FunnelCounters {
  FunnelCounters() = default;
  FunnelCounters(obs::Registry* registry, Algorithm algorithm);

  /// Adds one query's pruning funnel (a handful of relaxed atomic adds).
  void Fold(const QueryStats& stats) const;

  obs::Counter* queries = nullptr;
  obs::Counter* candidates = nullptr;
  obs::Counter* skipped = nullptr;
  obs::Counter* bound_pruned = nullptr;
  obs::Counter* dp_runs = nullptr;
  obs::Counter* dp_abandoned = nullptr;
  obs::Counter* dp_completed = nullptr;
  /// `engine.<Algorithm>.simd.*` kernel-dispatch counters (not part of the
  /// funnel namespace, so funnel extraction/telescoping is unaffected).
  obs::Counter* simd_vector_cells = nullptr;
  obs::Counter* simd_scalar_cells = nullptr;
  obs::Counter* simd_lane_abandons = nullptr;
  obs::Counter* simd_lane_refills = nullptr;
};

/// \brief Algorithm 3 after candidate generation — bound ordering, KPF/OSF
/// bound filter, length-sorted batch window, QueryRun::RunWindow, offer into
/// a SharedTopK — implemented once for SearchEngine (base shards, over a
/// DatasetView) and DeltaEngine (the live delta, over a DeltaView).
///
/// Owns what both engines need per query: the options, the searcher they
/// describe, the pooled plans and the resolved funnel counters. Run() is
/// defined in search/pipeline.h, which only the engines include. Safe to
/// call concurrently.
class SearchPipeline {
 public:
  explicit SearchPipeline(EngineOptions options);

  const EngineOptions& options() const { return options_; }

  /// Runs one query over `data` (a DatasetView or DeltaView, addressed by
  /// view-local id). `collect(std::vector<int>* out)` is the candidate
  /// source: it fills `out` with the grid's survivors (close-count ranked
  /// when options().order_candidates) and returns true, or returns false
  /// to have every id scanned; its time is the query's gbp_seconds. Hits
  /// are offered as view id + `id_offset`; `excluded_id` is view-local (-1
  /// for none). Up to `threads` workers evaluate the candidates: worker 0
  /// is the caller, the rest are scheduler tasks — so one worker never
  /// touches the scheduler, and the serial engine is this path with one
  /// worker. Folds the funnel and writes `stats` (if non-null).
  template <class View, class Collect>
  void Run(const View& data, TrajectoryView query, Collect&& collect,
           SharedTopK* topk, int id_offset, int excluded_id, int threads,
           QueryStats* stats) const;

 private:
  /// Stages 2+3 over the candidates in `scratch`, accumulating into `stats`.
  template <class View>
  void Evaluate(const View& data, TrajectoryView query, bool from_grid,
                PipelineScratch* scratch, SharedTopK* topk, int id_offset,
                int excluded_id, int threads, QueryStats* stats) const;

  EngineOptions options_;
  std::unique_ptr<Searcher> searcher_;
  FunnelCounters funnel_;
  /// Plans/bounds are grow-only pooled; steady state reuses the same plans
  /// and their scratch across queries.
  mutable PlanPool plans_;
};

/// \brief Database-level similar subtrajectory search engine.
///
/// Owns the pruning index and a per-trajectory searcher; Query() returns the
/// top-K most similar subtrajectories across all data trajectories,
/// maintaining a bounded heap exactly as described in Appendix E.
///
/// Execution model (since PR 3): Query() binds the searcher once per query —
/// Searcher::NewRun() yields a QueryRun that owns all query-derived state
/// (DP columns, deletion-prefix tables, reversed-query copies, scratch
/// rows) — and evaluates every pruning survivor through QueryRun::Run with
/// the live top-K threshold as an early-abandon cutoff. Plans and KPF bound
/// plans are pooled per engine: a worker thread checks one out, rebinds it
/// to the query, and returns it, so steady-state queries (e.g. batched
/// service traffic) run the whole search stage without heap allocations per
/// candidate.
///
/// Shared-threshold pipeline (since PR 4): pruning survivors are ordered
/// most-promising-first (descending GBP close count, or ascending KPF/OSF
/// lower bound when GBP is off) and every worker prunes against one global
/// SharedTopK, whose lock-free cutoff is the true K-th-best distance across
/// *all* workers — and, through QueryInto, across all shards of a service
/// query. The search stage runs as chunked tasks on a shared ThreadPool
/// scheduler (no per-query std::thread spawning): up to `threads` workers
/// pull fixed-size candidate chunks from an atomic counter, each binding
/// one pooled plan per query. Everything after candidate generation is the
/// SearchPipeline that DeltaEngine runs too.
///
/// The engine searches a DatasetView — the whole dataset in the common case,
/// or one shard's contiguous range of the shared corpus pool under the
/// service layer. Hit ids and `excluded_id` are view-local; for a
/// whole-dataset view they equal the global trajectory ids.
class SearchEngine {
 public:
  /// The viewed dataset must outlive the engine. A Dataset (or pointer to
  /// one) converts implicitly to a whole-dataset view.
  SearchEngine(DatasetView data, EngineOptions options);

  /// Runs one query; hits are sorted by ascending distance (best first).
  /// `excluded_id` removes one trajectory from the data side — used when
  /// the query was sampled from the corpus (§6.1: "the other trajectories
  /// are used as data trajectories"). Safe to call concurrently.
  std::vector<EngineHit> Query(TrajectoryView query,
                               QueryStats* stats = nullptr,
                               int excluded_id = -1) const;

  /// Runs one query against an externally owned SharedTopK, offering every
  /// hit with `id_offset` added to its view-local trajectory id. This is the
  /// service layer's entry point: all shards of one query offer into the
  /// same SharedTopK (offset = shard begin, so ids are corpus ids and the
  /// canonical tie-break is global), which makes the early-abandon cutoff
  /// the true corpus-wide K-th best instead of a per-shard one. Query() is a
  /// wrapper over this with a private SharedTopK. Safe to call concurrently.
  void QueryInto(TrajectoryView query, SharedTopK* topk, int id_offset,
                 QueryStats* stats = nullptr, int excluded_id = -1) const;

  /// Exactly what the caller passed (derived values are never written back).
  const EngineOptions& options() const { return pipeline_.options(); }
  const DatasetView& data() const { return data_; }
  /// The pruning index served from (null when GBP is disabled): a copy of
  /// the caller's prebuilt_grid sharing its arrays when it was adopted,
  /// else the engine-built one. stats().cell_size holds the derived cell
  /// side when options().cell_size was 0.
  const GridIndex* grid() const { return grid_ ? &*grid_ : nullptr; }

 private:
  DatasetView data_;
  SearchPipeline pipeline_;
  /// What the query path probes; empty with GBP off.
  std::optional<GridIndex> grid_;
};

/// Builds the per-trajectory searcher an engine's options describe: trained
/// RLS policies route through MakeRlsSearcher, everything else through
/// MakeSearcher (invalid algorithm/distance combinations are a programming
/// error here and CHECK). SearchPipeline builds its searcher with it.
std::unique_ptr<Searcher> MakeEngineSearcher(const EngineOptions& options);

}  // namespace trajsearch
