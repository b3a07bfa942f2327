#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/live_dataset.h"
#include "obs/registry.h"
#include "prune/delta_grid.h"
#include "search/delta_engine.h"
#include "search/engine.h"
#include "util/scheduler.h"
#include "util/status.h"
#include "util/sync.h"

namespace trajsearch {

/// \brief Configuration of the serving layer on top of SearchEngine.
struct ServiceOptions {
  /// Per-shard engine configuration. When GBP is enabled with a derived cell
  /// size (cell_size == 0), the service fixes the cell size from the
  /// *initial* dataset bounding box before sharding, so shard grids agree
  /// with the unsharded engine and results are identical. The pinned value
  /// is kept for the service's whole lifetime — compactions rebuild their
  /// CSR indexes and the delta grid with the same cell — so query results
  /// are a function of corpus content, never of compaction timing.
  EngineOptions engine;
  /// Number of dataset shards (each with its own SearchEngine); clamped to
  /// [1, base size] per generation — a compaction that grows the base can
  /// unlock more shards, up to this requested count.
  int shards = 1;
  /// Worker threads in the shared scheduler pool, which runs the
  /// (query, shard) fan-out tasks, the per-query delta-stage task, each
  /// shard engine's candidate-chunk workers, and background compactions;
  /// 0 sizes it to min(hardware, shards * engine.threads).
  int worker_threads = 0;
  /// Result-cache capacity in entries; 0 disables caching.
  size_t cache_capacity = 256;
  /// Background compaction threshold: when the delta reaches this many
  /// trajectories after an append, a compaction task is scheduled on the
  /// worker pool (it rebuilds one merged base + CSR indexes off-line, then
  /// atomically swaps the generation). 0 disables auto-compaction — the
  /// owner can still call Compact() explicitly.
  size_t compact_delta_trajectories = 1024;
};

/// \brief Service counters (monotonic since construction).
///
/// Since PR 6 this is a thin *view* computed from the service's metrics
/// registry: every field is backed by a wait-free sharded obs::Counter, so
/// reading Stats() never touches the cache mutex (or any other lock) and
/// never blocks a SubmitBatch in flight. The registry itself (histograms,
/// funnels, traces) is exposed via QueryService::metrics().
struct ServiceStats {
  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Ingest counters: trajectories/points accepted by Append/AppendBatch,
  /// and the number of Append* calls.
  uint64_t appends = 0;
  uint64_t append_batches = 0;
  uint64_t appended_points = 0;
  /// Generation swaps adopted by compaction, and the wall-clock spent
  /// building merged corpora + rebuilt indexes (off-line work; readers are
  /// only blocked for the pointer swap).
  uint64_t compactions = 0;
  double compaction_seconds = 0;
  /// Engine-time split summed over every (query, shard) and (query, delta)
  /// task that actually searched (cache hits skip the engines): candidate
  /// generation + bound filtering (at any engine thread count), bound
  /// checks alone, and per-pair QueryRun::Run time. CPU seconds across all
  /// workers, not wall-clock.
  double prune_seconds = 0;
  double bound_seconds = 0;
  double pair_search_seconds = 0;
  /// The service-layer stages around the engines, so the accounted stages
  /// sum to ~end-to-end query latency: result-cache key lookups, and
  /// merging/sorting the per-part top-Ks into final hit lists.
  double cache_lookup_seconds = 0;
  double merge_seconds = 0;
  /// Cache hit fraction in [0, 1] (0 when nothing was looked up).
  double HitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }
};

/// \brief Shape of the corpus generation currently being served.
struct CorpusShape {
  /// Bumps on every publication (append batch or compaction swap).
  uint64_t generation = 0;
  /// Bumps on appends only; the stamp folded into result-cache keys.
  uint64_t ingest_seq = 0;
  /// Number of compaction swaps adopted.
  uint64_t base_generation = 0;
  int base_trajectories = 0;
  int delta_trajectories = 0;
  size_t delta_points = 0;
};

/// \brief Sharded, cached serving layer for similar-subtrajectory search
/// over a *live* corpus: queries run while trajectories are appended.
///
/// Storage is generational (core/live_dataset.h): an immutable base corpus
/// in its pooled Dataset form — shards are contiguous DatasetViews over that
/// one shared pool, each with its own SearchEngine — plus an append-only
/// delta searched by a DeltaEngine and indexed by one incremental delta grid
/// per base generation, which queries extend lazily by the trajectories
/// appended since the grid last grew. Every mutation publishes an
/// immutable ServingState (generation view + shard engines) through an
/// RCU-style publication slot (readers never touch the ingest or compaction
/// locks); a query batch pins the state once, so all its (query,
/// shard) and (query, delta) tasks see a single consistent generation no
/// matter how many appends or compaction swaps land mid-flight. All parts of
/// one query offer into a single SharedTopK with corpus trajectory ids
/// (base ids then delta ids, stable across compaction), so the
/// early-abandon threshold every part prunes against is the corpus-wide
/// K-th best. Results are identical to an unsharded SearchEngine over the
/// flattened corpus whenever the engine's bound pruning is sound, and
/// identical before vs after a compaction of the same content.
///
/// When the delta exceeds ServiceOptions::compact_delta_trajectories, a
/// background task on the worker pool rebuilds one merged Dataset + CSR
/// indexes and swaps the generation; appends that race the rebuild survive
/// in the delta with their ids unchanged.
///
/// The LRU result cache folds the generation's ingest stamp into its keys:
/// an append invalidates every stale entry (the stamp changed) without
/// flushing entries that are still valid, and compaction — which changes
/// layout, not content — invalidates nothing. Submit/SubmitBatch/Append*/
/// Compact are all safe to call concurrently from multiple threads.
class QueryService {
 public:
  /// Takes ownership of the dataset as the initial base (generation 0).
  QueryService(Dataset dataset, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Runs one query; hits are best-first with corpus trajectory ids.
  /// `excluded_id` removes one corpus trajectory from the data side.
  std::vector<EngineHit> Submit(TrajectoryView query, int excluded_id = -1)
      TRAJ_EXCLUDES(mu_);

  /// Runs a batch: all (query, shard) tasks are enqueued at once, so the
  /// pool dispatch cost is amortized and shards stay busy across queries.
  /// When caching is enabled, queries within the batch that share a cache
  /// key are searched once and copied (the duplicates count as cache hits).
  /// `excluded_ids` (optional) must be empty or parallel to `queries`.
  std::vector<std::vector<EngineHit>> SubmitBatch(
      const std::vector<TrajectoryView>& queries,
      const std::vector<int>& excluded_ids = {}) TRAJ_EXCLUDES(mu_);

  /// Appends one trajectory to the corpus (copied into delta storage).
  /// Returns its corpus id; the trajectory is visible to every query
  /// submitted after this returns. In-flight queries keep their pinned
  /// generation and do not see it.
  int Append(TrajectoryView trajectory) TRAJ_EXCLUDES(ingest_mu_);

  /// Appends many trajectories with one publication; returns their
  /// (consecutive) corpus ids.
  std::vector<int> AppendBatch(
      const std::vector<TrajectoryView>& trajectories)
      TRAJ_EXCLUDES(ingest_mu_);

  /// Compacts the current delta into the base synchronously: builds the
  /// merged corpus + indexes, swaps the generation, and returns true (false
  /// if the delta was empty). Queries keep running throughout; only the
  /// final swap takes the ingest lock. Serialized against the background
  /// compaction, so calling it concurrently is safe (one of them wins).
  bool Compact() TRAJ_EXCLUDES(compact_mu_, ingest_mu_);

  /// Writes the served generation, flattened (base ids, then the delta in
  /// append order), as a v4 snapshot without a grid section.
  Status SaveSnapshot(const std::string& path) const;

  /// Wait-free: sums sharded registry counters, never takes a lock, so
  /// monitoring can poll it while SubmitBatch traffic is in flight.
  ServiceStats Stats() const;
  /// Shape of the generation currently being served.
  CorpusShape Shape() const;
  void ClearCache() TRAJ_EXCLUDES(mu_);

  /// The service's metrics registry: `service.*` counters and latency
  /// histograms, `engine.<Algorithm>.funnel.*` pruning funnels,
  /// `scheduler.*` pool metrics, `live.*` storage gauges, and the per-query
  /// trace ring. Snapshot it for statsz export; set_enabled(false) turns
  /// the instrumentation's clock reads and histogram records off while the
  /// Stats() counters keep counting.
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

  /// Shards of the current generation (grows after compaction, up to the
  /// requested ServiceOptions::shards).
  int shard_count() const;
  const ServiceOptions& options() const { return options_; }
  /// Total trajectories (base + delta) in the current generation.
  int corpus_size() const;
  /// Trajectory accessor by corpus id: a zero-copy handle into the current
  /// generation's storage. The handle stays valid until a later compaction
  /// retires that generation — callers that hold refs across appends or
  /// compactions should pin a View() instead.
  TrajectoryRef trajectory(int corpus_id) const;
  /// Pins and returns the currently served generation.
  CorpusView View() const;

 private:
  struct Shard {
    /// Contiguous range [view.begin_id(), view.begin_id() + view.size()) of
    /// the generation's base; corpus id = view.begin_id() + shard-local id.
    DatasetView view;
    std::unique_ptr<SearchEngine> engine;
  };

  /// Base-side serving structures, shared by every generation until the
  /// next compaction replaces them; immutable once built except for the
  /// delta grid.
  struct BaseState {
    std::shared_ptr<const Dataset> corpus;
    std::vector<Shard> shards;
    /// The one delta grid of this base generation, caught up and read by
    /// the (query, delta) tasks of every generation over it (null when GBP
    /// is off). Publication never touches it, so a pure ingest stream
    /// builds no grid. A compaction renumbers delta ids and brings a new
    /// BaseState, hence an empty grid.
    std::unique_ptr<SharedDeltaGrid> delta_grid;
  };

  /// One published generation: everything a query batch needs, pinned by a
  /// single shared_ptr; immutable after publication.
  struct ServingState {
    CorpusView view;
    std::shared_ptr<const BaseState> base;
  };

  /// LRU map from cache key to a cached best-first hit list.
  class ResultCache {
   public:
    explicit ResultCache(size_t capacity) : capacity_(capacity) {}
    bool Get(uint64_t key, std::vector<EngineHit>* out);
    /// Returns true if an old entry was evicted.
    bool Put(uint64_t key, std::vector<EngineHit> value);
    void Clear();
    size_t size() const { return index_.size(); }

   private:
    using Entry = std::pair<uint64_t, std::vector<EngineHit>>;
    size_t capacity_;
    std::list<Entry> lru_;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  };

  uint64_t CacheKey(TrajectoryView query, int excluded_id,
                    uint64_t ingest_seq) const;
  /// Builds shards + engines over `corpus` (no locks; compaction calls this
  /// off-line while appends and queries continue).
  std::shared_ptr<const BaseState> BuildBaseState(
      std::shared_ptr<const Dataset> corpus) const;
  /// Pins the current generation.
  std::shared_ptr<const ServingState> State() const { return state_.load(); }
  /// Publishes live_'s current generation.
  void PublishLocked() TRAJ_REQUIRES(ingest_mu_);
  /// Schedules a background compaction if the threshold is exceeded and
  /// none is in flight.
  void MaybeScheduleCompactionLocked() TRAJ_REQUIRES(ingest_mu_);
  bool CompactInternal() TRAJ_EXCLUDES(compact_mu_, ingest_mu_);

  /// Resolved-once pointers into registry_ for every ServiceStats field and
  /// the service-layer latency/stage instrumentation (all wait-free to
  /// mutate; see Stats()).
  struct ServiceMetrics {
    obs::Counter* queries = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_evictions = nullptr;
    obs::Counter* appends = nullptr;
    obs::Counter* append_batches = nullptr;
    obs::Counter* appended_points = nullptr;
    obs::Counter* compactions = nullptr;
    /// Nanosecond-accumulating time counters (Counter::AddSeconds).
    obs::Counter* compaction_nanos = nullptr;
    obs::Counter* prune_nanos = nullptr;
    obs::Counter* bound_nanos = nullptr;
    obs::Counter* pair_search_nanos = nullptr;
    obs::Counter* cache_lookup_nanos = nullptr;
    obs::Counter* merge_nanos = nullptr;
    /// Trajectories added to a delta grid (catch-up work, not reads).
    obs::Counter* delta_grid_indexed = nullptr;
    /// Latency distributions (recorded only while the registry is enabled).
    obs::Histogram* batch_seconds = nullptr;
    obs::Histogram* query_seconds = nullptr;
    obs::Histogram* stage_cache_lookup = nullptr;
    obs::Histogram* stage_candidates = nullptr;
    obs::Histogram* stage_bound = nullptr;
    obs::Histogram* stage_dp = nullptr;
    obs::Histogram* stage_merge = nullptr;
  };

  ServiceOptions options_;
  /// The service's own metrics registry. Declared before every member whose
  /// teardown can still record into it (the live dataset, engines, and the
  /// pool with its draining tasks), so it is destroyed after all of them.
  obs::Registry registry_;
  ServiceMetrics metrics_;
  /// options_.engine plus the pinned scheduler pointer; what every shard
  /// engine, the delta engine and every compaction rebuild is created with.
  /// Its prebuilt_grid is cleared once generation 0 is built.
  EngineOptions shard_engine_options_;
  LiveDataset live_;
  std::unique_ptr<DeltaEngine> delta_engine_;
  std::unique_ptr<ThreadPool> pool_;

  mutable Mutex ingest_mu_;  // serializes appends + generation swaps
  std::shared_ptr<const BaseState> base_state_ TRAJ_GUARDED_BY(ingest_mu_);
  bool compaction_scheduled_ TRAJ_GUARDED_BY(ingest_mu_) = false;

  /// Serializes compaction rebuilds. Lock order: compact_mu_ before
  /// ingest_mu_ (CompactInternal swaps the generation under both); nothing
  /// ever takes them the other way — the analysis checks the edge.
  Mutex compact_mu_ TRAJ_ACQUIRED_BEFORE(ingest_mu_);
  TaskGroup compact_group_;  // background compactions; drained in ~

  /// The served generation (RCU: swapped under ingest_mu_, pinned anywhere
  /// without touching the ingest or compaction locks).
  PublishedPtr<const ServingState> state_;

  /// Guards cache_ only — all counters moved off this mutex into the
  /// registry (PR 6), so Stats() and the per-batch counter folds never
  /// serialize against the cache.
  mutable Mutex mu_;
  ResultCache cache_ TRAJ_GUARDED_BY(mu_);
};

}  // namespace trajsearch
