#include "service/query_service.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/fingerprint.h"
#include "io/snapshot.h"
#include "search/topk.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace trajsearch {

namespace {

uint64_t CombineDoubleBits(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return CombineHash(hash, bits);
}

/// Content fingerprint of a WED cost table. The table holds opaque
/// std::functions, so "content" is their observable behaviour: probe
/// sub/ins/del over a small fixed point set and hash the returned costs.
/// Two tables that agree on the probes fingerprint equal (in particular,
/// content-equal tables at different addresses — the pre-PR-4 pointer hash
/// was ASLR-dependent and collided when a different table was allocated at
/// a recycled address); tables that differ anywhere near the probe set
/// fingerprint apart. Probes span signs, magnitudes and exact-equality
/// pairs so the common cost shapes (thresholded, metric, asymmetric)
/// separate. Limitation: two tables that agree on every probe but differ
/// elsewhere collide — a caller swapping cost models mid-service should
/// ClearCache() (in practice a service is constructed with one table for
/// its lifetime, so the keys only need to be stable, not perfect).
uint64_t CombineWedContent(uint64_t hash, const WedCostFns* wed) {
  if (wed == nullptr) return CombineHash(hash, 0x9e3779b97f4a7c15ull);
  static constexpr Point kProbes[] = {
      {0.0, 0.0},   {1.0, 0.0},    {0.0, -1.0},
      {0.5, 0.25},  {-2.75, 3.5},  {41.125, -7.0625},
  };
  for (const Point& p : kProbes) {
    hash = CombineDoubleBits(hash, wed->ins ? wed->ins(p) : -1.0);
    hash = CombineDoubleBits(hash, wed->del ? wed->del(p) : -1.0);
    for (const Point& q : kProbes) {
      hash = CombineDoubleBits(hash, wed->sub ? wed->sub(p, q) : -1.0);
    }
  }
  return hash;
}

/// Content fingerprint of a trained RLS policy: every field that influences
/// inference (greedy action selection) — the learned weights and the skip
/// configuration. Training-only hyper-parameters (learning rate, explore
/// epsilon, seed, ...) are already baked into the weights and are not
/// hashed separately.
uint64_t CombineRlsContent(uint64_t hash, const RlsPolicy* policy) {
  if (policy == nullptr) return CombineHash(hash, 0xc2b2ae3d27d4eb4full);
  hash = CombineHash(hash, static_cast<uint64_t>(policy->options().allow_skip));
  hash = CombineHash(hash,
                     static_cast<uint64_t>(policy->options().skip_length));
  for (const double w : policy->q().weights()) {
    hash = CombineDoubleBits(hash, w);
  }
  return hash;
}

}  // namespace

uint64_t EngineOptionsFingerprint(const EngineOptions& options) {
  // Scheduling-only fields (`threads`, `use_early_abandon`,
  // `order_candidates`, `scheduler`) are deliberately excluded: they change
  // scheduling and the amount of DP work, not results (under a sound bound;
  // see EngineOptions for the sampled-KPF caveat they all share).
  uint64_t hash = 0x51a7e5e5u;
  hash = CombineHash(hash, static_cast<uint64_t>(options.spec.kind));
  hash = CombineDoubleBits(hash, options.spec.edr_epsilon);
  hash = CombineDoubleBits(hash, options.spec.erp_gap.x);
  hash = CombineDoubleBits(hash, options.spec.erp_gap.y);
  hash = CombineWedContent(hash, options.spec.wed);
  hash = CombineHash(hash, static_cast<uint64_t>(options.algorithm));
  hash = CombineHash(hash, static_cast<uint64_t>(options.use_gbp));
  hash = CombineHash(hash, static_cast<uint64_t>(options.use_kpf));
  hash = CombineHash(hash, static_cast<uint64_t>(options.use_osf));
  hash = CombineDoubleBits(hash, options.cell_size);
  hash = CombineDoubleBits(hash, options.mu);
  hash = CombineDoubleBits(hash, options.sample_rate);
  hash = CombineHash(hash, static_cast<uint64_t>(options.top_k));
  hash = CombineRlsContent(hash, options.rls_policy);
  return hash;
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

bool QueryService::ResultCache::Get(uint64_t key, std::vector<EngineHit>* out) {
  if (capacity_ == 0) return false;
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  *out = it->second->second;
  return true;
}

bool QueryService::ResultCache::Put(uint64_t key,
                                    std::vector<EngineHit> value) {
  if (capacity_ == 0) return false;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    return true;
  }
  return false;
}

void QueryService::ResultCache::Clear() {
  lru_.clear();
  index_.clear();
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(Dataset dataset, ServiceOptions options)
    : options_(options), live_(std::move(dataset)),
      cache_(options.cache_capacity) {
  // Pin GBP's derived cell size to the initial corpus bounding box before
  // sharding; per-shard boxes would otherwise derive different grids and the
  // sharded candidate set could diverge from the unsharded engine's. The
  // pinned value also parameterizes the delta grid and every compaction
  // rebuild, so grid geometry never shifts under a running service (an
  // empty initial corpus pins the degenerate-box default of 1.0 — pass an
  // explicit cell size when bootstrapping a corpus purely from appends).
  if (options_.engine.use_gbp && options_.engine.cell_size <= 0) {
    options_.engine.cell_size = DefaultCellSize(live_.View().base().Bounds());
  }

  options_fingerprint_ = EngineOptionsFingerprint(options_.engine);
  options_.shards = std::max(options_.shards, 1);

  // Resolve every metric pointer once; all later mutation is wait-free.
  metrics_.queries = registry_.counter("service.queries");
  metrics_.batches = registry_.counter("service.batches");
  metrics_.cache_hits = registry_.counter("service.cache.hits");
  metrics_.cache_misses = registry_.counter("service.cache.misses");
  metrics_.cache_evictions = registry_.counter("service.cache.evictions");
  metrics_.appends = registry_.counter("service.ingest.appends");
  metrics_.append_batches = registry_.counter("service.ingest.append_batches");
  metrics_.appended_points =
      registry_.counter("service.ingest.appended_points");
  metrics_.compactions = registry_.counter("service.compactions");
  metrics_.compaction_nanos =
      registry_.counter("service.compaction_seconds_total");
  metrics_.prune_nanos = registry_.counter("service.engine.prune_seconds_total");
  metrics_.bound_nanos = registry_.counter("service.engine.bound_seconds_total");
  metrics_.pair_search_nanos =
      registry_.counter("service.engine.pair_search_seconds_total");
  metrics_.cache_lookup_nanos =
      registry_.counter("service.cache_lookup_seconds_total");
  metrics_.merge_nanos = registry_.counter("service.merge_seconds_total");
  metrics_.delta_grid_indexed =
      registry_.counter("service.delta_grid.indexed_trajectories");
  metrics_.batch_seconds = registry_.histogram("service.batch_seconds");
  metrics_.query_seconds = registry_.histogram("service.query_seconds");
  metrics_.stage_cache_lookup =
      registry_.histogram("service.stage.cache_lookup_seconds");
  metrics_.stage_candidates =
      registry_.histogram("service.stage.candidates_seconds");
  metrics_.stage_bound = registry_.histogram("service.stage.bound_seconds");
  metrics_.stage_dp = registry_.histogram("service.stage.dp_seconds");
  metrics_.stage_merge = registry_.histogram("service.stage.merge_seconds");
  live_.AttachMetrics(&registry_);

  // One scheduler pool for everything: the (query, shard) and (query,
  // delta) fan-out tasks, the shard engines' candidate-chunk workers, and
  // background compactions. Created before the engines so
  // EngineOptions::scheduler can point at it — engines then never spawn
  // threads of their own underneath the service.
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers =
      options_.worker_threads > 0
          ? options_.worker_threads
          : std::min(hardware,
                     options_.shards * std::max(1, options_.engine.threads));
  options_.worker_threads = workers;
  pool_ = std::make_unique<ThreadPool>(workers);
  pool_->AttachMetrics(&registry_);
  // The shard engines get the pool and the metrics registry through a
  // private copy of the engine options; options_ itself stays exactly what
  // the caller passed (same rule as the engine's derived cell size —
  // options() must never leak a pointer into service internals that could
  // outlive the service).
  shard_engine_options_ = options_.engine;
  shard_engine_options_.scheduler = pool_.get();
  shard_engine_options_.metrics = &registry_;
  delta_engine_ = std::make_unique<DeltaEngine>(shard_engine_options_);

  MutexLock lock(ingest_mu_);
  base_state_ = BuildBaseState(live_.View().base_ptr());
  PublishLocked();
}

QueryService::~QueryService() {
  // Drain any in-flight background compaction before members (the pool the
  // task runs on, the live dataset it swaps) are torn down.
  compact_group_.Wait();
}

std::shared_ptr<const QueryService::BaseState> QueryService::BuildBaseState(
    std::shared_ptr<const Dataset> corpus) const {
  auto state = std::make_shared<BaseState>();
  state->corpus = std::move(corpus);
  const int corpus_size = state->corpus->size();
  const int shard_count =
      std::clamp(options_.shards, 1, std::max(corpus_size, 1));

  // Contiguous range partition over the shared pool: shard s views corpus
  // ids [s*base + min(s, rem), ...) — no points move, and translating a
  // shard-local hit id back to a corpus id is one addition.
  const int base = corpus_size / shard_count;
  const int rem = corpus_size % shard_count;
  state->shards.resize(static_cast<size_t>(shard_count));
  int next_begin = 0;
  for (int s = 0; s < shard_count; ++s) {
    Shard& shard = state->shards[static_cast<size_t>(s)];
    const int count = base + (s < rem ? 1 : 0);
    shard.view = DatasetView(*state->corpus, next_begin, count);
    next_begin += count;
    shard.engine =
        std::make_unique<SearchEngine>(shard.view, shard_engine_options_);
  }
  if (shard_engine_options_.use_gbp) {
    state->delta_grid = std::make_unique<SharedDeltaGrid>(
        shard_engine_options_.cell_size, metrics_.delta_grid_indexed);
  }
  return state;
}

void QueryService::PublishLocked() {
  auto state = std::make_shared<ServingState>();
  state->view = live_.View();
  state->base = base_state_;
  state_.store(std::move(state));
}

int QueryService::Append(TrajectoryView trajectory) {
  return AppendBatch({trajectory})[0];
}

std::vector<int> QueryService::AppendBatch(
    const std::vector<TrajectoryView>& trajectories) {
  std::vector<int> ids;
  size_t points = 0;
  for (const TrajectoryView& t : trajectories) points += t.size();
  const bool tracing = registry_.enabled() && !trajectories.empty();
  const int64_t start = tracing ? obs::NowNanos() : 0;
  {
    MutexLock lock(ingest_mu_);
    ids = live_.AppendBatch(trajectories);
    if (!trajectories.empty()) {
      PublishLocked();
      MaybeScheduleCompactionLocked();
    }
  }
  if (!trajectories.empty()) {
    metrics_.append_batches->Add(1);
    metrics_.appends->Add(trajectories.size());
    metrics_.appended_points->Add(points);
    if (tracing) {
      registry_.trace().Record(obs::TraceSpan{
          /*query_id=*/0, obs::SpanKind::kAppend, start,
          obs::NowNanos() - start, static_cast<int64_t>(trajectories.size())});
    }
  }
  return ids;
}

void QueryService::MaybeScheduleCompactionLocked() {
  const size_t threshold = options_.compact_delta_trajectories;
  if (threshold == 0 || compaction_scheduled_) return;
  if (static_cast<size_t>(live_.View().delta_size()) < threshold) return;
  compaction_scheduled_ = true;
  pool_->Submit(&compact_group_, [this]() {
    CompactInternal();
    MutexLock lock(ingest_mu_);
    compaction_scheduled_ = false;
    // Appends that raced the rebuild may already have refilled the delta.
    MaybeScheduleCompactionLocked();
  });
}

bool QueryService::Compact() { return CompactInternal(); }

bool QueryService::CompactInternal() {
  // One compaction at a time (explicit Compact() calls and the background
  // task serialize here); appends and queries never take this lock.
  MutexLock compact_lock(compact_mu_);
  const CorpusView pinned = live_.View();
  if (pinned.delta_size() == 0) return false;
  const bool tracing = registry_.enabled();
  const int64_t start = tracing ? obs::NowNanos() : 0;
  Stopwatch watch;

  // Off-line rebuild at the pinned cell size: one merged pooled Dataset and
  // fresh shard engines (CSR grids). Queries keep hitting the old
  // generation and appends keep landing in the delta while this runs.
  auto merged = std::make_shared<const Dataset>(LiveDataset::Merge(pinned));
  std::shared_ptr<const BaseState> rebuilt = BuildBaseState(merged);

  // The generation this swap retires may hold the last references to the
  // old base corpus, its shard engines and its delta grid; keeping it past
  // the lock frees them here, not inside ingest_mu_ where appends wait.
  std::shared_ptr<const ServingState> retired;
  {
    MutexLock lock(ingest_mu_);
    live_.AdoptBase(merged, pinned.delta_size());
    base_state_ = std::move(rebuilt);
    retired = State();
    PublishLocked();
  }
  metrics_.compactions->Add(1);
  metrics_.compaction_nanos->AddSeconds(watch.Seconds());
  if (tracing) {
    registry_.trace().Record(obs::TraceSpan{
        /*query_id=*/0, obs::SpanKind::kCompaction, start,
        obs::NowNanos() - start,
        static_cast<int64_t>(pinned.delta_size())});
  }
  return true;
}

Status QueryService::SaveSnapshot(const std::string& path) const {
  const std::shared_ptr<const ServingState> state = State();
  const CorpusView& view = state->view;
  if (view.delta_size() == 0) return WriteSnapshot(view.base(), path);
  std::vector<TrajectoryView> journal;
  journal.reserve(static_cast<size_t>(view.delta_size()));
  for (int i = 0; i < view.delta_size(); ++i) {
    journal.push_back(view.delta()[i]);
  }
  return WriteLiveSnapshot(view.base(), journal, path);
}

int QueryService::shard_count() const {
  return static_cast<int>(State()->base->shards.size());
}

int QueryService::corpus_size() const { return State()->view.size(); }

CorpusView QueryService::View() const { return State()->view; }

TrajectoryRef QueryService::trajectory(int corpus_id) const {
  const std::shared_ptr<const ServingState> state = State();
  TRAJ_CHECK(corpus_id >= 0 && corpus_id < state->view.size());
  return state->view[corpus_id];
}

uint64_t QueryService::CacheKey(TrajectoryView query, int excluded_id,
                                uint64_t ingest_seq) const {
  uint64_t key = Fingerprint(query);
  key = CombineHash(key, options_fingerprint_);
  key = CombineHash(key,
                    static_cast<uint64_t>(static_cast<int64_t>(excluded_id)));
  // The generation's ingest stamp: any append changes it, so a cached hit
  // can never survive an append that could change the answer; compaction
  // keeps it (same content, new layout), so compaction costs no hit rate.
  key = CombineHash(key, ingest_seq);
  return key;
}

std::vector<EngineHit> QueryService::Submit(TrajectoryView query,
                                            int excluded_id) {
  return SubmitBatch({query}, {excluded_id})[0];
}

std::vector<std::vector<EngineHit>> QueryService::SubmitBatch(
    const std::vector<TrajectoryView>& queries,
    const std::vector<int>& excluded_ids) {
  TRAJ_CHECK(excluded_ids.empty() || excluded_ids.size() == queries.size());
  std::vector<std::vector<EngineHit>> results(queries.size());

  // All counters here are wait-free registry adds — SubmitBatch only takes
  // mu_ for the cache itself. Latency histograms and trace spans are
  // recorded only while the registry is enabled; with it off the only
  // instrumentation left on this path is a few counter adds per batch.
  const bool timed = registry_.enabled();
  const int64_t batch_start = timed ? obs::NowNanos() : 0;
  metrics_.batches->Add(1);
  if (!queries.empty()) metrics_.queries->Add(queries.size());
  // Per-query e2e latency: every query of the batch completes when the
  // batch does, so each records the batch's wall time.
  const auto record_latency = [&]() {
    if (!timed) return;
    const int64_t nanos = obs::NowNanos() - batch_start;
    metrics_.batch_seconds->RecordNanos(nanos);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      metrics_.query_seconds->RecordNanos(nanos);
    }
  };
  // Trace ids, assigned per query when tracing (0 = untraced).
  std::vector<uint64_t> qids(timed ? queries.size() : 0);
  if (timed) {
    for (uint64_t& qid : qids) qid = registry_.NextQueryId();
  }

  // Pin one generation for the whole batch: every (query, shard) and
  // (query, delta) task below reads this immutable state, so a batch sees a
  // single consistent corpus no matter how many appends or compaction swaps
  // are published while it runs (the pin also keeps the generation's
  // storage alive until the last task finishes).
  const std::shared_ptr<const ServingState> state = State();
  const std::vector<Shard>& shards = state->base->shards;
  const int n = static_cast<int>(shards.size());
  const int base_size = state->view.base_size();
  const bool has_delta = state->view.delta_size() > 0;
  // Parts per query: one per base shard, plus the delta stage when the
  // generation carries appended trajectories.
  const int parts = n + (has_delta ? 1 : 0);

  // Cache pass: satisfy hits, collect misses. Keys hash every query point,
  // so they are computed outside the lock (and not at all when caching is
  // off); only the lookup itself serializes. Duplicate keys *within* the
  // batch are coalesced: the first instance searches, the rest copy its
  // result and count as cache hits — without this, N identical queries in
  // one batch all missed together and fanned out N times.
  const bool caching = options_.cache_capacity != 0;
  std::vector<size_t> misses;
  std::vector<std::pair<size_t, size_t>> copies;  // (duplicate qi, source qi)
  std::vector<uint64_t> keys(caching ? queries.size() : 0);
  const int64_t key_start = timed ? obs::NowNanos() : 0;
  if (caching) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const int excluded = excluded_ids.empty() ? -1 : excluded_ids[qi];
      keys[qi] = CacheKey(queries[qi], excluded, state->view.ingest_seq());
    }
  }
  uint64_t hit_count = 0;
  uint64_t miss_count = 0;
  {
    std::unordered_map<uint64_t, size_t> in_batch;  // key -> first miss qi
    MutexLock lock(mu_);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (!caching) {
        misses.push_back(qi);
        continue;
      }
      const int64_t get_start = timed ? obs::NowNanos() : 0;
      const bool hit = cache_.Get(keys[qi], &results[qi]);
      if (timed) {
        const int64_t get_nanos = obs::NowNanos() - get_start;
        metrics_.stage_cache_lookup->RecordNanos(get_nanos);
        registry_.trace().Record(obs::TraceSpan{
            qids[qi], obs::SpanKind::kCacheLookup, get_start, get_nanos,
            hit ? 1 : 0});
      }
      if (hit) {
        ++hit_count;
        continue;
      }
      const auto [it, inserted] = in_batch.emplace(keys[qi], qi);
      if (inserted) {
        ++miss_count;
        misses.push_back(qi);
      } else {
        ++hit_count;
        copies.emplace_back(qi, it->second);
      }
    }
  }
  if (hit_count != 0) metrics_.cache_hits->Add(hit_count);
  if (miss_count != 0) metrics_.cache_misses->Add(miss_count);
  if (timed && caching) {
    // Whole lookup pass — key fingerprints plus the locked Get loop — so
    // cache_lookup + engine stages + merge account for ~all of the batch's
    // wall time (key hashing is the part the per-Get spans above miss).
    metrics_.cache_lookup_nanos->Add(static_cast<uint64_t>(
        std::max<int64_t>(0, obs::NowNanos() - key_start)));
  }
  if (misses.empty()) {
    record_latency();
    return results;
  }

  // Fan every missed query out across every base shard — plus the delta
  // stage when this generation has one — in one go, so the pool sees the
  // whole batch at once and dispatch overhead is paid per batch. Shard
  // engines pool their query plans internally, so a worker that hits the
  // same shard for the next batched query rebinds an already-warm plan
  // instead of rebuilding query state from scratch.
  //
  // All parts of one query share one SharedTopK (hits offered with corpus
  // ids: base ids through the shard offsets, delta ids at base_size +
  // delta id), so every part's bound filter and early abandoning prune
  // against the corpus-wide K-th best as it tightens.
  std::vector<std::unique_ptr<SharedTopK>> topks(misses.size());
  for (std::unique_ptr<SharedTopK>& topk : topks) {
    topk = std::make_unique<SharedTopK>(options_.engine.top_k);
  }
  std::vector<QueryStats> part_stats(misses.size() *
                                     static_cast<size_t>(parts));
  TaskGroup group;
  for (size_t mi = 0; mi < misses.size(); ++mi) {
    const size_t qi = misses[mi];
    const TrajectoryView query = queries[qi];
    const int excluded = excluded_ids.empty() ? -1 : excluded_ids[qi];
    SharedTopK* const topk = topks[mi].get();
    for (int s = 0; s < n; ++s) {
      const size_t part = mi * static_cast<size_t>(parts) +
                          static_cast<size_t>(s);
      pool_->Submit(&group, [state, s, query, excluded, topk,
                             stats = &part_stats[part]]() {
        const Shard& shard = state->base->shards[static_cast<size_t>(s)];
        const int begin = shard.view.begin_id();
        int local_excluded = -1;
        if (excluded >= begin && excluded < begin + shard.view.size()) {
          local_excluded = excluded - begin;
        }
        shard.engine->QueryInto(query, topk, begin, stats, local_excluded);
      });
    }
    if (has_delta) {
      const size_t part = mi * static_cast<size_t>(parts) +
                          static_cast<size_t>(n);
      pool_->Submit(&group, [this, state, query, excluded, topk, base_size,
                             stats = &part_stats[part]]() {
        const int local_excluded =
            excluded >= base_size ? excluded - base_size : -1;
        delta_engine_->QueryInto(query, state->view.delta(),
                                 state->base->delta_grid.get(), topk,
                                 base_size, stats, local_excluded);
      });
    }
  }
  group.Wait();

  // Fold the per-task timing splits into the service counters — wait-free
  // adds, so a concurrent Stats() reader never waits on this batch.
  {
    double prune = 0, bound = 0, pair = 0;
    for (const QueryStats& qs : part_stats) {
      prune += qs.prune_seconds;
      bound += qs.bound_seconds;
      pair += qs.pair_search_seconds;
    }
    metrics_.prune_nanos->AddSeconds(prune);
    metrics_.bound_nanos->AddSeconds(bound);
    metrics_.pair_search_nanos->AddSeconds(pair);
  }

  // Per-query stage histograms + trace spans, aggregated across the query's
  // parts (shards + delta). Engine stages ran concurrently, so each span's
  // start is the fan-out start and its duration is the stage's CPU seconds.
  if (timed) {
    for (size_t mi = 0; mi < misses.size(); ++mi) {
      const uint64_t qid = qids[misses[mi]];
      double gbp = 0, bound = 0, dp = 0;
      int64_t cands = 0, pruned = 0, searched = 0;
      for (int p = 0; p < parts; ++p) {
        const QueryStats& qs =
            part_stats[mi * static_cast<size_t>(parts) +
                       static_cast<size_t>(p)];
        gbp += qs.gbp_seconds;
        bound += qs.bound_seconds;
        dp += qs.pair_search_seconds;
        cands += qs.candidates_after_gbp;
        pruned += qs.pruned_by_bound;
        searched += qs.searched;
      }
      metrics_.stage_candidates->Record(gbp);
      metrics_.stage_bound->Record(bound);
      metrics_.stage_dp->Record(dp);
      obs::TraceRing& trace = registry_.trace();
      trace.Record(obs::TraceSpan{qid, obs::SpanKind::kCandidates,
                                  batch_start,
                                  static_cast<int64_t>(gbp * 1e9), cands});
      trace.Record(obs::TraceSpan{qid, obs::SpanKind::kBoundFilter,
                                  batch_start,
                                  static_cast<int64_t>(bound * 1e9), pruned});
      trace.Record(obs::TraceSpan{qid, obs::SpanKind::kDpSearch, batch_start,
                                  static_cast<int64_t>(dp * 1e9), searched});
    }
  }

  for (size_t mi = 0; mi < misses.size(); ++mi) {
    const size_t qi = misses[mi];
    const int64_t merge_start = timed ? obs::NowNanos() : 0;
    results[qi] = topks[mi]->Sorted();
    if (timed) {
      const int64_t merge_nanos = obs::NowNanos() - merge_start;
      metrics_.merge_nanos->Add(
          static_cast<uint64_t>(std::max<int64_t>(0, merge_nanos)));
      metrics_.stage_merge->RecordNanos(merge_nanos);
      registry_.trace().Record(obs::TraceSpan{
          qids[qi], obs::SpanKind::kMerge, merge_start, merge_nanos,
          static_cast<int64_t>(results[qi].size())});
    }
  }
  for (const auto& [dup_qi, source_qi] : copies) {
    results[dup_qi] = results[source_qi];
  }

  if (caching) {
    uint64_t evictions = 0;
    {
      MutexLock lock(mu_);
      for (const size_t qi : misses) {
        if (cache_.Put(keys[qi], results[qi])) ++evictions;
      }
    }
    if (evictions != 0) metrics_.cache_evictions->Add(evictions);
  }
  record_latency();
  return results;
}

ServiceStats QueryService::Stats() const {
  // A view over the registry's sharded counters: relaxed loads only, no
  // locks — Stats() can never block (or be blocked by) a SubmitBatch.
  ServiceStats stats;
  stats.queries = metrics_.queries->Value();
  stats.batches = metrics_.batches->Value();
  stats.cache_hits = metrics_.cache_hits->Value();
  stats.cache_misses = metrics_.cache_misses->Value();
  stats.cache_evictions = metrics_.cache_evictions->Value();
  stats.appends = metrics_.appends->Value();
  stats.append_batches = metrics_.append_batches->Value();
  stats.appended_points = metrics_.appended_points->Value();
  stats.compactions = metrics_.compactions->Value();
  stats.compaction_seconds = metrics_.compaction_nanos->Seconds();
  stats.prune_seconds = metrics_.prune_nanos->Seconds();
  stats.bound_seconds = metrics_.bound_nanos->Seconds();
  stats.pair_search_seconds = metrics_.pair_search_nanos->Seconds();
  stats.cache_lookup_seconds = metrics_.cache_lookup_nanos->Seconds();
  stats.merge_seconds = metrics_.merge_nanos->Seconds();
  return stats;
}

CorpusShape QueryService::Shape() const {
  const std::shared_ptr<const ServingState> state = State();
  CorpusShape shape;
  shape.generation = state->view.generation();
  shape.ingest_seq = state->view.ingest_seq();
  shape.base_generation = state->view.base_generation();
  shape.base_trajectories = state->view.base_size();
  shape.delta_trajectories = state->view.delta_size();
  shape.delta_points = state->view.delta().point_count();
  return shape;
}

void QueryService::ClearCache() {
  MutexLock lock(mu_);
  cache_.Clear();
}

}  // namespace trajsearch
