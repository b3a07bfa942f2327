#include "workload.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/live_dataset.h"
#include "gen/taxi.h"
#include "gen/workload.h"
#include "io/snapshot_v4.h"
#include "obs/registry.h"
#include "replay.h"
#include "service/query_service.h"
#include "trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace trajsearch;

namespace {

// Engine and service settings shared by every workload.
constexpr int kTopK = 10;
constexpr double kMu = 0.1;
constexpr int kPoolThreads = 2;
constexpr int kSetupCycles = 11;
constexpr int kQueryPool = 4096;
/// Warm-up queries come from their own pool, so the timed stream starts
/// with none of its queries cached.
constexpr int kWarmupQueries = 256;
constexpr double kWarmupSeconds = 1.5;
/// Recent queries a repeat is drawn from; well inside the 256-entry cache.
constexpr size_t kRecentWindow = 64;
/// porto-live appends this many trajectories before each query; a cycle of
/// kCycleIterations fills the delta to the default compaction threshold.
/// With 16 per query, the background compaction (~0.7 s) overlapped about
/// half of a cycle's 64 queries, so the median call sat between the slow
/// and the fast latency mode and moved 15-20% between runs; with 8, about
/// a third of a cycle's 128 queries overlap it.
constexpr int kAppendBatch = 8;
constexpr int kCompactThreshold = 1024;
constexpr int kCycleIterations = kCompactThreshold / kAppendBatch;
/// An ingest round on a read-only workload makes at most this many
/// AppendBatch calls — one short of a compaction cycle, so none runs.
constexpr int kIngestRoundCalls = kCycleIterations - 1;
/// Read-only workloads run one ingest block after every read slice: a few
/// untimed rounds, then timed ones, on one of kIngestChunks append streams
/// in turn. Spreading the rounds over the whole phase keeps a burst of
/// neighbour load from moving all of them at once.
constexpr int kIngestChunks = 4;
constexpr int kIngestBlockWarmupRounds = 2;
constexpr int kIngestBlockRounds = 10;
constexpr double kSliceSeconds = 1.0;
/// porto-live runs one compaction cycle per this many requested seconds
/// (a cycle took 1.55-1.85 s on the 4-vCPU machine the bounds were set on),
/// so 30 s give 18 cycles and 2,304 timed queries.
constexpr double kCycleSeconds = 1.7;

struct Spec {
  std::string name;
  bool xian = false;        // Xi'an-like corpus (else Porto-like)
  int corpus = 0;           // trajectories
  bool compressed = false;  // v4 compressed tier with residuals
  int shards = 1;
  int threads = 1;          // engine threads per shard
  bool erp = false;         // ERP with the gap at the corpus centre (else DTW)
  bool kpf = false;         // KPF at sample rate 1.0 (a sound bound)
  size_t cache = 0;
  int query_min = 0;
  int query_max = 0;
  double repeat = 0;        // share of queries repeating a recent one
  int batch = 1;            // queries per SubmitBatch; 1 uses Submit
  bool live = false;        // AppendBatch before every query
  /// AppendBatch calls per ingest round on a read-only workload. A round
  /// holds 50-70k points (about 3 MiB copied), so it times the append path
  /// rather than the shared host's memory bandwidth: Xi'an rounds of 1,008
  /// trajectories (400k points) moved 2x between blocks of one run and 15%
  /// between runs of the same seed.
  int ingest_calls = kIngestRoundCalls;
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {.name = "porto-interactive", .corpus = 50000, .threads = 2,
       .kpf = true, .cache = 256, .query_min = 30, .query_max = 50,
       .repeat = 0.2},
      {.name = "xian-batch", .xian = true, .corpus = 8000,
       .compressed = true, .shards = 2, .erp = true, .query_min = 100,
       .query_max = 120, .batch = 16, .ingest_calls = 16},
      {.name = "porto-live", .corpus = 50000, .threads = 2, .kpf = true,
       .cache = 256, .query_min = 30, .query_max = 50, .repeat = 0.2,
       .live = true},
  };
  return specs;
}

/// Independent deterministic streams derived from the run's seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL)).Next();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Peak resident set (VmHWM) of this process in MiB, or 0 if unreadable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Resets VmHWM to the current resident set, so a later PeakRssMb() covers
/// only what runs after this call.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

bool SameHits(const std::vector<EngineHit>& a, const std::vector<EngineHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trajectory_id != b[i].trajectory_id ||
        a[i].result.distance != b[i].result.distance) {
      return false;
    }
  }
  return true;
}

/// One query result kept for a later check.
struct Sample {
  int query = 0;
  int excluded = -1;
  /// Corpus size when the query ran. Appends only ever add ids, so the
  /// corpus the query saw is this prefix of the final corpus.
  int corpus_size = 0;
  std::vector<EngineHit> hits;
  /// Pinned generation, kept for the layer-by-layer replay only.
  CorpusView view;
};

/// What one slice of a timed phase measured.
struct Slice {
  std::vector<double> latency_s;  // one per Submit / SubmitBatch call
  double wall_s = 0;
  uint64_t queries = 0;
  uint64_t appended = 0;
  double append_s = 0;
  /// VmHWM at the end of the slice, reset at its start.
  double peak_rss_mb = 0;
};

/// A timed phase, cut into slices of about kSliceSeconds of wall time so
/// rates and medians can be reported as the median over slices, which a
/// burst of interference from outside the process moves less than a total.
struct Phase {
  std::vector<Slice> slices;
  double wall_s = 0;
  /// Read-only untraced runs: AppendBatch rate (trajectories/s) of every
  /// timed ingest round.
  std::vector<double> ingest_rates;
  Slice& Current() { return slices.back(); }
  template <typename F>
  std::vector<double> PerSlice(F f) const {
    std::vector<double> values;
    for (const Slice& slice : slices) values.push_back(f(slice));
    return values;
  }
  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const Slice& slice : slices) {
      all.insert(all.end(), slice.latency_s.begin(), slice.latency_s.end());
    }
    return all;
  }
  uint64_t Queries() const {
    uint64_t total = 0;
    for (const Slice& slice : slices) total += slice.queries;
    return total;
  }
};

class Bench {
 public:
  Bench(const Spec& spec, const RunOptions& options, Report* report)
      : spec_(spec), options_(options), report_(report) {}

  bool Run();

 private:
  bool Prepare();
  bool SetUp();
  ServiceOptions MakeServiceOptions() const;
  void WarmUp();
  void RunPhase(double seconds, Tracer* tracer, Phase* phase);
  /// Read-only workloads: one ingest block, whose rounds each append into a
  /// fresh, empty service with the workload's options; adds the timed
  /// rounds' rates (trajectories/s) to `rates`.
  void MeasureIngest(std::vector<double>* rates);
  void RunQueries(Tracer* tracer, Phase* phase);
  void RunLiveCycle(Tracer* tracer, Phase* phase);
  /// Submits the next query (or batch); records latency and samples.
  void SubmitNext(Tracer* tracer, Phase* phase, bool sample_oracle,
                  bool sample_replay);
  Dataset AppendChunk(int count);
  void Append(QueryService* service, const Dataset& chunk, int first,
              Tracer* tracer, Slice* slice);
  void WaitForCompactions();
  /// Checks every oracle sample against a SearchEngine over the flattened
  /// corpus; returns LiveDataset::Merge seconds.
  double CheckOracle();
  void Replay(Tracer* tracer, double* grid_build_s, ReplayCounts* counts);
  void Fail(const std::string& problem) {
    ++report_->failed;
    report_->problems.push_back(problem);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool table_only = false) {
    report_->metrics.push_back(Metric{name, value, unit, note, table_only});
  }

  const Spec& spec_;
  const RunOptions& options_;
  Report* report_;

  std::string path_;
  double bytes_per_point_ = 0;
  Point gap_{};
  std::vector<Trajectory> queries_;
  std::vector<int> sources_;
  std::vector<Trajectory> warm_queries_;
  std::vector<int> warm_sources_;
  std::vector<Dataset> ingest_chunks_;
  size_t ingest_blocks_ = 0;

  std::optional<MmapSnapshot> snapshot_;
  std::unique_ptr<QueryService> service_;
  std::vector<double> setup_s_;
  std::vector<double> open_s_;

  Rng stream_{1};
  std::vector<int> recent_;
  size_t next_recent_ = 0;
  size_t next_fresh_ = 0;
  uint64_t append_chunks_ = 0;
  int64_t ops_ = 0;
  int64_t iteration_ = 0;
  int64_t replay_until_iteration_ = -1;
  std::vector<Sample> oracle_;
  std::vector<Sample> replay_;
};

bool Bench::Prepare() {
  TaxiProfile profile =
      spec_.xian ? XianProfile(spec_.corpus) : PortoProfile(spec_.corpus);
  profile.seed = StreamSeed(options_.seed, 1);
  Dataset corpus = GenerateTaxiDataset(profile);
  gap_ = corpus.Bounds().Center();

  WorkloadOptions sampling;
  sampling.min_length = spec_.query_min;
  sampling.max_length = spec_.query_max;
  sampling.count = kQueryPool;
  sampling.seed = StreamSeed(options_.seed, 2);
  Workload pool = SampleQueries(corpus, sampling);
  queries_ = std::move(pool.queries);
  sources_ = std::move(pool.source_ids);
  sampling.count = kWarmupQueries;
  sampling.seed = StreamSeed(options_.seed, 3);
  Workload warm = SampleQueries(corpus, sampling);
  warm_queries_ = std::move(warm.queries);
  warm_sources_ = std::move(warm.source_ids);
  stream_ = Rng(StreamSeed(options_.seed, 4));
  if (!spec_.live && !options_.trace) {
    for (int c = 0; c < kIngestChunks; ++c) {
      ingest_chunks_.push_back(AppendChunk(spec_.ingest_calls * kAppendBatch));
    }
  }

  path_ = options_.workdir + "/" + spec_.name + "-" +
          std::to_string(options_.seed) + ".v4";
  V4WriteOptions write;
  write.compress = spec_.compressed;
  write.codec.store_residuals = true;
  // Two shards build their own grids, so the compressed file carries none.
  write.include_grid = !spec_.compressed;
  const Status written = WriteSnapshotV4(corpus, path_, write);
  ++report_->attempted;
  if (!written.ok()) {
    Fail("snapshot write: " + written.ToString());
    return false;
  }
  std::ifstream file(path_, std::ios::binary | std::ios::ate);
  bytes_per_point_ = static_cast<double>(file.tellg()) /
                     static_cast<double>(corpus.point_count());

  // Measure the serving process, not the generator: free the corpus and
  // reset the peak before the first open.
  corpus = Dataset();
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb "
                         "includes input generation\n");
  }
  return true;
}

ServiceOptions Bench::MakeServiceOptions() const {
  ServiceOptions options;
  options.engine.spec = spec_.erp ? DistanceSpec::Erp(gap_) : DistanceSpec::Dtw();
  options.engine.algorithm = Algorithm::kCma;
  options.engine.top_k = kTopK;
  options.engine.use_gbp = true;
  options.engine.mu = kMu;
  options.engine.use_kpf = spec_.kpf;
  options.engine.sample_rate = 1.0;
  options.engine.threads = spec_.threads;
  options.engine.prebuilt_grid = snapshot_->grid();
  options.shards = spec_.shards;
  options.worker_threads = kPoolThreads;
  options.cache_capacity = spec_.cache;
  options.compact_delta_trajectories = kCompactThreshold;
  return options;
}

bool Bench::SetUp() {
  // Repeated open -> ready cycles; the median is setup_s. The last cycle's
  // service is the one the workload runs against.
  for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
    service_.reset();
    snapshot_.reset();
    Stopwatch total;
    Stopwatch open;
    Result<MmapSnapshot> opened = MmapSnapshot::Open(path_);
    open_s_.push_back(open.Seconds());
    ++report_->attempted;
    if (!opened.ok()) {
      Fail("snapshot open: " + opened.status().ToString());
      return false;
    }
    snapshot_.emplace(opened.MoveValue());
    service_ = std::make_unique<QueryService>(snapshot_->dataset(),
                                              MakeServiceOptions());
    setup_s_.push_back(total.Seconds());
  }
  return true;
}

void Bench::WarmUp() {
  // Plan pools, scheduler threads and the mapped pages warm up here. The
  // first second of queries ran about a third slower than the rest when
  // only a few dozen warm-up queries preceded it, so the warm-up is timed.
  const size_t batch = static_cast<size_t>(spec_.batch);
  Stopwatch watch;
  for (size_t i = 0; watch.Seconds() < kWarmupSeconds; i += batch) {
    std::vector<TrajectoryView> queries;
    std::vector<int> excluded;
    for (size_t j = i; j < i + batch; ++j) {
      queries.push_back(warm_queries_[j % warm_queries_.size()]);
      excluded.push_back(warm_sources_[j % warm_sources_.size()]);
    }
    service_->SubmitBatch(queries, excluded);
  }
  if (spec_.live) {
    // One whole untimed cycle. Its last append starts a compaction that
    // runs into the first timed cycle, as every later cycle's does.
    Phase warm;
    warm.slices.emplace_back();
    RunLiveCycle(nullptr, &warm);
  }
  // The timed stream starts with an empty cache.
  service_->ClearCache();
}

void Bench::SubmitNext(Tracer* tracer, Phase* phase, bool sample_oracle,
                       bool sample_replay) {
  std::vector<int> picks;
  for (int i = 0; i < spec_.batch; ++i) {
    int pick = 0;
    if (!recent_.empty() && stream_.Chance(spec_.repeat)) {
      pick = recent_[static_cast<size_t>(stream_.UniformInt(
          0, static_cast<int64_t>(recent_.size()) - 1))];
    } else {
      pick = static_cast<int>(next_fresh_++ % queries_.size());
    }
    if (recent_.size() < kRecentWindow) {
      recent_.push_back(pick);
    } else {
      recent_[next_recent_++ % kRecentWindow] = pick;
    }
    picks.push_back(pick);
  }
  std::vector<TrajectoryView> batch;
  std::vector<int> excluded;
  for (const int pick : picks) {
    batch.push_back(queries_[static_cast<size_t>(pick)]);
    excluded.push_back(sources_[static_cast<size_t>(pick)]);
  }

  const int64_t op = ops_++;
  std::vector<std::vector<EngineHit>> hits;
  Stopwatch watch;
  {
    ScopedSpan span(tracer, op, Layer::kOperation);
    if (spec_.batch == 1) {
      hits.push_back(service_->Submit(batch[0], excluded[0]));
    } else {
      hits = service_->SubmitBatch(batch, excluded);
    }
  }
  phase->Current().latency_s.push_back(watch.Seconds());
  phase->Current().queries += batch.size();
  report_->attempted += 1;
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].size() != static_cast<size_t>(kTopK)) {
      Fail("query returned " + std::to_string(hits[i].size()) + " hits");
    }
  }

  if (!sample_oracle && !sample_replay) return;
  const int corpus_size = service_->corpus_size();
  for (size_t i = 0; i < picks.size(); ++i) {
    Sample sample{picks[i], excluded[i], corpus_size, hits[i], CorpusView()};
    if (sample_oracle) oracle_.push_back(sample);
    if (sample_replay) {
      sample.view = service_->View();
      replay_.push_back(std::move(sample));
    }
  }
}

void Bench::RunQueries(Tracer* tracer, Phase* phase) {
  // Oracle: every 16th call, up to 64 queries. Replay: every 8th traced
  // call, up to 48 queries.
  const int64_t op = ops_;
  const bool oracle = op % 16 == 5 && oracle_.size() < 64;
  const bool replay = tracer != nullptr && op % 8 == 3 && replay_.size() < 48;
  Stopwatch watch;
  SubmitNext(tracer, phase, oracle, replay);
  phase->Current().wall_s += watch.Seconds();
}

Dataset Bench::AppendChunk(int count) {
  TaxiProfile profile = spec_.xian ? XianProfile(count) : PortoProfile(count);
  profile.seed = StreamSeed(options_.seed, 1000 + append_chunks_++);
  return GenerateTaxiDataset(profile);
}

void Bench::Append(QueryService* service, const Dataset& chunk, int first,
                   Tracer* tracer, Slice* slice) {
  std::vector<TrajectoryView> batch;
  for (int i = first; i < first + kAppendBatch; ++i) batch.push_back(chunk[i]);
  Stopwatch watch;
  std::vector<int> ids;
  {
    ScopedSpan span(tracer, ops_++, Layer::kAppend);
    ids = service->AppendBatch(batch);
  }
  slice->append_s += watch.Seconds();
  ++report_->attempted;
  if (ids.size() != batch.size()) {
    Fail("AppendBatch accepted " + std::to_string(ids.size()) + " of " +
         std::to_string(batch.size()));
    return;
  }
  slice->appended += ids.size();
}

void Bench::RunLiveCycle(Tracer* tracer, Phase* phase) {
  // Input generation stays outside the timed wall.
  const Dataset chunk = AppendChunk(kCompactThreshold);
  if (tracer != nullptr && replay_until_iteration_ < 0) {
    replay_until_iteration_ = iteration_ + kCycleIterations;
  }
  Stopwatch watch;
  for (int i = 0; i < kCycleIterations; ++i, ++iteration_) {
    Append(service_.get(), chunk, i * kAppendBatch, tracer,
           &phase->Current());
    // Oracle: iteration 32 of every fifth cycle, up to four queries (each
    // needs its own reference engine). Replay: every fourth query of the
    // first traced cycle, whose generations share at most two bases.
    const bool oracle = iteration_ % (5 * kCycleIterations) == 32 &&
                        oracle_.size() < 4;
    const bool replay = iteration_ < replay_until_iteration_ &&
                        iteration_ % 4 == 2;
    SubmitNext(tracer, phase, oracle, replay);
  }
  phase->Current().wall_s += watch.Seconds();
}

void Bench::RunPhase(double seconds, Tracer* tracer, Phase* phase) {
  if (spec_.live) {
    // A fixed number of whole compaction cycles, one slice each, so every
    // run grows the corpus through the same compactions.
    const long cycles = std::max(1L, std::lround(seconds / kCycleSeconds));
    for (long c = 0; c < cycles; ++c) {
      phase->slices.emplace_back();
      ResetPeakRss();
      RunLiveCycle(tracer, phase);
      phase->Current().peak_rss_mb = PeakRssMb();
      phase->wall_s += phase->Current().wall_s;
    }
    return;
  }
  while (phase->wall_s < seconds) {
    phase->slices.emplace_back();
    Slice& slice = phase->Current();
    ResetPeakRss();
    while (slice.wall_s < kSliceSeconds &&
           phase->wall_s + slice.wall_s < seconds) {
      RunQueries(tracer, phase);
    }
    slice.peak_rss_mb = PeakRssMb();
    phase->wall_s += slice.wall_s;
    // Outside the slice's wall time and peak.
    if (!ingest_chunks_.empty()) MeasureIngest(&phase->ingest_rates);
  }
}

void Bench::MeasureIngest(std::vector<double>* rates) {
  // Every round starts from the same state and stops short of a compaction.
  ServiceOptions options = MakeServiceOptions();
  options.engine.cell_size = service_->options().engine.cell_size;
  options.engine.prebuilt_grid = nullptr;
  const Dataset& chunk =
      ingest_chunks_[ingest_blocks_++ % ingest_chunks_.size()];
  for (int round = 0; round < kIngestBlockWarmupRounds + kIngestBlockRounds;
       ++round) {
    QueryService ingest(Dataset(), options);
    Slice slice;
    for (int i = 0; i < spec_.ingest_calls; ++i) {
      Append(&ingest, chunk, i * kAppendBatch, nullptr, &slice);
    }
    if (round >= kIngestBlockWarmupRounds) {
      rates->push_back(
          Ratio(static_cast<double>(slice.appended), slice.append_s));
    }
  }
  // Hand the rounds' freed heap back, so peak_rss_mb of the next slice
  // covers the serving path and not ingest leftovers.
  malloc_trim(0);
}

void Bench::WaitForCompactions() {
  // The last cycle's append leaves a full delta behind; wait until its
  // background compaction has swapped and been counted.
  Stopwatch watch;
  while (watch.Seconds() < 60) {
    const CorpusShape shape = service_->Shape();
    if (shape.delta_trajectories < kCompactThreshold &&
        service_->Stats().compactions == shape.base_generation) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Fail("background compaction did not finish within 60 s");
}

double Bench::CheckOracle() {
  Stopwatch merge;
  const Dataset flat = LiveDataset::Merge(service_->View());
  const double merge_s = merge.Seconds();
  const EngineOptions engine = Detached(service_->options().engine);
  std::map<int, std::unique_ptr<SearchEngine>> engines;
  for (const Sample& sample : oracle_) {
    std::unique_ptr<SearchEngine>& reference = engines[sample.corpus_size];
    if (reference == nullptr) {
      reference = std::make_unique<SearchEngine>(
          DatasetView(flat, 0, sample.corpus_size), engine);
    }
    const std::vector<EngineHit> expected = reference->Query(
        queries_[static_cast<size_t>(sample.query)], nullptr, sample.excluded);
    ++report_->attempted;
    if (!SameHits(expected, sample.hits)) {
      Fail("service result differs from the flattened-corpus engine (query " +
           std::to_string(sample.query) + ")");
    }
  }
  return merge_s;
}

void Bench::Replay(Tracer* tracer, double* grid_build_s, ReplayCounts* counts) {
  Replayer replayer(service_->options().engine);
  const double cell = service_->options().engine.cell_size;
  // Grids per pinned base, built from outside (GridIndex per shard view)
  // unless the snapshot's prebuilt grid covers the base, as the service
  // itself adopts it.
  std::map<const Dataset*, std::vector<std::unique_ptr<GridIndex>>> grids;
  std::map<const Dataset*, std::vector<ReplayShard>> shards;
  *grid_build_s = 0;
  for (const Sample& sample : replay_) {
    const Dataset& base = sample.view.base();
    if (shards.count(&base) == 0) {
      const int size = base.size();
      const int count = std::clamp(spec_.shards, 1, std::max(size, 1));
      std::vector<ReplayShard>& parts = shards[&base];
      int begin = 0;
      for (int s = 0; s < count; ++s) {
        const int length = size / count + (s < size % count ? 1 : 0);
        ReplayShard part{DatasetView(base, begin, length), nullptr};
        begin += length;
        const GridIndex* prebuilt = snapshot_->grid();
        if (count == 1 && prebuilt != nullptr &&
            sample.view.base_generation() == 0) {
          part.grid = prebuilt;
        } else {
          Stopwatch build;
          ScopedSpan span(tracer, -1, Layer::kGridBuild);
          grids[&base].push_back(std::make_unique<GridIndex>(part.view, cell));
          part.grid = grids[&base].back().get();
          if (sample.view.base_generation() == 0) *grid_build_s += build.Seconds();
        }
        parts.push_back(part);
      }
    }
    const std::vector<EngineHit> hits = replayer.Run(
        queries_[static_cast<size_t>(sample.query)], sample.excluded,
        shards[&base], &sample.view.delta(), tracer, ops_++, counts);
    ++report_->attempted;
    if (!SameHits(hits, sample.hits)) {
      Fail("layer-by-layer replay differs from the service (query " +
           std::to_string(sample.query) + ")");
    }
  }
}

/// Registry counter difference between two snapshots.
double Delta(const obs::RegistrySnapshot& before,
             const obs::RegistrySnapshot& after, const std::string& name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

bool Bench::Run() {
  if (!Prepare()) return false;
  // The mapping outlives the unlinked file, so the snapshot is removed as
  // soon as set-up is done.
  const bool ready = SetUp();
  std::remove(path_.c_str());
  if (!ready) return false;
  WarmUp();

  if (!options_.trace) {
    Phase phase;
    RunPhase(options_.seconds, nullptr, &phase);
    if (spec_.live) WaitForCompactions();
    const std::vector<double> append_rates =
        spec_.live ? phase.PerSlice([](const Slice& slice) {
          return Ratio(static_cast<double>(slice.appended), slice.append_s);
        })
                   : phase.ingest_rates;
    CheckOracle();

    const std::string calls = std::to_string(phase.Latencies().size());
    const std::string per_call =
        spec_.batch == 1 ? "per Submit" : "per SubmitBatch of " +
                                              std::to_string(spec_.batch);
    const std::string slices =
        "median of " + std::to_string(phase.slices.size()) + " slices";
    Add("latency_p50_ms",
        Percentile(phase.PerSlice([](const Slice& slice) {
          return Percentile(slice.latency_s, 50);
        }), 50) * 1e3,
        "ms", per_call + ", " + slices + ", n=" + calls);
    // Tail latency is printed but left out of the JSON result: neighbour
    // load on the shared machine moved it by up to 60% between runs of the
    // same code, more than the widest regression bound, 25%.
    Add("latency_p90_ms",
        Percentile(phase.PerSlice([](const Slice& slice) {
          return Percentile(slice.latency_s, 90);
        }), 50) * 1e3,
        "ms", per_call + ", " + slices + " (not in the JSON result)",
        /*table_only=*/true);
    Add("queries_per_s",
        Percentile(phase.PerSlice([](const Slice& slice) {
          return Ratio(static_cast<double>(slice.queries), slice.wall_s);
        }), 50),
        "1/s", slices + ", " + std::to_string(phase.Queries()) + " queries");
    Add("appends_per_s", Percentile(append_rates, 50), "1/s",
        spec_.live ? slices + " of the stream beside reads"
                   : "median of " + std::to_string(append_rates.size()) +
                         " ingest rounds between read slices");
    Add("setup_s", Percentile(setup_s_, 50), "s",
        "median of " + std::to_string(setup_s_.size()) + " open->ready");
    Add("peak_rss_mb",
        Percentile(phase.PerSlice([](const Slice& slice) {
          return slice.peak_rss_mb;
        }), 50),
        "MiB", slices + " of VmHWM");
    Add("snapshot_bytes_per_point", bytes_per_point_, "B",
        spec_.compressed ? "v4 compressed tier with residuals"
                         : "v4 pooled tier with grid");
    return true;
  }

  // Traced run: an untraced half, then a traced half whose registry deltas
  // and replayed queries give the per-layer numbers.
  Phase untraced;
  RunPhase(options_.seconds / 2, nullptr, &untraced);
  Tracer tracer;
  Phase traced;
  const obs::RegistrySnapshot before = service_->metrics().Snapshot();
  RunPhase(options_.seconds / 2, &tracer, &traced);
  if (spec_.live) WaitForCompactions();
  const obs::RegistrySnapshot after = service_->metrics().Snapshot();
  const double resident_mb =
      static_cast<double>(snapshot_->ResidentBytes()) / (1024.0 * 1024.0);

  const std::string funnel = "engine.CMA.funnel.";
  const uint64_t candidates = after.counter(funnel + "candidates");
  if (candidates != after.counter(funnel + "skipped") +
                        after.counter(funnel + "bound_pruned") +
                        after.counter(funnel + "dp_runs")) {
    Fail("funnel does not telescope: candidates != skipped + bound_pruned + "
         "dp_runs");
  }
  ++report_->attempted;

  double grid_build_s = 0;
  ReplayCounts counts;
  Replay(&tracer, &grid_build_s, &counts);
  const double merge_s = CheckOracle();

  const auto self = tracer.SelfSeconds(Layer::kReplay);
  auto layer = [&self](Layer l) { return self[static_cast<size_t>(l)]; };
  int replayed = 0;
  const double replay_wall = tracer.RootSeconds(Layer::kReplay, &replayed);
  const double n = std::max(replayed, 1);
  const double covered = layer(Layer::kGbp) + layer(Layer::kKpf) +
                         layer(Layer::kDp) + layer(Layer::kDeltaGridBuild) +
                         layer(Layer::kDeltaQuery);

  const double queries = Delta(before, after, "service.queries");
  const double hits = Delta(before, after, "service.cache.hits");
  const double misses = Delta(before, after, "service.cache.misses");
  const double searched = queries - hits;
  const double vector_cells =
      Delta(before, after, "engine.CMA.simd.vector_cells");
  const double cells =
      vector_cells + Delta(before, after, "engine.CMA.simd.scalar_cells");
  const double compactions = Delta(before, after, "service.compactions");
  obs::HistogramSnapshot wait;
  if (const auto* w = after.histogram("scheduler.task_wait_seconds")) wait = *w;
  if (const auto* w = before.histogram("scheduler.task_wait_seconds")) {
    wait.count -= w->count;
    wait.sum -= w->sum;
    for (size_t b = 0; b < wait.buckets.size(); ++b) wait.buckets[b] -= w->buckets[b];
  }

  double traced_append_s = 0;
  uint64_t traced_appended = 0;
  for (const Slice& slice : traced.slices) {
    traced_append_s += slice.append_s;
    traced_appended += slice.appended;
  }
  const std::string per_replay = "per replayed query, n=" + std::to_string(replayed);
  Add("io.open_ms", Percentile(open_s_, 50) * 1e3, "ms",
      "median MmapSnapshot::Open");
  Add("io.resident_mb", resident_mb, "MiB", "ResidentBytes after the timed phase");
  Add("prune.grid_build_ms", grid_build_s * 1e3, "ms",
      "GridIndex builds of the initial base (0: prebuilt grid adopted)");
  Add("prune.gbp_us", layer(Layer::kGbp) / n * 1e6, "us", per_replay);
  Add("prune.candidates_per_query", static_cast<double>(counts.candidates) / n,
      "count", per_replay);
  Add("prune.kpf_us", layer(Layer::kKpf) / n * 1e6, "us", per_replay);
  Add("prune.bound_pruned_ratio",
      Ratio(Delta(before, after, funnel + "bound_pruned"),
            Delta(before, after, funnel + "candidates")),
      "ratio", "registry funnel");
  Add("prune.delta_grid_build_ms", layer(Layer::kDeltaGridBuild) / n * 1e3,
      "ms", per_replay);
  Add("search.dp_us", layer(Layer::kDp) / n * 1e6, "us", per_replay);
  Add("search.dp_runs_per_query",
      Ratio(Delta(before, after, funnel + "dp_runs"), searched), "count",
      "registry funnel per searched query");
  Add("search.dp_abandoned_ratio",
      Ratio(Delta(before, after, funnel + "dp_abandoned"),
            Delta(before, after, funnel + "dp_runs")),
      "ratio", "registry funnel");
  Add("search.delta_query_us", layer(Layer::kDeltaQuery) / n * 1e6, "us",
      per_replay);
  Add("distance.cells_per_query", Ratio(cells, searched), "count",
      "registry cell counters per searched query");
  Add("distance.cells_per_s",
      Ratio(static_cast<double>(counts.cells), layer(Layer::kDp)), "1/s",
      "replay cells / search.dp self time");
  Add("distance.vector_cell_ratio", Ratio(vector_cells, cells), "ratio",
      "registry cell counters");
  Add("service.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
      "registry");
  Add("service.cache_lookup_us",
      Ratio(Delta(before, after, "service.cache_lookup_seconds_total") * 1e-3,
            queries),
      "us", "registry, per query");
  Add("service.merge_us",
      Ratio(Delta(before, after, "service.merge_seconds_total") * 1e-3, queries),
      "us", "registry, per query");
  Add("service.compactions", compactions, "count", "traced half");
  Add("service.compaction_s",
      Ratio(Delta(before, after, "service.compaction_seconds_total") * 1e-9,
            compactions),
      "s", "registry, per compaction");
  Add("scheduler.task_wait_us_p50", wait.Percentile(50) * 1e6, "us",
      "registry histogram, n=" + std::to_string(wait.count));
  Add("scheduler.task_wait_us_p99", wait.Percentile(99) * 1e6, "us",
      "registry histogram, n=" + std::to_string(wait.count));
  Add("core.append_us",
      Ratio(traced_append_s * 1e6, static_cast<double>(traced_appended)), "us",
      "AppendBatch wall per trajectory");
  Add("core.merge_ms", merge_s * 1e3, "ms",
      "LiveDataset::Merge of the served corpus");
  Add("trace.coverage_ratio", Ratio(covered, replay_wall), "ratio",
      "layer self time / replayed query wall");
  Add("trace.overhead_ratio",
      Ratio(Percentile(traced.Latencies(), 50),
            Percentile(untraced.Latencies(), 50)),
      "ratio", "traced / untraced latency p50");
  return true;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& spec : Specs()) names.push_back(spec.name);
  return names;
}

bool RunWorkload(const RunOptions& options, Report* report) {
  for (const Spec& spec : Specs()) {
    if (spec.name != options.workload) continue;
    Bench bench(spec, options, report);
    const bool ok = bench.Run();
    return ok;
  }
  report->problems.push_back("unknown workload: " + options.workload);
  return false;
}

}  // namespace perfbench
