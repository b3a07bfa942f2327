// Observability overhead gate: throughput of the sharded QueryService with
// the metrics registry enabled vs disabled, on one service so both sides run
// the same code, corpus and thread pool.
//
// Workload: 500-trajectory Porto corpus, 32 sampled queries of 30-50 points
// (source trajectories excluded), 4 shards, cache off, DTW with GBP and
// sound KPF (r = 1), top-10. Protocol: one warm-up batch, then 5 alternating
// (disabled, enabled) batch pairs; each side keeps its best batch time, so
// scheduler noise stays out of the comparison. Exits 1 if the enabled best
// is more than 2% slower than the disabled best.
//
// Flags: --scale (corpus multiplier), --queries, --seed (bench_common.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "service/query_service.h"

namespace trajsearch::bench {
namespace {

constexpr int kPasses = 5;
constexpr double kOverheadBudget = 0.02;

void Main(int argc, char** argv) {
  const BenchConfig config = ParseBenchConfig(argc, argv);
  PrintHeader("Observability overhead: metrics enabled vs disabled");

  const Dataset corpus =
      GenerateTaxiDataset(PortoProfile(static_cast<int>(500 * config.scale)));
  WorkloadOptions wopts;
  wopts.count = std::max(8, config.queries * 4);
  wopts.min_length = 30;
  wopts.max_length = 50;
  wopts.seed = config.seed;
  const Workload workload = SampleQueries(corpus, wopts);
  std::vector<TrajectoryView> queries;
  queries.reserve(workload.queries.size());
  for (const Trajectory& q : workload.queries) queries.push_back(q.View());

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.use_gbp = true;
  options.engine.mu = 0.1;
  options.engine.use_kpf = true;
  options.engine.sample_rate = 1.0;
  options.engine.top_k = 10;
  options.shards = 4;
  options.cache_capacity = 0;
  QueryService service(corpus, options);
  std::printf("corpus: %d trajectories, %zu queries, top-%d, DTW, "
              "GBP+KPF(r=1), %d shards, %u hardware threads\n",
              corpus.size(), queries.size(), options.engine.top_k,
              service.shard_count(), std::thread::hardware_concurrency());

  // The registry's kill switch flips between passes on one service.
  service.SubmitBatch(queries, workload.source_ids);  // warm-up
  double enabled_seconds = 1e300, disabled_seconds = 1e300;
  for (int p = 0; p < kPasses; ++p) {
    service.metrics().set_enabled(false);
    {
      Stopwatch watch;
      service.SubmitBatch(queries, workload.source_ids);
      disabled_seconds = std::min(disabled_seconds, watch.Seconds());
    }
    service.metrics().set_enabled(true);
    {
      Stopwatch watch;
      service.SubmitBatch(queries, workload.source_ids);
      enabled_seconds = std::min(enabled_seconds, watch.Seconds());
    }
  }
  const double overhead = enabled_seconds / disabled_seconds - 1.0;

  TablePrinter table({"Configuration", "Batch (s)", "Overhead"});
  table.AddRow({"metrics disabled", TablePrinter::Num(disabled_seconds, 4),
                "-"});
  table.AddRow({"metrics enabled", TablePrinter::Num(enabled_seconds, 4),
                TablePrinter::Num(overhead * 100, 2) + "%"});
  table.Print();
  if (overhead > kOverheadBudget) {
    std::fprintf(stderr,
                 "FATAL: instrumentation overhead %.2f%% exceeds the %.0f%% "
                 "budget\n",
                 overhead * 100, kOverheadBudget * 100);
    std::exit(1);
  }
  std::printf("overhead within the %.0f%% budget\n", kOverheadBudget * 100);
}

}  // namespace
}  // namespace trajsearch::bench

int main(int argc, char** argv) { trajsearch::bench::Main(argc, argv); }
