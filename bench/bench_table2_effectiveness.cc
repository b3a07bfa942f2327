// Reproduces Table 2: effectiveness (AR / MR / RR) of POS, PSS, RLS,
// RLS-Skip, CMA, ExactS, Spring and GB under DTW / EDR / ERP / FD on the
// Porto-like and Xi'an-like datasets.
//
// Protocol: Q query trajectories are sampled from the corpus (paper §6.1);
// each is evaluated against a random data trajectory, and the rank oracle
// enumerates all subtrajectories of that data trajectory to compute the
// metrics. Exact algorithms must report AR = 1, MR = 1, RR = 0%.

#include "bench/bench_common.h"
#include "search/oracle.h"
#include "util/rng.h"

namespace trajsearch::bench {
namespace {

void RunDataset(const std::string& name, const BenchDataset& bench,
                const BenchConfig& config, TablePrinter* table) {
  Rng rng(config.seed);
  WorkloadOptions wopts;
  wopts.count = config.queries;
  wopts.min_length = bench.default_query_min;
  wopts.max_length = bench.default_query_max;
  wopts.seed = config.seed;
  const Workload workload = SampleQueries(bench.data, wopts);

  // One random evaluation partner per query (excluding the query's source).
  std::vector<int> partners;
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    int id = workload.source_ids[qi];
    while (id == workload.source_ids[qi] || bench.data[id].size() < 2) {
      id = static_cast<int>(rng.UniformInt(0, bench.data.size() - 1));
    }
    partners.push_back(id);
  }

  for (const DistanceSpec& spec : GpsSpecs(bench)) {
    // Trained RL policies for this dataset/distance.
    const RlsPolicy rls =
        TrainPolicyOn(bench, workload.queries, spec, false, config.seed + 1);
    const RlsPolicy rls_skip =
        TrainPolicyOn(bench, workload.queries, spec, true, config.seed + 2);

    // Oracles are shared across algorithms (the expensive part).
    std::vector<SubtrajectoryOracle> oracles;
    oracles.reserve(workload.queries.size());
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
      oracles.emplace_back(spec, workload.queries[qi].View(),
                           bench.data[partners[qi]].View());
    }

    for (const Algorithm algo : PaperAlgorithms()) {
      if (!Supports(algo, spec.kind)) {
        table->AddRow({name, std::string(ToString(algo)),
                       std::string(ToString(spec.kind)), "-", "-", "-"});
        continue;
      }
      const auto searcher = MakeBenchSearcher(algo, spec, &rls, &rls_skip);
      RunningStats ar, mr, rr;
      for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
        const SearchResult found =
            searcher->Bind(workload.queries[qi])
                ->Run(bench.data[partners[qi]], kNoCutoff);
        const EffectivenessSample s = Evaluate(oracles[qi], found.distance);
        ar.Add(s.approximate_ratio);
        mr.Add(s.mean_rank);
        rr.Add(s.relative_rank);
      }
      table->AddRow({name, std::string(ToString(algo)),
                     std::string(ToString(spec.kind)),
                     TablePrinter::Num(ar.Mean(), 6),
                     TablePrinter::Num(mr.Mean(), 2),
                     TablePrinter::Num(rr.Mean() * 100.0, 2) + "%"});
    }
  }
}

void Main(int argc, char** argv) {
  const BenchConfig config = ParseBenchConfig(argc, argv);
  PrintHeader("[Table 2] Effectiveness of algorithms (AR / MR / RR)");
  std::printf("queries per dataset: %d, scale: %.2f\n", config.queries,
              config.scale);
  TablePrinter table({"Dataset", "Algorithm", "Dist", "AR", "MR", "RR"});
  {
    const BenchDataset porto = MakePorto(config);
    RunDataset("Porto", porto, config, &table);
  }
  {
    const BenchDataset xian = MakeXian(config);
    RunDataset("Xian", xian, config, &table);
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: exact algorithms (CMA/ExactS/Spring/GB) report "
      "AR=1, MR=1, RR=0%%;\napproximations (POS/PSS/RLS/RLS-Skip) report "
      "AR>1, with DTW the hardest distance for them.\n");
}

}  // namespace
}  // namespace trajsearch::bench

int main(int argc, char** argv) { trajsearch::bench::Main(argc, argv); }
