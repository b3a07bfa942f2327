#pragma once

#include <memory>
#include <string_view>

#include "distance/distance.h"
#include "search/query_run.h"
#include "search/result.h"
#include "search/rls.h"
#include "util/status.h"

namespace trajsearch {

/// \brief The subtrajectory-search algorithms compared in the paper (§6.1).
enum class Algorithm {
  kCma,                 // this paper, exact O(mn), all supported distances
  kExactS,              // exact O(mn^2), all distances
  kSpring,              // exact O(mn), DTW only
  kGreedyBacktracking,  // exact O(mn log mn), Fréchet only
  kPos,                 // approximate O(mn)
  kPss,                 // approximate O(mn)
  kRls,                 // approximate O(mn), learned split policy
  kRlsSkip,             // approximate O(mn), learned policy with SKIP
};

/// Table name of the algorithm ("CMA", "ExactS", ...).
std::string_view ToString(Algorithm algorithm);

/// True if the algorithm is exact for the given distance kind.
bool IsExact(Algorithm algorithm, DistanceKind kind);

/// True if the algorithm supports the given distance kind at all
/// (Spring: DTW only, GB: Fréchet only — the dashes in Tables 2/3).
bool Supports(Algorithm algorithm, DistanceKind kind);

/// \brief Uniform interface over all single-pair search algorithms.
///
/// The primary entry point is the two-phase plan API: NewRun() creates a
/// reusable QueryRun, QueryRun::Bind(query) compiles the query-side state
/// once, and QueryRun::Run(data, cutoff) evaluates one candidate with
/// early-abandon support (see search/query_run.h for the cutoff contract).
/// A one-shot search is Bind(query)->Run(data, kNoCutoff).
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Creates an unbound execution plan. The plan may be rebound to many
  /// queries; it must not outlive this searcher.
  virtual std::unique_ptr<QueryRun> NewRun() const = 0;

  /// Convenience: a plan already bound to `query` (the view must stay valid
  /// while the plan is used).
  std::unique_ptr<QueryRun> Bind(TrajectoryView query) const {
    std::unique_ptr<QueryRun> run = NewRun();
    run->Bind(query);
    return run;
  }

  /// Algorithm name for reports.
  virtual std::string_view name() const = 0;
};

/// Creates a searcher for the algorithm/distance combination. Fails with
/// Unsupported for invalid combinations (e.g. Spring under EDR). For kRls /
/// kRlsSkip an untrained default policy is used; prefer MakeRlsSearcher.
Result<std::unique_ptr<Searcher>> MakeSearcher(Algorithm algorithm,
                                               const DistanceSpec& spec);

/// Creates an RLS/RLS-Skip searcher around a trained policy.
std::unique_ptr<Searcher> MakeRlsSearcher(const DistanceSpec& spec,
                                          RlsPolicy policy);

}  // namespace trajsearch
