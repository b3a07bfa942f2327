#include "search/threshold.h"

#include <algorithm>

#include "search/cma.h"

namespace trajsearch {

namespace {

std::vector<SearchResult> SelectDisjoint(const std::vector<double>& c,
                                         const std::vector<int>& s,
                                         double tau) {
  std::vector<SearchResult> candidates;
  for (size_t j = 0; j < c.size(); ++j) {
    if (c[j] <= tau) {
      candidates.push_back(
          SearchResult{Subrange{s[j], static_cast<int>(j)}, c[j]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.range.start < b.range.start;
            });
  std::vector<SearchResult> selected;
  for (const SearchResult& cand : candidates) {
    bool overlaps = false;
    for (const SearchResult& kept : selected) {
      if (cand.range.start <= kept.range.end &&
          kept.range.start <= cand.range.end) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) selected.push_back(cand);
  }
  std::sort(selected.begin(), selected.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.range.start < b.range.start;
            });
  return selected;
}

}  // namespace

std::vector<SearchResult> CmaThresholdSearch(const DistanceSpec& spec,
                                             TrajectoryView query,
                                             TrajectoryView data,
                                             double tau) {
  const int m = static_cast<int>(query.size());
  const int n = static_cast<int>(data.size());
  std::vector<double> c;
  std::vector<int> s;
  if (spec.IsWedFamily()) {
    VisitWedCosts(spec, query, data, [&](const auto& costs) {
      CmaWedFinalRow(m, n, costs, CmaWedVariant::kExact, &c, &s);
    });
  } else {
    VisitSubCombine(spec.kind, [&](auto combine) {
      CmaSubOnlyFinalRow<decltype(combine)::value>(
          m, n, EuclideanSub{query, data}, &c, &s);
    });
  }
  return SelectDisjoint(c, s, tau);
}

}  // namespace trajsearch
