// live_ingest — walkthrough of the live-corpus lifecycle: serve queries
// while trajectories stream in, watch the base/delta generations evolve,
// compact, and snapshot the live corpus.
//
// The flow mirrors a fleet feed: a service starts from yesterday's corpus,
// today's trips append while queries run, a background (here: forced)
// compaction folds the delta into a fresh base, and the corpus is saved as
// one flattened snapshot that keeps every corpus id.

#include <cstdio>

#include "gen/taxi.h"
#include "io/snapshot.h"
#include "service/query_service.h"

using namespace trajsearch;

namespace {

void PrintShape(const QueryService& service, const char* moment) {
  const CorpusShape s = service.Shape();
  std::printf("[%s]\n  generation %llu (ingest seq %llu, %llu compactions)\n"
              "  base %d trajectories | delta %d trajectories, %zu points\n",
              moment, static_cast<unsigned long long>(s.generation),
              static_cast<unsigned long long>(s.ingest_seq),
              static_cast<unsigned long long>(s.base_generation),
              s.base_trajectories, s.delta_trajectories, s.delta_points);
}

void PrintTop(const std::vector<EngineHit>& hits, const char* label) {
  std::printf("  %s: ", label);
  for (const EngineHit& hit : hits) {
    std::printf("#%d@%.4f [%d..%d]  ", hit.trajectory_id,
                hit.result.distance, hit.result.range.start,
                hit.result.range.end);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // Yesterday's corpus: 300 Porto-profile taxi trips.
  TaxiProfile profile = PortoProfile(360);
  const Dataset full = GenerateTaxiDataset(profile);
  Dataset base("porto-live");
  base.Reserve(300);
  for (int id = 0; id < 300; ++id) base.Add(full[id]);

  ServiceOptions options;
  options.engine.spec = DistanceSpec::Dtw();
  options.engine.top_k = 3;
  options.engine.mu = 0.1;
  options.engine.sample_rate = 1.0;  // sound bound: results are exact
  options.shards = 2;
  options.compact_delta_trajectories = 0;  // manual compaction below
  QueryService service(std::move(base), options);
  PrintShape(service, "startup");

  // A query is a slice of one of today's *incoming* trips: before the trip
  // is ingested, the best match is whatever the old corpus offers.
  const TrajectoryRef incoming = full[317];
  const TrajectoryView query = incoming.Slice(Subrange{
      2, std::min(incoming.size() - 1, 14)});
  PrintTop(service.Submit(query), "before ingest  ");

  // Today's feed arrives: 60 trips appended while the service keeps
  // serving. Appends publish new generations; in-flight queries keep the
  // generation they pinned, new queries see the grown corpus at once.
  std::vector<TrajectoryView> feed;
  for (int id = 300; id < 360; ++id) feed.push_back(full[id].View());
  const std::vector<int> ids = service.AppendBatch(feed);
  PrintShape(service, "after ingest");
  std::printf("  trajectory %d..%d appended (ids are dense and stable)\n",
              ids.front(), ids.back());

  // The appended trip now dominates its own query — and the result cache
  // noticed by itself: cache keys carry the generation's ingest stamp, so
  // the pre-ingest cached answer can never be replayed.
  PrintTop(service.Submit(query), "after ingest   ");

  // Fold the delta into a fresh base. Results must not change — compaction
  // moves storage, never content — and cached results survive (the ingest
  // stamp is unchanged).
  service.Compact();
  PrintShape(service, "after compact");
  PrintTop(service.Submit(query), "after compact  ");

  const ServiceStats stats = service.Stats();
  std::printf("  served %llu queries, %llu cache hits; ingested %llu "
              "trajectories; %llu compactions (%.3f s)\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.appends),
              static_cast<unsigned long long>(stats.compactions),
              stats.compaction_seconds);

  // Persist: the snapshot holds the flattened corpus — base ids first, then
  // any delta in append order — so the same ids come back whether or not a
  // delta was still live, and MmapSnapshot::Open serves the file zero-copy.
  const Status saved = service.SaveSnapshot("porto_live.snap");
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const Result<SnapshotInfo> info = ProbeSnapshot("porto_live.snap");
  if (info.ok()) {
    std::printf("  saved porto_live.snap (v%u, %llu trajectories, "
                "mmap-servable)\n",
                info.value().version,
                static_cast<unsigned long long>(
                    info.value().base_trajectories));
  }
  std::remove("porto_live.snap");
  return 0;
}
