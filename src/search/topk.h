#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <queue>
#include <vector>

#include "search/engine.h"
#include "search/query_run.h"
#include "util/check.h"
#include "util/sync.h"

namespace trajsearch {

/// Canonical hit ordering: ascending distance, ties broken by ascending
/// trajectory id. Integer-valued distances (EDR edit counts) tie often; the
/// id tie-break makes the top-K set a pure function of the corpus, so the
/// serial engine, the threaded engine and the sharded service all return
/// bit-identical results.
inline bool BetterHit(const EngineHit& a, const EngineHit& b) {
  if (a.result.distance != b.result.distance) {
    return a.result.distance < b.result.distance;
  }
  return a.trajectory_id < b.trajectory_id;
}

/// \brief Bounded worst-first heap of engine hits (Appendix E).
///
/// The locked heap behind SharedTopK, into which every engine worker, shard
/// and delta part of one query offers its hits.
class TopKHeap {
 public:
  explicit TopKHeap(int k) : k_(k) { TRAJ_CHECK(k >= 1); }

  bool Full() const { return static_cast<int>(heap_.size()) == k_; }
  /// Distance of the K-th best hit (bound-pruning threshold). Callers must
  /// only consult the threshold once the heap is Full(); on an empty heap
  /// priority_queue::top() would be undefined behaviour.
  double Worst() const {
    TRAJ_CHECK(!heap_.empty());
    return heap_.top().result.distance;
  }
  /// Trajectory id of the K-th best hit (the canonical tie-break partner of
  /// Worst()); same non-empty precondition.
  int WorstId() const {
    TRAJ_CHECK(!heap_.empty());
    return heap_.top().trajectory_id;
  }

  void Offer(const EngineHit& hit) {
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push(hit);
    } else if (BetterHit(hit, heap_.top())) {
      heap_.pop();
      heap_.push(hit);
    }
  }

  /// Drains into a best-first vector.
  std::vector<EngineHit> Sorted() {
    std::vector<EngineHit> hits;
    hits.reserve(heap_.size());
    while (!heap_.empty()) {
      hits.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(hits.begin(), hits.end());
    return hits;
  }

 private:
  struct Worse {
    bool operator()(const EngineHit& a, const EngineHit& b) const {
      return BetterHit(a, b);
    }
  };
  int k_;
  std::priority_queue<EngineHit, std::vector<EngineHit>, Worse> heap_;
};

/// \brief Concurrent top-K with a lock-free published abandon threshold.
///
/// One SharedTopK is the single heap for all workers of a query — and, under
/// the service layer, for all shards evaluating that query — replacing the
/// pre-PR-4 model of per-worker/per-shard local heaps merged at the end.
/// Insertions serialize on a light mutex; the threshold is published through
/// a seqlock over plain atomics so the hot path (bound checks and DP early
/// abandoning, thousands per insertion) never takes the lock.
///
/// What is published is the full canonical identity of the K-th best hit —
/// (distance, trajectory id), not the distance alone — and that is what
/// makes the final heap a pure function of the offered set rather than of
/// thread timing. Two places need it:
///
///  * ShouldPrune() compares a lower bound in canonical order: a candidate
///    whose bound exactly ties the K-th best distance may still displace it
///    on the id tie-break (BetterHit), so it is only pruned when its id
///    loses that tie-break too. A distance-only `bound >= worst` prune —
///    which is what the per-worker heaps this replaces used — was only
///    correct because each worker's candidate stream was id-ascending, so
///    the tied incumbent always had the smaller id. For a single-stream
///    id-ascending caller, ShouldPrune reduces to exactly that legacy
///    `bound >= worst` rule, so the serial engine's decisions (and hence
///    its results, even under a *sampled* KPF estimate) are unchanged.
///  * Cutoff(), the DP early-abandon threshold, is one ulp *above* the
///    K-th best distance (nextafter): a candidate whose optimal distance
///    exactly ties it must be computed exactly — not abandoned — so that
///    Offer() can resolve the tie canonically.
///
/// With a sound bound, the result is therefore bit-identical to the serial
/// engine no matter how workers interleave. (As with `threads`, a *sampled*
/// estimate may prune differently depending on when the threshold
/// tightened; results are identical whenever the bound is sound.)
class SharedTopK {
 public:
  explicit SharedTopK(int k) : heap_(k) {}

  /// Current early-abandon cutoff for QueryRun::Run: +infinity until K hits
  /// have been offered, afterwards one ulp above the K-th best distance.
  /// Lock-free; monotonically non-increasing, so a stale read only weakens
  /// pruning, never abandons a hit that could still win.
  double Cutoff() const {
    const Worst w = LoadWorst();
    if (w.distance == kNoCutoff) return kNoCutoff;
    return std::nextafter(w.distance, std::numeric_limits<double>::infinity());
  }

  /// True if a candidate with the given *sound or estimated* lower bound and
  /// global trajectory id can be skipped: (lower, id) is canonically no
  /// better than the published K-th best hit. Lock-free; false until K hits
  /// have been offered.
  bool ShouldPrune(double lower, int id) const {
    const Worst w = LoadWorst();
    if (w.distance == kNoCutoff) return false;
    return lower > w.distance || (lower == w.distance && id > w.id);
  }

  void Offer(const EngineHit& hit) TRAJ_EXCLUDES(mu_) {
    // Lock-free rejection: once the heap is full, a hit that is canonically
    // no better than the published K-th best can never enter. The published
    // pair is stale-or-current and only ever improves, so rejecting against
    // it is always sound. Before the heap fills, everything — including
    // not-found sentinels — takes the lock, exactly like TopKHeap.
    if (ShouldPrune(hit.result.distance, hit.trajectory_id)) return;
    MutexLock lock(mu_);
    heap_.Offer(hit);
    if (heap_.Full()) {
      const uint64_t bits = DoubleBits(heap_.Worst());
      const int id = heap_.WorstId();
      // Publish only when the K-th best actually changed — a rejected offer
      // would otherwise bump the seqlock and spin concurrent readers for no
      // new information.
      if (bits != published_bits_ || id != published_id_) {
        published_bits_ = bits;
        published_id_ = id;
        PublishWorstLocked(bits, id);
      }
    }
  }

  /// Drains into a best-first vector (not concurrency-safe; call after all
  /// workers have finished).
  std::vector<EngineHit> Sorted() TRAJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return heap_.Sorted();
  }

 private:
  struct Worst {
    double distance;
    int id;
  };

  static uint64_t DoubleBits(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
  }

  /// Seqlock publish of a new K-th best. mu_ provides the writer exclusion
  /// the SeqLock capability assumes; the capability itself proves the
  /// payload stores only ever happen inside the odd-sequence window.
  void PublishWorstLocked(uint64_t bits, int id) TRAJ_REQUIRES(mu_) {
    seq_.BeginWrite();
    StoreWorst(bits, id);
    seq_.EndWrite();
  }

  /// The seqlock payload write — compiles only with the write capability.
  void StoreWorst(uint64_t bits, int id) TRAJ_REQUIRES(seq_) {
    worst_bits_.store(bits, std::memory_order_release);
    worst_id_.store(id, std::memory_order_release);
  }

  Worst LoadWorst() const {
    for (;;) {
      const uint32_t before = seq_.ReadBegin();
      // acquire: pairs with the release payload stores in StoreWorst, so a
      // validated read section observed a (bits, id) pair from one publish.
      const uint64_t bits = worst_bits_.load(std::memory_order_acquire);
      const int id = worst_id_.load(std::memory_order_acquire);
      if (seq_.ReadRetry(before)) continue;  // publish overlapped; reload
      Worst w{0, id};
      std::memcpy(&w.distance, &bits, sizeof(w.distance));
      return w;
    }
  }

  mutable Mutex mu_;
  TopKHeap heap_ TRAJ_GUARDED_BY(mu_);
  /// What the seqlock last published, so unchanged worsts are not
  /// republished.
  uint64_t published_bits_ TRAJ_GUARDED_BY(mu_) = DoubleBits(kNoCutoff);
  int published_id_ TRAJ_GUARDED_BY(mu_) = -1;
  /// Write-side capability over the published pair below; writers hold mu_
  /// (see PublishWorstLocked), readers retry via ReadBegin/ReadRetry.
  SeqLock seq_;
  /// Seqlock-published (K-th best distance, K-th best id); distance stays
  /// kNoCutoff until the heap fills (a heap full of not-found sentinels
  /// also reads as "no threshold", which disables pruning — exactly the
  /// legacy behaviour for infinite worsts). Atomics, not TRAJ_GUARDED_BY:
  /// readers load them without any capability and rely on the seqlock
  /// retry; only the *stores* are capability-checked (StoreWorst).
  std::atomic<uint64_t> worst_bits_{DoubleBits(kNoCutoff)};
  std::atomic<int> worst_id_{-1};
};

}  // namespace trajsearch
