#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

namespace trajsearch {

// ---------------------------------------------------------------------------
// Clang Thread Safety annotation macros
// ---------------------------------------------------------------------------
// The locking contracts of every concurrent subsystem (scheduler, SharedTopK,
// RCU publication slots, live-corpus ingest, metrics registry) are expressed
// with these capability annotations so `clang++ -Wthread-safety -Werror`
// proves the discipline whole-program at compile time. Off Clang (GCC, MSVC)
// every macro expands to nothing — zero cost, zero semantic change — and the
// CI `static-analysis` job runs the Clang build so violations cannot land.
//
// Conventions (see README "Static analysis"):
//  * every field guarded by a lock carries TRAJ_GUARDED_BY(lock)
//  * every private method that assumes a held lock carries TRAJ_REQUIRES
//    (and its name keeps the `...Locked` suffix for human readers)
//  * public methods that must NOT be called with a lock held (they acquire
//    it themselves) carry TRAJ_EXCLUDES where self-deadlock is plausible

#if defined(__clang__)
#define TRAJ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TRAJ_THREAD_ANNOTATION(x)  // expands away off-Clang
#endif

/// Marks a type as a capability (lockable) the analysis can track.
#define TRAJ_CAPABILITY(x) TRAJ_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define TRAJ_SCOPED_CAPABILITY TRAJ_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read/written with the named capability held.
#define TRAJ_GUARDED_BY(x) TRAJ_THREAD_ANNOTATION(guarded_by(x))
/// Pointee may only be dereferenced with the named capability held.
#define TRAJ_PT_GUARDED_BY(x) TRAJ_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (not held on entry, held on exit).
#define TRAJ_ACQUIRE(...) \
  TRAJ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not held on exit).
#define TRAJ_RELEASE(...) \
  TRAJ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability shared (reader side).
#define TRAJ_ACQUIRE_SHARED(...) \
  TRAJ_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases a shared hold of the capability.
#define TRAJ_RELEASE_SHARED(...) \
  TRAJ_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define TRAJ_TRY_ACQUIRE(...) \
  TRAJ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must hold the capability (exclusively) across the call.
#define TRAJ_REQUIRES(...) \
  TRAJ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (the function acquires it itself, or
/// holding it would deadlock/invert the lock order).
#define TRAJ_EXCLUDES(...) TRAJ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Declares lock-ordering edges checked by the analysis.
#define TRAJ_ACQUIRED_BEFORE(...) \
  TRAJ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TRAJ_ACQUIRED_AFTER(...) \
  TRAJ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define TRAJ_RETURN_CAPABILITY(x) TRAJ_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for code the analysis cannot model; every use must carry a
/// comment explaining why (tools/lint.py does not police this — reviewers
/// do — but grep finds all sites).
#define TRAJ_NO_THREAD_SAFETY_ANALYSIS \
  TRAJ_THREAD_ANNOTATION(no_thread_safety_analysis)

class CondVar;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// \brief Capability-typed mutex: the repo's default mutual-exclusion
/// primitive (SharedMutex below adds a reader side).
///
/// A thin wrapper over std::mutex whose Lock/Unlock carry acquire/release
/// annotations, so field accesses guarded with TRAJ_GUARDED_BY(mu_) are
/// compile-time checked under Clang. Raw std::mutex / std::lock_guard are
/// banned outside this header by tools/lint.py — the wrapper costs nothing
/// (all methods inline to the std::mutex call) and buys the whole-program
/// locking proof.
class TRAJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TRAJ_ACQUIRE() { mu_.lock(); }
  void Unlock() TRAJ_RELEASE() { mu_.unlock(); }
  bool TryLock() TRAJ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// MutexLock
// ---------------------------------------------------------------------------

/// \brief Scoped guard over Mutex (the std::lock_guard/unique_lock
/// replacement). Relockable: Unlock()/Lock() support the
/// drop-the-lock-around-a-callback pattern the scheduler's helping Wait
/// uses, and the analysis tracks the capability through both.
class TRAJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TRAJ_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() TRAJ_RELEASE() {
    if (held_) mu_.Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (e.g. to run a task the lock must not
  /// cover); pair with Lock() before touching guarded state again.
  void Unlock() TRAJ_RELEASE() {
    held_ = false;
    mu_.Unlock();
  }
  void Lock() TRAJ_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_ = true;
};

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

/// \brief Capability-typed reader/writer mutex over std::shared_mutex.
///
/// Fields guarded with TRAJ_GUARDED_BY(mu_) may be read under either a
/// ReaderLock or a WriterLock and written only under a WriterLock; Clang
/// rejects a write under the shared hold at compile time. Raw
/// std::shared_mutex / std::shared_lock are banned outside this header by
/// the same tools/lint.py rule as std::mutex.
class TRAJ_CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() TRAJ_ACQUIRE() { mu_.lock(); }
  void Unlock() TRAJ_RELEASE() { mu_.unlock(); }
  void LockShared() TRAJ_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() TRAJ_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// \brief Scoped exclusive hold of a SharedMutex.
class TRAJ_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) TRAJ_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() TRAJ_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// \brief Scoped shared (reader) hold of a SharedMutex.
class TRAJ_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) TRAJ_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() TRAJ_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// \brief Condition variable paired with Mutex.
///
/// Wait() is annotated TRAJ_REQUIRES(mu): the capability is held on entry
/// and on exit; the internal release-while-blocked is invisible to the
/// analysis (the standard idiom for condvar waits — the caller's guarded
/// accesses before and after the wait remain checked). Write wait loops as
///   while (!predicate_over_guarded_state) cv.Wait(mu);
/// in the annotated caller rather than passing a predicate lambda — lambdas
/// do not inherit the enclosing REQUIRES, so guarded reads inside one would
/// defeat the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  void Wait(Mutex& mu) TRAJ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's MutexLock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// SeqLock
// ---------------------------------------------------------------------------

/// \brief Capability-typed sequence lock: single annotated writer,
/// lock-free retrying readers.
///
/// Codifies the publication protocol SharedTopK uses for its abandon
/// threshold: a writer (already serialized by some Mutex) wraps its payload
/// stores in BeginWrite()/EndWrite(), which the analysis tracks as an
/// exclusive capability — so the payload-store helper can carry
/// TRAJ_REQUIRES(seq_) and a store outside the odd window fails to compile.
/// Readers never acquire anything: ReadBegin()/ReadRetry() implement the
/// classic retry loop over payload fields that must themselves be atomics
/// (the seqlock makes torn *combinations* detectable; individual fields
/// must still be race-free words).
///
/// Memory ordering: BeginWrite publishes seq+1 with release *before* the
/// payload stores and EndWrite publishes seq+2 with release *after* them;
/// readers pair with acquire loads in ReadBegin/ReadRetry. Payload
/// accesses between the fences may be relaxed — the bracketing
/// acquire/release pair is what orders them (see SharedTopK::LoadWorst).
class TRAJ_CAPABILITY("seqlock") SeqLock {
 public:
  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  /// Enters the write-side critical section: sequence becomes odd, readers
  /// started from here on retry. The caller must already have writer
  /// exclusion (typically TRAJ_REQUIRES of the owning Mutex) — a seqlock
  /// serializes readers against one writer, never writer against writer.
  void BeginWrite() TRAJ_ACQUIRE() {
    // relaxed: the writer is exclusive, so its own previous store is the
    // only prior value; the *release* on the store below is what matters.
    const uint32_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_release);
  }

  /// Leaves the write-side critical section: sequence becomes even again
  /// and the payload written in between is publishable as one unit.
  void EndWrite() TRAJ_RELEASE() {
    // relaxed: same single-writer argument as BeginWrite.
    const uint32_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_release);
  }

  /// Read-side entry: spins past in-progress writes and returns the (even)
  /// sequence to validate with ReadRetry after loading the payload.
  uint32_t ReadBegin() const {
    for (;;) {
      const uint32_t seq = seq_.load(std::memory_order_acquire);
      if ((seq & 1u) == 0) return seq;
    }
  }

  /// True if a write overlapped the read section; the caller must reload.
  bool ReadRetry(uint32_t begin_seq) const {
    return seq_.load(std::memory_order_acquire) != begin_seq;
  }

 private:
  std::atomic<uint32_t> seq_{0};
};

// ---------------------------------------------------------------------------
// TicketSeqLock
// ---------------------------------------------------------------------------

/// \brief Per-slot variant of the seqlock protocol for lock-free rings
/// (obs::TraceRing): writers are *not* mutually excluded — each carries a
/// unique monotonically increasing claim (from a fetch_add slot counter),
/// stamps the slot odd (2*claim+1) before its payload stores and even
/// (2*claim+2) after. A reader validates that the same even ticket bracketed
/// its payload loads; a lapped or in-flight slot fails validation and is
/// dropped. Because writers are unserialized this cannot be a tracked
/// capability (two writers may legally race on one slot; the larger claim
/// wins) — the type instead centralizes the stamp arithmetic and ordering so
/// every ring spells the protocol the same way.
class TicketSeqLock {
 public:
  TicketSeqLock() = default;
  TicketSeqLock(const TicketSeqLock&) = delete;
  TicketSeqLock& operator=(const TicketSeqLock&) = delete;

  /// Write-side bracket: marks the slot in-progress for `claim`. The
  /// release pairs with readers' acquire in ReadValidate so payload stores
  /// after this cannot be observed with an older even ticket.
  void WriteBegin(uint64_t claim) {
    ticket_.store(2 * claim + 1, std::memory_order_release);
  }
  /// Write-side close: publishes the slot as complete for `claim`.
  void WriteEnd(uint64_t claim) {
    ticket_.store(2 * claim + 2, std::memory_order_release);
  }

  /// Read-side entry: true if the slot currently holds a complete write of
  /// `claim` (ticket == 2*claim+2). Acquire pairs with WriteEnd.
  bool ReadBegin(uint64_t claim) const {
    return ticket_.load(std::memory_order_acquire) == 2 * claim + 2;
  }
  /// Read-side close: true if the ticket is unchanged since ReadBegin — the
  /// payload loads in between saw one complete write.
  bool ReadValidate(uint64_t claim) const {
    return ticket_.load(std::memory_order_acquire) == 2 * claim + 2;
  }

 private:
  std::atomic<uint64_t> ticket_{0};
};

}  // namespace trajsearch
