// Seeded thread-safety violations for the negative-compilation matrix.
//
// Each TRAJ_NC_CASE_* block contains exactly one locking-discipline bug the
// Clang Thread Safety analysis must reject; the driver
// (run_negative_compile.py) compiles this TU once per case macro with
// `-Wthread-safety -Werror` and asserts failure, and once with no macro
// defined and asserts success (the control proves the harness compiles the
// annotations themselves cleanly). If a "violation" ever compiles, the gate
// has silently stopped proving anything — that is the regression this file
// exists to catch.
//
// GCC compiles every branch of this file without complaint (the macros
// expand away): the ctest entry is registered only under Clang.

#include "util/sync.h"

namespace trajsearch {

class Guarded {
 public:
  void Locked() TRAJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++value_;
  }

  void RequiresHeld() TRAJ_REQUIRES(mu_) { ++value_; }

  int SharedRead() TRAJ_EXCLUDES(rw_) {
    ReaderLock lock(rw_);
    return shared_value_;
  }

  void SharedWrite() TRAJ_EXCLUDES(rw_) {
    WriterLock lock(rw_);
    ++shared_value_;
  }

  void SeqWrite() TRAJ_REQUIRES(mu_) {
    seq_.BeginWrite();
    StorePayload();
    seq_.EndWrite();
  }

#if defined(TRAJ_NC_CASE_GUARDED_NO_LOCK)
  // Violation: guarded field accessed with no capability held.
  int Broken() { return value_; }
#endif

#if defined(TRAJ_NC_CASE_REQUIRES_NOT_HELD)
  // Violation: REQUIRES method called without acquiring the mutex.
  void Broken() { RequiresHeld(); }
#endif

#if defined(TRAJ_NC_CASE_DOUBLE_UNLOCK)
  // Violation: releasing a capability that is no longer held.
  void Broken() {
    MutexLock lock(mu_);
    lock.Unlock();
    lock.Unlock();
  }
#endif

#if defined(TRAJ_NC_CASE_SEQLOCK_STORE_OUTSIDE_WRITE)
  // Violation: seqlock payload store outside the BeginWrite/EndWrite
  // window (the SharedTopK StoreWorst contract).
  void Broken() { StorePayload(); }
#endif

#if defined(TRAJ_NC_CASE_EXCLUDES_VIOLATED)
  // Violation: calling a TRAJ_EXCLUDES(mu_) method with mu_ held
  // (self-deadlock on a non-recursive mutex).
  void Broken() {
    MutexLock lock(mu_);
    Locked();
  }
#endif

#if defined(TRAJ_NC_CASE_WRITE_UNDER_READER_LOCK)
  // Violation: writing a SharedMutex-guarded field under the shared hold
  // (the SharedDeltaGrid catch-up must take the WriterLock).
  void Broken() {
    ReaderLock lock(rw_);
    ++shared_value_;
  }
#endif

#if defined(TRAJ_NC_CASE_LOCK_LEAK)
  // Violation: acquiring the raw Mutex on a path that returns without
  // releasing it.
  void Broken(bool early) {
    mu_.Lock();
    if (early) return;
    mu_.Unlock();
  }
#endif

 private:
  void StorePayload() TRAJ_REQUIRES(seq_) { payload_ = value_; }

  Mutex mu_;
  int value_ TRAJ_GUARDED_BY(mu_) = 0;
  SeqLock seq_;
  int payload_ = 0;  // seqlock payload; stores gated by StorePayload
  SharedMutex rw_;
  int shared_value_ TRAJ_GUARDED_BY(rw_) = 0;
};

// The control build must still need the class to be semantically checked.
void NegativeCompileControl() {
  Guarded g;
  g.Locked();
  g.SharedWrite();
  (void)g.SharedRead();
}

}  // namespace trajsearch
