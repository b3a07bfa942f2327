// Runtime behavior of the capability-typed sync primitives (util/sync.h).
//
// The annotations themselves are compile-time only and are exercised by the
// negative-compilation matrix (tests/negative_compile/, Clang-only); this
// suite proves the wrappers are behavior-identical to the raw primitives
// they replaced — mutual exclusion, condvar wakeups, relock support, the
// seqlock write/read protocol — and runs under TSan in CI like every other
// concurrency test.

#include "util/sync.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace trajsearch {
namespace {

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int counter = 0;  // deliberately non-atomic: the mutex is the protection
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockReportsHeldState) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread other([&]() { EXPECT_FALSE(mu.TryLock()); });
  other.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SharedMutexTest, WritersExcludeReaders) {
  SharedMutex mu;
  int a = 0;  // deliberately non-atomic: the lock is the protection
  int b = 0;
  std::atomic<int> torn{0};
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        WriterLock lock(mu);
        ++a;
        ++b;
      }
    });
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        ReaderLock lock(mu);
        if (a != b) torn.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a, 2 * kIters);
}

TEST(SharedMutexTest, ReadersShareTheLock) {
  SharedMutex mu;
  std::atomic<bool> second_in{false};
  mu.LockShared();
  std::thread other([&]() {
    ReaderLock second(mu);
    second_in.store(true);
  });
  // Bounded wait: were the hold exclusive, `other` would stay blocked until
  // UnlockShared below, so the flag could not rise in time.
  for (int spin = 0; spin < 5000 && !second_in.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool overlapped = second_in.load();
  mu.UnlockShared();
  other.join();
  EXPECT_TRUE(overlapped);
}

TEST(MutexLockTest, RelockRoundTrip) {
  // The scheduler's helping Wait drops the lock around the inline task and
  // retakes it; the guard must survive arbitrarily many such cycles.
  Mutex mu;
  int guarded = 0;
  MutexLock lock(mu);
  for (int i = 0; i < 3; ++i) {
    ++guarded;
    lock.Unlock();
    std::thread other([&]() {
      MutexLock inner(mu);
      ++guarded;
    });
    other.join();
    lock.Lock();
  }
  EXPECT_EQ(guarded, 6);
}

TEST(CondVarTest, WaitWakesOnPredicate) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread waiter([&]() {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    observed = 42;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

TEST(SeqLockTest, SequenceIsOddExactlyInsideWrites) {
  SeqLock seq;
  const uint32_t s0 = seq.ReadBegin();
  EXPECT_EQ(s0 % 2u, 0u);
  seq.BeginWrite();
  seq.EndWrite();
  const uint32_t s1 = seq.ReadBegin();
  EXPECT_EQ(s1, s0 + 2);          // one write bumps by exactly 2
  EXPECT_TRUE(seq.ReadRetry(s0));  // a section spanning the write retries
  EXPECT_FALSE(seq.ReadRetry(s1));
}

TEST(SeqLockTest, ReadersNeverObserveTornPairs) {
  // One writer publishes (v, 2*v) pairs; readers must only ever validate
  // consistent pairs — the SharedTopK publication pattern in miniature.
  SeqLock seq;
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    for (uint64_t v = 1; v <= 50000; ++v) {
      seq.BeginWrite();
      a.store(v, std::memory_order_release);
      b.store(2 * v, std::memory_order_release);
      seq.EndWrite();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  std::atomic<bool> torn{false};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_acquire)) {
        const uint32_t before = seq.ReadBegin();
        const uint64_t ra = a.load(std::memory_order_acquire);
        const uint64_t rb = b.load(std::memory_order_acquire);
        if (seq.ReadRetry(before)) continue;
        if (rb != 2 * ra) torn.store(true, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(torn.load());
}

TEST(TicketSeqLockTest, StampsFollowClaimArithmetic) {
  TicketSeqLock ticket;
  EXPECT_FALSE(ticket.ReadBegin(0));  // unwritten slot validates nothing
  ticket.WriteBegin(0);
  EXPECT_FALSE(ticket.ReadBegin(0));  // in-flight write is invisible
  ticket.WriteEnd(0);
  EXPECT_TRUE(ticket.ReadBegin(0));
  EXPECT_TRUE(ticket.ReadValidate(0));
  // A lapping writer (same slot, later claim) invalidates the old claim.
  ticket.WriteBegin(7);
  EXPECT_FALSE(ticket.ReadValidate(0));
  ticket.WriteEnd(7);
  EXPECT_TRUE(ticket.ReadValidate(7));
  EXPECT_FALSE(ticket.ReadValidate(0));
}

}  // namespace
}  // namespace trajsearch
