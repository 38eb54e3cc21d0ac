// Tests for the static-analysis layer (see docs/STATIC_ANALYSIS.md):
//
//  1. The annotated core wrappers (core/mutex.h, core/epoch_lock.h) really
//     behave like the raw primitives they replace — exclusion, signaling,
//     shared access, early release.
//  2. The runtime lock-order checker (core/lock_order.h) aborts on an
//     A->B / B->A inversion and stays quiet on consistent orders and on
//     same-name sibling locks. Compiled only under KSPDG_CHECK_LOCK_ORDER
//     (the asan CI leg); skipped elsewhere.
//  3. tools/kspdg_lint.py is self-tested against the known-bad fixture
//     trees in tests/lint_fixtures/ — the linter must flag each one and
//     pass both the real tree and the suppression fixture.
//
// Raw std::thread use in this file is fine: the raw-primitives lint rule
// covers src/ and tools/, not tests.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch_lock.h"
#include "core/lock_order.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace kspdg {
namespace {

// ---------------------------------------------------------------------------
// 1. Wrapper semantics.
// ---------------------------------------------------------------------------

TEST(MutexWrapperTest, MutexLockProvidesExclusion) {
  Mutex mu("sa_test::exclusion");
  int counter = 0;  // guarded by mu (GUARDED_BY applies to members only)
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock guard(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock guard(mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexWrapperTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu("sa_test::trylock");
  mu.Lock();
  std::atomic<bool> acquired{false};
  std::thread other([&] { acquired.store(mu.TryLock()); });
  other.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  std::thread retry([&] {
    acquired.store(mu.TryLock());
    if (acquired.load()) mu.Unlock();
  });
  retry.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MutexWrapperTest, MutexLockEarlyUnlockAndRelock) {
  Mutex mu("sa_test::early_unlock");
  bool flag = false;  // guarded by mu
  MutexLock guard(mu);
  flag = true;
  guard.Unlock();
  // The lock is free here: another thread can take it.
  std::atomic<bool> other_got_it{false};
  std::thread other([&] {
    MutexLock inner(mu);
    other_got_it.store(true);
  });
  other.join();
  EXPECT_TRUE(other_got_it.load());
  guard.Lock();
  EXPECT_TRUE(flag);
}  // dtor releases the re-taken lock

TEST(MutexWrapperTest, CondVarSignalsUnderWrapperMutex) {
  Mutex mu("sa_test::condvar");
  CondVar cv;
  bool ready = false;  // guarded by mu
  std::atomic<bool> observed{false};
  std::thread waiter([&] {
    MutexLock guard(mu);
    while (!ready) cv.Wait(mu);
    observed.store(true);
  });
  {
    MutexLock guard(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(observed.load());
}

TEST(SharedMutexWrapperTest, AdmitsConcurrentReaders) {
  SharedMutex mu("sa_test::shared");
  std::atomic<int> inside{0};
  std::atomic<bool> both_seen{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      ReaderMutexLock guard(mu);
      inside.fetch_add(1);
      // Wait (bounded) for the other reader so the two shared holds
      // overlap however slowly the threads start.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      if (inside.load() == 2) both_seen.store(true);
      inside.fetch_sub(1);
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(both_seen.load()) << "two shared holds never overlapped";
}

TEST(SharedMutexWrapperTest, WriterExcludesReaders) {
  SharedMutex mu("sa_test::shared_writer");
  int value = 0;  // guarded by mu
  std::atomic<bool> writer_done{false};
  std::atomic<bool> reader_saw_done{false};
  std::thread reader;
  {
    WriterMutexLock guard(mu);
    reader = std::thread([&] {
      // Blocks until the writer releases, so it must observe writer_done.
      ReaderMutexLock inner(mu);
      reader_saw_done.store(writer_done.load());
    });
    value = 42;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    writer_done.store(true);
  }
  reader.join();
  EXPECT_TRUE(reader_saw_done.load());
  ReaderMutexLock guard(mu);
  EXPECT_EQ(value, 42);
}

TEST(EpochLockGuardTest, OwnsLockTracksEarlyUnlock) {
  EpochLock lock("sa_test::epoch");
  {
    EpochWriterLock writer(lock);
    EXPECT_TRUE(writer.owns_lock());
    writer.Unlock();
    EXPECT_FALSE(writer.owns_lock());
    // The lock is free again: a reader may pin it.
    EpochReaderLock reader(lock);
    EXPECT_TRUE(reader.owns_lock());
  }
  // Both guards released; an exclusive hold must succeed immediately.
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// ---------------------------------------------------------------------------
// 2. Lock-order checker.
// ---------------------------------------------------------------------------

#ifdef KSPDG_CHECK_LOCK_ORDER

TEST(LockOrderDeathTest, AbortsOnInversion) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The whole sequence runs in the death-test child so the poisoned edges
  // never enter this process's order graph.
  EXPECT_DEATH(
      {
        Mutex a("sa_death::A");
        Mutex b("sa_death::B");
        {  // Establish A -> B.
          MutexLock la(a);
          MutexLock lb(b);
        }
        {  // B -> A closes the cycle: abort on acquiring A.
          MutexLock lb(b);
          MutexLock la(a);
        }
      },
      "lock order inversion");
}

TEST(LockOrderTest, ConsistentOrderIsQuiet) {
  Mutex a("sa_order::A");
  Mutex b("sa_order::B");
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  // Same order again on another thread: still fine.
  std::thread t([&] {
    MutexLock la(a);
    MutexLock lb(b);
  });
  t.join();
}

TEST(LockOrderTest, SameNameSiblingsAreNotOrdered) {
  // The per-shard pattern: many instances sharing one role name may be
  // held together in any order (readers pin siblings concurrently).
  Mutex s0("sa_order::shard");
  Mutex s1("sa_order::shard");
  {
    MutexLock l0(s0);
    MutexLock l1(s1);
  }
  {
    MutexLock l1(s1);
    MutexLock l0(s0);
  }
}

TEST(LockOrderTest, CvWaitKeepsMutexInHeldStack) {
  // A cv wait releases and reacquires the mutex internally; the checker
  // must treat the hold as continuous (no spurious edge churn, no abort).
  Mutex outer("sa_order::outer");
  Mutex inner("sa_order::inner");
  CondVar cv;
  bool ready = false;  // guarded by inner
  std::thread signaller([&] {
    MutexLock guard(inner);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lo(outer);
    MutexLock li(inner);
    while (!ready) cv.Wait(inner);
  }
  signaller.join();
  // outer -> inner is now established; repeating it must stay quiet.
  MutexLock lo(outer);
  MutexLock li(inner);
}

#else  // !KSPDG_CHECK_LOCK_ORDER

TEST(LockOrderDeathTest, AbortsOnInversion) {
  GTEST_SKIP() << "built without KSPDG_CHECK_LOCK_ORDER";
}

#endif  // KSPDG_CHECK_LOCK_ORDER

// ---------------------------------------------------------------------------
// 3. Linter self-test against the fixture trees.
// ---------------------------------------------------------------------------

#ifndef KSPDG_SOURCE_DIR
#error "CMake must define KSPDG_SOURCE_DIR for static_analysis_test"
#endif

int RunLint(const std::string& root) {
  std::string cmd = std::string("python3 ") + KSPDG_SOURCE_DIR +
                    "/tools/kspdg_lint.py --root " + root + " > /dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  return rc;
}

bool HavePython() {
  return std::system("python3 --version > /dev/null 2>&1") == 0;
}

class LintSelfTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!HavePython()) GTEST_SKIP() << "python3 not available";
  }
};

TEST_F(LintSelfTest, RealTreeIsClean) {
  EXPECT_EQ(RunLint(KSPDG_SOURCE_DIR), 0)
      << "tools/kspdg_lint.py flags the checked-in tree";
}

TEST_F(LintSelfTest, FlagsEveryBadFixture) {
  const char* fixtures[] = {
      "bad_raw_mutex",
      "bad_raw_thread",
      "bad_wire",
      "bad_metric_case",
      "bad_metric_total",
      "bad_nodiscard_discard",
      "bad_nodiscard_missing",
  };
  for (const char* fixture : fixtures) {
    std::string root =
        std::string(KSPDG_SOURCE_DIR) + "/tests/lint_fixtures/" + fixture;
    EXPECT_NE(RunLint(root), 0) << fixture << " was not flagged";
  }
}

TEST_F(LintSelfTest, SuppressionCommentsAreHonored) {
  std::string root =
      std::string(KSPDG_SOURCE_DIR) + "/tests/lint_fixtures/good_suppressed";
  EXPECT_EQ(RunLint(root), 0) << "allow() comments were not honored";
}

}  // namespace
}  // namespace kspdg
