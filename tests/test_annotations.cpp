// Tests for util/thread_annotations.hpp: the macro surface must expand away
// cleanly off-clang (this file is also compiled as test_annotations_off with
// TSCHED_THREAD_ANNOTATIONS_FORCE_OFF=1), and the annotated Mutex/LockGuard/
// UniqueLock/CondVar wrappers must behave exactly like the std primitives
// they wrap — the whole point of the annotation layer is that it changes
// nothing at runtime.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tsched {
namespace {

// ---------------------------------------------------------------------------
// Macro expansion contract.

TEST(Annotations, EnabledMatchesCompilerAndForceOff) {
#if defined(TSCHED_THREAD_ANNOTATIONS_FORCE_OFF)
    // Forced off: empty expansion no matter the compiler.
    EXPECT_EQ(TSCHED_ANNOTATIONS_ENABLED, 0);
#elif defined(__clang__)
    EXPECT_EQ(TSCHED_ANNOTATIONS_ENABLED, 1);
#else
    // GCC/MSVC: the analysis does not exist; macros must compile away.
    EXPECT_EQ(TSCHED_ANNOTATIONS_ENABLED, 0);
#endif
}

// A type using every macro shape the codebase uses; merely compiling it in
// both the annotated and the compiled-away configuration is the assertion.
class MacroSurface {
public:
    void touch() TSCHED_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        touch_locked();
    }

    [[nodiscard]] int peek() const TSCHED_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        return *slot_;
    }

private:
    void touch_locked() TSCHED_REQUIRES(mutex_) { ++value_; }

    mutable Mutex mutex_ TSCHED_ACQUIRED_BEFORE(other_);
    Mutex other_;
    int value_ TSCHED_GUARDED_BY(mutex_) = 0;
    int* slot_ TSCHED_PT_GUARDED_BY(mutex_) = &value_;
};

TEST(Annotations, EveryMacroShapeCompiles) {
    MacroSurface surface;
    surface.touch();
    EXPECT_EQ(surface.peek(), 1);
}

// ---------------------------------------------------------------------------
// Wrapper behaviour: Mutex mutual exclusion.

TEST(Annotations, MutexProvidesMutualExclusion) {
    Mutex mutex;
    std::uint64_t counter = 0;
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 10000; ++i) {
                LockGuard lock(mutex);
                ++counter;
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter, 40000u);
}

TEST(Annotations, TryLockReportsContention) {
    Mutex mutex;
    ASSERT_TRUE(mutex.try_lock());
    std::thread observer([&] { EXPECT_FALSE(mutex.try_lock()); });
    observer.join();
    mutex.unlock();
    ASSERT_TRUE(mutex.try_lock());
    mutex.unlock();
}

// ---------------------------------------------------------------------------
// Wrapper behaviour: UniqueLock early release + CondVar handoff.

TEST(Annotations, UniqueLockReleasesEarly) {
    Mutex mutex;
    UniqueLock lock(mutex);
    lock.unlock();
    // Another thread can now take the mutex while `lock` is still in scope.
    std::thread taker([&] {
        LockGuard inner(mutex);
    });
    taker.join();
    SUCCEED();
}

TEST(Annotations, CondVarWaitLoopPassesValues) {
    Mutex mutex;
    CondVar cv;
    std::deque<int> items;
    constexpr int kCount = 100;

    std::thread consumer([&] {
        int expected = 0;
        while (expected < kCount) {
            UniqueLock lock(mutex);
            while (items.empty()) cv.wait(lock);
            EXPECT_EQ(items.front(), expected);
            items.pop_front();
            ++expected;
        }
    });
    std::thread producer([&] {
        for (int i = 0; i < kCount; ++i) {
            {
                LockGuard lock(mutex);
                items.push_back(i);
            }
            cv.notify_one();
        }
    });
    producer.join();
    consumer.join();
    EXPECT_TRUE(items.empty());
}

}  // namespace
}  // namespace tsched
