/**
 * @file
 * Tests for the stackful fiber substrate. Built twice: against the
 * platform's default switch and, as test_fiber_ucontext, against
 * the portable ucontext fallback.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/fiber.hh"

namespace
{

using namespace scmp;

TEST(Fiber, RunsToCompletion)
{
    int value = 0;
    Fiber fiber([&value] { value = 42; });
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(value, 42);
}

TEST(Fiber, YieldRoundTrips)
{
    std::vector<int> trace;
    Fiber fiber([&trace] {
        trace.push_back(1);
        Fiber::yieldToCaller();
        trace.push_back(3);
        Fiber::yieldToCaller();
        trace.push_back(5);
    });
    fiber.resume();
    trace.push_back(2);
    fiber.resume();
    trace.push_back(4);
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber fiber([&seen] { seen = Fiber::current(); });
    fiber.resume();
    EXPECT_EQ(seen, &fiber);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyFibersInterleave)
{
    constexpr int numFibers = 16;
    constexpr int rounds = 100;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> counts(numFibers, 0);
    for (int i = 0; i < numFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&counts, i] {
            for (int r = 0; r < rounds; ++r) {
                ++counts[(std::size_t)i];
                Fiber::yieldToCaller();
            }
        }));
    }
    bool live = true;
    while (live) {
        live = false;
        for (auto &fiber : fibers) {
            if (!fiber->finished()) {
                fiber->resume();
                live = live || !fiber->finished();
            }
        }
    }
    for (int count : counts)
        EXPECT_EQ(count, rounds);
}

TEST(Fiber, DeepRecursionOnFiberStack)
{
    // Exercise a few hundred KB of fiber stack, like an octree
    // traversal would.
    struct Recurse
    {
        static int
        down(int n)
        {
            char pad[512];
            pad[0] = (char)n;
            if (n == 0)
                return pad[0];
            return down(n - 1) + (pad[0] ? 1 : 1);
        }
    };
    int result = -1;
    Fiber fiber([&result] { result = Recurse::down(400); },
                512 * 1024);
    fiber.resume();
    EXPECT_EQ(result, 400);
}

TEST(Fiber, SwitchThroughputIsSane)
{
    // The whole engine depends on cheap switches; make sure a
    // round trip is well under a microsecond-scale budget by
    // doing a million of them in this test without timing out.
    std::uint64_t count = 0;
    Fiber fiber([&count] {
        for (;;) {
            ++count;
            Fiber::yieldToCaller();
        }
    });
    for (int i = 0; i < 1000000; ++i)
        fiber.resume();
    EXPECT_EQ(count, 1000000u);
}

TEST(Fiber, SwitchToRingHandsOff)
{
    // Control travels around a ring of fibers by direct hand-off;
    // only the last hop yields, and it lands back in the resume()
    // that started the chain.
    constexpr int numFibers = 5;
    constexpr int rounds = 3;
    std::vector<std::unique_ptr<Fiber>> ring;
    std::vector<int> hops;
    int misses = 0;
    for (int i = 0; i < numFibers; ++i) {
        ring.push_back(std::make_unique<Fiber>([&, i] {
            for (int r = 0; r < rounds; ++r) {
                hops.push_back(i);
                if (Fiber::current() != ring[(std::size_t)i].get())
                    ++misses;
                if (i == numFibers - 1 && r == rounds - 1)
                    Fiber::yieldToCaller();
                else
                    Fiber::switchTo(
                        *ring[(std::size_t)(i + 1) % numFibers]);
            }
        }));
    }
    ring[0]->resume();
    EXPECT_EQ(Fiber::current(), nullptr);
    EXPECT_EQ(misses, 0);
    ASSERT_EQ(hops.size(), (std::size_t)(numFibers * rounds));
    for (std::size_t h = 0; h < hops.size(); ++h)
        EXPECT_EQ(hops[h], (int)h % numFibers);

    // A fiber suspended inside switchTo() resumes from there.
    ring[0]->resume();
    EXPECT_TRUE(ring[0]->finished());
    EXPECT_EQ(hops.size(), (std::size_t)(numFibers * rounds));
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, SwitchToStartsUnstartedFiber)
{
    std::vector<int> trace;
    Fiber *seen = nullptr;
    std::unique_ptr<Fiber> second;
    Fiber first([&] {
        trace.push_back(1);
        Fiber::switchTo(*second);
        trace.push_back(4);
    });
    second = std::make_unique<Fiber>([&] {
        seen = Fiber::current();
        trace.push_back(2);
        // Inherited resumer: this returns into first.resume().
        Fiber::yieldToCaller();
        trace.push_back(6);
    });
    first.resume();
    trace.push_back(3);
    EXPECT_EQ(seen, second.get());
    EXPECT_FALSE(first.finished());
    first.resume();
    trace.push_back(5);
    EXPECT_TRUE(first.finished());
    second->resume();
    EXPECT_TRUE(second->finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(FiberDeath, ResumingFinishedFiberPanics)
{
    Fiber fiber([] {});
    fiber.resume();
    EXPECT_DEATH(fiber.resume(), "finished fiber");
}

TEST(FiberDeath, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yieldToCaller(), "outside any fiber");
}

TEST(FiberDeath, SwitchToSelf)
{
    Fiber fiber([] { Fiber::switchTo(*Fiber::current()); });
    EXPECT_DEATH(fiber.resume(), "switching to itself");
}

TEST(FiberDeath, SwitchToFinished)
{
    Fiber done([] {});
    done.resume();
    Fiber fiber([&done] { Fiber::switchTo(done); });
    EXPECT_DEATH(fiber.resume(), "finished fiber");
}

TEST(FiberDeath, SwitchToOutsideFiber)
{
    Fiber fiber([] {});
    EXPECT_DEATH(Fiber::switchTo(fiber), "outside any fiber");
}

} // namespace
