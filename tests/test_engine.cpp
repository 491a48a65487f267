/**
 * @file
 * Tests for the direct-execution engine: timestamp-ordered
 * scheduling, instruction accounting, locks, barriers, the
 * self-scheduling counter, and a fixture that pins the exact
 * dispatch sequence of larger scenarios.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "exec/engine.hh"

namespace
{

using namespace scmp;

/** Memory that records access order and applies fixed latencies. */
class RecordingMemory : public MemorySystem
{
  public:
    struct Event
    {
        CpuId cpu;
        RefType type;
        Addr addr;
        Cycle when;
    };

    explicit RecordingMemory(Cycle latency = 0) : _latency(latency)
    {
    }

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t) override
    {
        events.push_back({cpu, type, addr, now});
        return now + _latency;
    }

    std::vector<Event> events;

  private:
    Cycle _latency;
};

TEST(Engine, InterleavesByTimestamp)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>(4);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 10; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();

    // With zero latency and equal costs, accesses must strictly
    // alternate between the two equal-speed threads.
    ASSERT_EQ(memory.events.size(), 20u);
    Cycle previous = 0;
    for (const auto &event : memory.events) {
        EXPECT_GE(event.when, previous);
        previous = event.when;
    }
}

TEST(Engine, WorkAdvancesClock)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>();

    engine.spawn(0, [data](ThreadCtx &ctx) {
        ctx.work(100);
        data->ld(ctx);
    });
    engine.run();

    ASSERT_EQ(memory.events.size(), 1u);
    // 100 work instructions + the load's own issue cycle.
    EXPECT_EQ(memory.events[0].when, 101u);
    EXPECT_EQ(engine.statsOf(0).instructions, 101u);
    EXPECT_EQ(engine.statsOf(0).loads, 1u);
}

TEST(Engine, SlowThreadIsPrioritized)
{
    // Thread 0 stalls 100 cycles on every access (latency), so
    // thread 1 should issue many references per thread-0 access.
    class SplitMemory : public MemorySystem
    {
      public:
        Cycle
        access(CpuId cpu, RefType, Addr, Cycle now,
               std::uint32_t) override
        {
            order.push_back(cpu);
            return cpu == 0 ? now + 100 : now;
        }
        std::vector<CpuId> order;
    };

    SplitMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *data = arena.alloc<Shared<int>>(2);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 50; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();
    // Thread 1 finishes long before thread 0.
    EXPECT_LT(engine.statsOf(1).finishTime,
              engine.statsOf(0).finishTime);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto run = [] {
        RecordingMemory memory(5);
        Arena arena(1 << 16);
        Engine engine(&memory, &arena, EngineOptions{});
        auto *data = arena.alloc<Shared<int>>(64);
        SimLock *lock = new SimLock(arena);
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
                for (int i = 0; i < 200; ++i) {
                    ctx.lock(*lock);
                    data[(i + cpu) % 64].rmw(
                        ctx, [](int v) { return v + 1; });
                    ctx.unlock(*lock);
                }
            });
        }
        engine.run();
        Cycle t = engine.finishTime();
        delete lock;
        return t;
    };
    EXPECT_EQ(run(), run());
}

TEST(Engine, LockProvidesMutualExclusion)
{
    RecordingMemory memory(20);
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *counter = arena.alloc<Shared<int>>();
    SimLock lock(arena);

    // Unprotected RMW with 4 threads would lose updates because
    // threads yield between the load and the store on misses;
    // the lock must serialize the critical sections.
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (int i = 0; i < 100; ++i) {
                ctx.lock(lock);
                counter->rmw(ctx, [](int v) { return v + 1; });
                ctx.unlock(lock);
            }
        });
    }
    engine.run();
    EXPECT_EQ(counter->raw(), 400);
}

TEST(Engine, BarrierSynchronizesAll)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 3);
    auto *data = arena.alloc<Shared<int>>();
    std::vector<Cycle> afterBarrier(3, 0);

    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
            // Unequal pre-barrier work.
            ctx.work((std::uint64_t)(cpu + 1) * 1000);
            data->ld(ctx);
            ctx.barrier(barrier);
            afterBarrier[(std::size_t)cpu] =
                engine.timeOf((ThreadId)cpu);
        });
    }
    engine.run();

    // Nobody proceeds before the slowest arrival (~3000 cycles).
    for (Cycle t : afterBarrier)
        EXPECT_GE(t, 3000u);
}

TEST(Engine, BarrierIsReusable)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 2);
    int rounds = 0;

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (int r = 0; r < 10; ++r) {
                ctx.work(10);
                ctx.barrier(barrier);
                if (ctx.tid() == 0)
                    ++rounds;
            }
        });
    }
    engine.run();
    EXPECT_EQ(rounds, 10);
}

TEST(Engine, TaskCounterDistributesAllTasks)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TaskCounter counter(arena, 100);
    std::vector<int> claimed(100, 0);

    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (;;) {
                std::int64_t task = counter.next(ctx);
                if (task < 0)
                    break;
                ++claimed[(std::size_t)task];
            }
        });
    }
    engine.run();
    for (int count : claimed)
        EXPECT_EQ(count, 1);
}

TEST(Engine, TaskCounterChunksCoverRange)
{
    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TaskCounter counter(arena, 37);
    std::vector<int> claimed(37, 0);

    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        engine.spawn(cpu, [&](ThreadCtx &ctx) {
            for (;;) {
                std::int64_t first = counter.nextChunk(ctx, 5);
                if (first < 0)
                    break;
                std::int64_t last =
                    std::min<std::int64_t>(first + 5, 37);
                for (std::int64_t t = first; t < last; ++t)
                    ++claimed[(std::size_t)t];
            }
        });
    }
    engine.run();
    for (int count : claimed)
        EXPECT_EQ(count, 1);
}

TEST(Engine, PolicyCanTimeSlice)
{
    /** Block a thread after its clock passes 500 cycles, wake the
     *  other — a miniature round-robin. */
    class TinyScheduler : public SchedulerPolicy
    {
      public:
        void
        onStart(Engine &engine) override
        {
            engine.blockThread(1);
        }
        void
        afterRef(Engine &engine, ThreadId tid) override
        {
            ThreadId other = 1 - tid;
            if (!switched && engine.timeOf(tid) > 500 &&
                engine.blocked(other)) {
                switched = true;
                engine.blockThread(tid);
                engine.wakeThread(other,
                                  engine.timeOf(tid) + 50);
            }
        }
        void
        onThreadDone(Engine &engine, ThreadId tid) override
        {
            // Release anyone still blocked.
            for (ThreadId t = 0; t < engine.numThreads(); ++t) {
                if (t != tid && !engine.done(t) &&
                    engine.blocked(t)) {
                    engine.wakeThread(t, engine.timeOf(tid));
                }
            }
        }
        bool switched = false;
    };

    RecordingMemory memory;
    Arena arena(1 << 16);
    Engine engine(&memory, &arena, EngineOptions{});
    TinyScheduler policy;
    engine.setPolicy(&policy);
    auto *data = arena.alloc<Shared<int>>(2);

    for (CpuId cpu = 0; cpu < 2; ++cpu) {
        engine.spawn(0, [data, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < 2000; ++i)
                data[cpu].ld(ctx);
        });
    }
    engine.run();
    EXPECT_TRUE(policy.switched);
    EXPECT_TRUE(engine.done(0));
    EXPECT_TRUE(engine.done(1));
}

/**
 * Memory double for the dispatch fixture. Every access, fence and
 * transactional event is folded, as (cpu, kind, addr, now), into an
 * FNV-1a digest, so two engines agree on the digest only if they
 * issue the same references at the same cycles in the same order.
 * Latencies are a deterministic mix of hits, short stalls and long
 * misses. With @p tm set it also models eager conflict detection:
 * any access that touches a line another open transaction read or
 * wrote (a write) or wrote (a read) dooms that transaction.
 */
class DigestMemory : public MemorySystem
{
  public:
    explicit DigestMemory(bool tm = false) : _tm(tm) {}

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t) override
    {
        record(cpu, (std::uint64_t)type, addr, now);
        ++accesses;
        if (_tm)
            trackConflicts(cpu, type, addr);
        static const Cycle mix[8] = {0, 1, 0, 2, 5, 13, 40, 120};
        std::uint64_t h = (addr >> 3) * 0x9e3779b97f4a7c15ull +
                          (std::uint64_t)cpu * 7919u + accesses;
        return now + mix[(h >> 59) & 7];
    }

    Cycle
    fence(CpuId cpu, Cycle now) override
    {
        record(cpu, 8, 0, now);
        ++fences;
        return now + (Cycle)(cpu % 3);
    }

    TmPolicy
    tmPolicy() const override
    {
        TmPolicy policy;
        policy.enabled = _tm;
        policy.maxAborts = 3;
        policy.backoffBase = 16;
        return policy;
    }

    Cycle
    tmBegin(CpuId cpu, Cycle now) override
    {
        record(cpu, 9, 0, now);
        Txn &txn = txnOf(cpu);
        txn = Txn{};
        txn.open = true;
        return now + 2;
    }

    bool
    tmPoll(CpuId cpu) const override
    {
        auto i = (std::size_t)cpu;
        return i < _txns.size() && _txns[i].doomed;
    }

    Cycle
    tmCommit(CpuId cpu, Cycle now, bool *committed) override
    {
        Txn &txn = txnOf(cpu);
        *committed = !txn.doomed;
        record(cpu, *committed ? 10 : 11, 0, now);
        if (*committed)
            txn = Txn{};
        return now + 3;
    }

    Cycle
    tmAbort(CpuId cpu, Cycle now) override
    {
        record(cpu, 12, 0, now);
        ++aborts;
        txnOf(cpu) = Txn{};
        return now + 7;
    }

    void
    tmFallback(CpuId cpu) override
    {
        record(cpu, 13, 0, 0);
    }

    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t accesses = 0;
    std::uint64_t fences = 0;
    std::uint64_t aborts = 0;
    std::uint64_t tmEvents = 0;

  private:
    struct Txn
    {
        bool open = false;
        bool doomed = false;
        std::set<Addr> reads;
        std::set<Addr> writes;
    };

    void
    record(CpuId cpu, std::uint64_t kind, Addr addr, Cycle now)
    {
        if (kind >= 9)
            ++tmEvents;
        for (std::uint64_t word :
             {(std::uint64_t)cpu, kind, (std::uint64_t)addr,
              (std::uint64_t)now}) {
            for (int byte = 0; byte < 8; ++byte) {
                digest ^= (word >> (8 * byte)) & 0xff;
                digest *= 0x100000001b3ull;
            }
        }
    }

    Txn &
    txnOf(CpuId cpu)
    {
        if ((std::size_t)cpu >= _txns.size())
            _txns.resize((std::size_t)cpu + 1);
        return _txns[(std::size_t)cpu];
    }

    void
    trackConflicts(CpuId cpu, RefType type, Addr addr)
    {
        Addr line = addr & ~(Addr)15;
        bool write = type == RefType::Write;
        for (std::size_t other = 0; other < _txns.size(); ++other) {
            Txn &txn = _txns[other];
            if ((CpuId)other == cpu || !txn.open)
                continue;
            if (txn.writes.count(line) ||
                (write && txn.reads.count(line)))
                txn.doomed = true;
        }
        Txn &own = txnOf(cpu);
        if (own.open)
            (write ? own.writes : own.reads).insert(line);
    }

    bool _tm;
    std::vector<Txn> _txns;
};

/** One fixture line: what the scenario issued, and when. */
std::string
dispatchLine(const char *name, const DigestMemory &memory,
             const Engine &engine)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s accesses=%llu fences=%llu tm=%llu aborts=%llu "
                  "instructions=%llu finish=%llu digest=%016llx",
                  name, (unsigned long long)memory.accesses,
                  (unsigned long long)memory.fences,
                  (unsigned long long)memory.tmEvents,
                  (unsigned long long)memory.aborts,
                  (unsigned long long)engine.totalInstructions(),
                  (unsigned long long)engine.finishTime(),
                  (unsigned long long)memory.digest);
    return buf;
}

/**
 * 37 threads (not a power of two, so the heap is never full) over a
 * latency mix, three locks, a 37-way barrier and a chunked task
 * counter, with voluntary yields and idle gaps sprinkled in.
 */
std::string
runMixScenario(const char *name, EngineOptions options)
{
    constexpr int threads = 37;
    constexpr int tasks = 600;
    DigestMemory memory;
    Arena arena(1 << 20);
    Engine engine(&memory, &arena, options);
    auto *data = arena.alloc<Shared<std::uint64_t>>(256);
    std::deque<SimLock> locks;
    for (int i = 0; i < 3; ++i)
        locks.emplace_back(arena);
    SimBarrier barrier(arena, threads);
    TaskCounter counter(arena, tasks);
    std::uint64_t locked = 0;

    for (CpuId cpu = 0; cpu < threads; ++cpu) {
        engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
            for (int phase = 0; phase < 3; ++phase) {
                for (;;) {
                    std::int64_t first =
                        counter.nextChunk(ctx, 1 + cpu % 3);
                    if (first < 0)
                        break;
                    std::int64_t last = std::min<std::int64_t>(
                        first + 1 + cpu % 3, tasks);
                    for (std::int64_t task = first; task < last;
                         ++task) {
                        ctx.work((std::uint64_t)(task % 7));
                        data[(task * 13 + phase) % 256].ld(ctx);
                        if (task % 5 == 0) {
                            SimLock &l = locks[(std::size_t)task % 3];
                            ctx.lock(l);
                            data[task % 3].rmw(ctx, [](auto v) {
                                return v + 1;
                            });
                            ++locked;
                            ctx.unlock(l);
                        }
                    }
                }
                if (cpu % 4 == 0)
                    ctx.yield();
                if (cpu % 6 == 1)
                    ctx.idleUntil(ctx.now() + 30 + (Cycle)cpu);
                data[128 + cpu].st(ctx, (std::uint64_t)phase);
                ctx.barrier(barrier);
                if (cpu == 0)
                    counter.reset(ctx, tasks);
                ctx.barrier(barrier);
            }
        });
    }
    engine.run();
    EXPECT_EQ(locked, 3u * tasks / 5);
    EXPECT_EQ(data[0].raw() + data[1].raw() + data[2].raw(), locked);
    return dispatchLine(name, memory, engine);
}

/**
 * A round-robin time-slicer: 10 processes on 3 processors. On
 * quantum expiry it blocks the running process, then wakes the
 * next queued one and moves its clock with setTime (leaving a stale
 * heap entry behind). Now and then it also nudges the running
 * thread's own clock, and disturbs a peer that is Ready but not
 * running.
 */
class SlicingPolicy : public SchedulerPolicy
{
  public:
    static constexpr int cpus = 3;
    static constexpr Cycle quantum = 300;

    void
    onStart(Engine &engine) override
    {
        _sliceStart.assign(cpus, 0);
        for (ThreadId tid = 0; tid < engine.numThreads(); ++tid) {
            if (tid < cpus) {
                engine.bindCpu(tid, tid);
            } else {
                engine.blockThread(tid);
                _queue.push_back(tid);
            }
        }
    }

    void
    afterRef(Engine &engine, ThreadId tid) override
    {
        reviveIdleCpu(engine, engine.timeOf(tid));
        if (++_refs % 53 == 0)
            engine.setTime(tid, engine.timeOf(tid) + 3);
        if (_refs % 11 == 0)
            disturbPeer(engine, tid);
        Cycle now = engine.timeOf(tid);
        CpuId cpu = engine.cpuOf(tid);
        if (now - _sliceStart[(std::size_t)cpu] < quantum ||
            _queue.empty())
            return;
        engine.blockThread(tid);
        _queue.push_back(tid);
        handOver(engine, cpu, now);
    }

    void
    onThreadDone(Engine &engine, ThreadId tid) override
    {
        handOver(engine, engine.cpuOf(tid), engine.timeOf(tid));
        reviveIdleCpu(engine, engine.timeOf(tid));
    }

  private:
    /**
     * Mutate a Ready thread other than the running one — delay it,
     * re-wake it later, or preempt it — so its heap entry goes
     * stale while it is not running.
     */
    void
    disturbPeer(Engine &engine, ThreadId tid)
    {
        auto peer = (ThreadId)((_refs / 11) % engine.numThreads());
        if (peer == tid || engine.done(peer) || engine.blocked(peer))
            return;
        switch ((_refs / 11) % 3) {
          case 0:
            engine.setTime(peer, engine.timeOf(peer) + 25);
            break;
          case 1:
            engine.wakeThread(peer, engine.timeOf(peer) + 11);
            break;
          default:
            // Preempt; the freed processor is handed over at the
            // next reference, so no wake follows the block here.
            if (_idleCpu >= 0)
                break;
            engine.blockThread(peer);
            _queue.push_back(peer);
            _idleCpu = engine.cpuOf(peer);
            break;
        }
    }

    void
    reviveIdleCpu(Engine &engine, Cycle when)
    {
        CpuId cpu = _idleCpu;
        _idleCpu = -1;
        if (cpu >= 0)
            handOver(engine, cpu, when);
    }

    void
    handOver(Engine &engine, CpuId cpu, Cycle when)
    {
        while (!_queue.empty()) {
            ThreadId next = _queue.front();
            _queue.pop_front();
            if (engine.done(next))
                continue;
            engine.bindCpu(next, cpu);
            engine.wakeThread(next, when);
            engine.setTime(next,
                           std::max(engine.timeOf(next), when) + 40);
            _sliceStart[(std::size_t)cpu] = engine.timeOf(next);
            return;
        }
    }

    std::vector<Cycle> _sliceStart;
    std::deque<ThreadId> _queue;
    std::uint64_t _refs = 0;
    CpuId _idleCpu = -1;
};

std::string
runSlicingScenario()
{
    constexpr int processes = 10;
    DigestMemory memory;
    Arena arena(1 << 20);
    Engine engine(&memory, &arena, EngineOptions{});
    SlicingPolicy policy;
    engine.setPolicy(&policy);
    auto *data = arena.alloc<Shared<std::uint64_t>>(64 * processes);

    for (int p = 0; p < processes; ++p) {
        engine.spawn(0, [data, p](ThreadCtx &ctx) {
            for (int i = 0; i < 400 + 37 * p; ++i) {
                ctx.work((std::uint64_t)(i % 5));
                auto &word = data[64 * p + i % 64];
                if (i % 3 == 0)
                    word.st(ctx, (std::uint64_t)i);
                else
                    word.ld(ctx);
                if (i % 9 == 0)
                    data[(i * 7) % (64 * processes)].ld(ctx);
            }
        });
    }
    engine.run();
    for (ThreadId tid = 0; tid < processes; ++tid)
        EXPECT_TRUE(engine.done(tid));
    return dispatchLine("timeslice", memory, engine);
}

/**
 * Contended transactions: aborts are inflicted while the victim is
 * descheduled and unwind its fiber once it is switched back in;
 * repeat offenders fall back to the lock.
 */
std::string
runTmScenario()
{
    constexpr int threads = 12;
    constexpr int txns = 40;
    DigestMemory memory(true);
    Arena arena(1 << 20);
    Engine engine(&memory, &arena, EngineOptions{});
    auto *counters = arena.alloc<Shared<std::uint64_t>>(8);
    SimLock fallback(arena);

    for (CpuId cpu = 0; cpu < threads; ++cpu) {
        engine.spawn(cpu, [&, cpu](ThreadCtx &ctx) {
            for (int i = 0; i < txns; ++i) {
                std::size_t k = (std::size_t)(cpu * 3 + i) % 8;
                ctx.transaction(fallback, [&](ThreadCtx &c) {
                    std::uint64_t v = counters[k].ldTx(c);
                    c.work(3);
                    counters[(k + 1) % 8].ldTx(c);
                    counters[k].stTx(c, v + 1);
                });
                ctx.work((std::uint64_t)(5 + cpu));
            }
        });
    }
    engine.run();
    std::uint64_t total = 0;
    for (int k = 0; k < 8; ++k)
        total += counters[k].raw();
    EXPECT_EQ(total, (std::uint64_t)threads * txns);
    EXPECT_GT(memory.aborts, 0u);
    return dispatchLine("tm", memory, engine);
}

TEST(Engine, DispatchSequenceMatchesFixture)
{
    EngineOptions slack;
    slack.slackWindow = 12;
    slack.yieldLatency = 2;
    std::vector<std::string> actual = {
        runMixScenario("mix37", EngineOptions{}),
        runMixScenario("mix37-slack", slack),
        runSlicingScenario(),
        runTmScenario(),
    };

    std::ifstream in(std::string(SCMP_GOLDEN_DIR) +
                     "/engine_dispatch.txt");
    ASSERT_TRUE(in.good()) << "missing engine_dispatch.txt fixture";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(expected[i], actual[i]);
}

TEST(EngineDeath, DeadlockIsDetected)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    SimBarrier barrier(arena, 2);  // second arrival never comes

    engine.spawn(0,
                 [&](ThreadCtx &ctx) { ctx.barrier(barrier); });
    EXPECT_DEATH(engine.run(), "deadlock");
}

TEST(EngineDeath, UnlockWithoutOwnership)
{
    RecordingMemory memory;
    Arena arena(1 << 12);
    Engine engine(&memory, &arena, EngineOptions{});
    SimLock lock(arena);
    engine.spawn(0, [&](ThreadCtx &ctx) { ctx.unlock(lock); });
    EXPECT_DEATH(engine.run(), "releasing a lock");
}

} // namespace
