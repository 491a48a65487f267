/**
 * @file
 * Microbenchmarks of the SCC reference path, one per layer: the
 * hit path (one tag probe per reference, bank and fill state read
 * from the line), the MRU tag probe, Scalar increments, and a
 * small engine+machine stream that exercises all of them together.
 * Companion to micro_primitives (which benches the primitives the
 * reference path is built from); scripts/bench_report.sh records the
 * end-to-end figure runtimes.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/machine.hh"
#include "exec/arena.hh"
#include "exec/engine.hh"
#include "mem/bus.hh"
#include "mem/scc.hh"
#include "mem/tag_array.hh"
#include "sim/stats.hh"

namespace
{

using namespace scmp;

/** A warmed SCC hammered on one resident line. */
void
BM_SccSameLineHit(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    scc.access(0, RefType::Read, 0x1000, 0);
    Cycle now = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, 0x1000, now));
        now += 2;
    }
}
BENCHMARK(BM_SccSameLineHit);

/** Ping-pong between a few hot lines (an object's fields, a stack
 *  slot, a lock word) in different sets. */
void
BM_SccAlternatingLineHits(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    const Addr lines[3] = {0x1000, 0x2000, 0x3000};
    Cycle now = 0;
    for (Addr a : lines)
        now = scc.access(0, RefType::Read, a, now) + 10;
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Read, lines[i], now));
        i = (i + 1) % 3;
        now += 2;
    }
}
BENCHMARK(BM_SccAlternatingLineHits);

/** Repeat writes to a Modified line. */
void
BM_SccWriteModifiedHit(benchmark::State &state)
{
    stats::Group root("bench");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 2, SccParams{}, &bus);
    bus.attach(&scc);
    scc.access(0, RefType::Write, 0x1000, 0);
    Cycle now = 200;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scc.access(0, RefType::Write, 0x1000, now));
        now += 2;
    }
}
BENCHMARK(BM_SccWriteModifiedHit);

/** Repeat probe of one line — the MRU hint's target pattern. */
void
BM_TagProbeMruHit(benchmark::State &state)
{
    TagArray tags(64 << 10, 16, 4);
    for (Addr addr = 0; addr < (64 << 10); addr += 16)
        tags.fill(tags.victim(addr), addr, CoherenceState::Shared);
    for (auto _ : state)
        benchmark::DoNotOptimize(tags.probe(0x1230));
}
BENCHMARK(BM_TagProbeMruHit);

/** A statistics increment — pure integer add since the overhaul. */
void
BM_ScalarIncrement(benchmark::State &state)
{
    stats::Group root("bench");
    stats::Scalar counter(&root, "counter", "bench counter");
    for (auto _ : state) {
        ++counter;
        counter += 3;
        // Keep the counter in memory each iteration; otherwise the
        // loop folds into one add and times nothing.
        benchmark::DoNotOptimize(counter);
    }
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ScalarIncrement);

/** Everything together: fibers dispatching through the engine into
 *  a real machine, mostly same-line hits. Only engine.run() is
 *  timed; building and tearing down the machine is not. */
void
BM_MachineRefStream(benchmark::State &state)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.arenaBytes = 1 << 20;
    for (auto _ : state) {
        state.PauseTiming();
        auto machine = std::make_unique<Machine>(config);
        auto arena = std::make_unique<Arena>(1 << 16);
        auto engine = std::make_unique<Engine>(
            machine.get(), arena.get(), EngineOptions{});
        auto *data = arena->alloc<Shared<std::uint64_t>>(64);
        for (CpuId cpu = 0; cpu < 4; ++cpu) {
            engine->spawn(cpu, [data, cpu](ThreadCtx &ctx) {
                for (int i = 0; i < 4096; ++i)
                    data[(cpu * 8 + i % 8) % 64].ld(ctx);
            });
        }
        state.ResumeTiming();
        engine->run();
        state.PauseTiming();
        benchmark::DoNotOptimize(engine->totalRefs());
        engine.reset();
        arena.reset();
        machine.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() *
                            4 * 4096);
}
BENCHMARK(BM_MachineRefStream);

} // namespace

BENCHMARK_MAIN();
