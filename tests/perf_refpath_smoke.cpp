/**
 * @file
 * perf_refpath_smoke — the `perf` ctest gate.
 *
 * Two teeth, both aimed at the reference hot path:
 *
 *  1. Throughput floor: a fixed traffic mix through a 2x2 machine
 *     must sustain a minimum references-per-second rate. The floor
 *     is deliberately generous (an order of magnitude below what a
 *     release build delivers on slow hardware) — it exists to catch
 *     catastrophic regressions like an accidental O(n) scan per
 *     reference or a debug-only code path leaking into the build,
 *     not to benchmark. scripts/bench_report.sh does the real
 *     measuring.
 *
 *  2. Engine dispatch: 32 fibers streaming references through a
 *     latency-mix memory double, so most references reschedule,
 *     must clear a generous rate — at least ten times below a
 *     release build — and 1024 fibers must not dispatch much more
 *     slowly per reference than 32, so an accidental O(threads)
 *     step per dispatch fails here rather than in a figure run.
 *
 * Plain binary (not gtest) so the timed loop has no framework
 * overhead in it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "check/traffic.hh"
#include "core/machine.hh"
#include "exec/engine.hh"
#include "sim/logging.hh"

namespace
{

using namespace scmp;

/** @return references per second of the fixed traffic mix. */
double
runStream()
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;

    Machine machine(config);
    check::TrafficParams traffic;
    traffic.seed = 7;
    traffic.steps = 400000;
    traffic.totalCpus = config.totalCpus();
    traffic.lineBytes = config.scc.lineBytes;

    auto begin = std::chrono::steady_clock::now();
    check::TrafficGen(traffic).run(machine);
    auto end = std::chrono::steady_clock::now();
    double seconds =
        std::chrono::duration<double>(end - begin).count();
    return (double)traffic.steps / seconds;
}

/** Hits, short stalls and long misses, mixed by address hash. */
class LatencyMixMemory : public MemorySystem
{
  public:
    Cycle
    access(CpuId cpu, RefType, Addr addr, Cycle now,
           std::uint32_t) override
    {
        static const Cycle mix[8] = {0, 1, 0, 2, 5, 13, 40, 120};
        std::uint64_t h = (addr >> 3) * 0x9e3779b97f4a7c15ull +
                          (std::uint64_t)cpu * 7919u + ++_seq;
        return now + mix[(h >> 59) & 7];
    }

  private:
    std::uint64_t _seq = 0;
};

/**
 * @return engine references per second for @p threads fibers, the
 *         best of three runs (a load spike only ever slows a run).
 */
double
runEngineDispatch(int threads, int refsPerThread)
{
    double best = 0.0;
    for (int run = 0; run < 3; ++run) {
        LatencyMixMemory memory;
        Arena arena(1 << 16);
        EngineOptions options;
        options.stackBytes = 64 * 1024;
        Engine engine(&memory, &arena, options);
        auto *data = arena.alloc<Shared<std::uint64_t>>(256);
        for (CpuId cpu = 0; cpu < threads; ++cpu) {
            engine.spawn(cpu, [data, cpu, refsPerThread](
                                  ThreadCtx &ctx) {
                for (int i = 0; i < refsPerThread; ++i)
                    data[(cpu * 7 + i) % 256].ld(ctx);
            });
        }
        auto begin = std::chrono::steady_clock::now();
        engine.run();
        auto end = std::chrono::steady_clock::now();
        double seconds =
            std::chrono::duration<double>(end - begin).count();
        best = std::max(best, (double)engine.totalRefs() / seconds);
    }
    return best;
}

} // namespace

int
main()
{
    using namespace scmp;
    setLogQuiet(true);

    // Generous: a release build on a 1-core container does tens of
    // millions of refs/sec through this loop.
    constexpr double floorRefsPerSec = 30000.0;

    double refsPerSec = runStream();

    std::printf("refpath smoke: %.0f refs/sec (floor %.0f)\n",
                refsPerSec, floorRefsPerSec);
    if (refsPerSec < floorRefsPerSec) {
        std::fprintf(stderr,
                     "FAIL: reference throughput below floor\n");
        return 1;
    }

    // A release build dispatches ~15-20M refs/sec here (32 fibers,
    // 4-core x86-64 host); the floor sits over ten times below.
    constexpr double dispatchFloorRefsPerSec = 1.0e6;
    double dispatch32 = runEngineDispatch(32, 8192);
    std::printf("refpath smoke: engine dispatch %.0f refs/sec "
                "(floor %.0f)\n",
                dispatch32, dispatchFloorRefsPerSec);
    if (dispatch32 < dispatchFloorRefsPerSec) {
        std::fprintf(stderr,
                     "FAIL: engine dispatch rate below floor\n");
        return 1;
    }

    // A per-dispatch O(threads) step is cheap at 32 fibers (it
    // costs a release build under half its rate), so the floor
    // alone cannot see it; scaling can. The heap dispatches 1024
    // fibers ~2.3x slower than 32, a scan over all threads ~19x.
    constexpr double maxScalingSlowdown = 8.0;
    double dispatch1024 = runEngineDispatch(1024, 256);
    double slowdown = dispatch32 / dispatch1024;
    std::printf("refpath smoke: 1024 fibers dispatch %.1fx slower "
                "than 32 (bound %.1fx)\n",
                slowdown, maxScalingSlowdown);
    if (slowdown > maxScalingSlowdown) {
        std::fprintf(stderr, "FAIL: engine dispatch cost grows with "
                             "the thread count\n");
        return 1;
    }
    return 0;
}
