/**
 * @file
 * Host-time benchmark driver for the scmp simulator.
 *
 * Runs one named workload through the public surface the figure
 * benches use (DesignSpace::sweep with the process-wide sweep
 * options, MachineConfig/Machine/Arena/Engine/MemorySystem, the
 * SPLASH workload params, makeInterconnect, SharedClusterCache,
 * Snooper, StoreBuffer and the ResultStore JSON-lines records) and
 * prints one JSON object per line. perfbench/run.py turns the lines
 * into metrics and checks the simulated results.
 *
 *   --mode=run    Repeat the workload's sweep until --seconds have
 *                 passed (at least three times), or exactly
 *                 --repeats times. One "repeat" line per sweep with
 *                 its host wall time and the simulated result of
 *                 every point and the peak resident set size during
 *                 the sweep, each followed by set-up trials; then one
 *                 "setup" line with all the trials.
 *   --mode=trace  One untraced sweep (sweep.* metrics and the points
 *                 the correctness gate checks), then the workload's
 *                 traced points, serially: each runs once untraced
 *                 and once with its MemorySystem call stream
 *                 recorded and replayed layer by layer. One "layers"
 *                 line.
 *
 * Other options: --workload=NAME --seed=N --out=DIR (scratch files)
 * --small (tiny inputs, for the benchmark's own tests).
 *
 * How the traced run splits host time. The engine talks to the
 * machine only through MemorySystem, so a wrapper between the two
 * sees every call and its returned cycle. The calls are buffered in
 * a fixed chunk of kChunkCalls records; each time the chunk fills it
 * is replayed, timer-free per call, into fresh copies of the layers
 * below the engine and then discarded. Memory therefore stays at one
 * chunk (32 MiB) however long the run: a Cholesky point makes 46.7 M
 * references, 1.5 GB as raw records. Replay time is excluded from
 * the traced Engine::run. Replays:
 *   - a fresh Machine with the live config (core.machine_s);
 *   - a fresh Machine with the coherence checker attached
 *     (check.self_s is the checked minus the unchecked replay);
 *   - standalone SharedClusterCaches (plus StoreBuffers under weak
 *     ordering) over a forwarding Interconnect shim, with every
 *     SCC wrapped in a timing Snooper shim on the real fabric.
 *     Only the shim calls and fences are timed; the calibrated
 *     timer cost (trace.timer_ns) is subtracted from each.
 * Every replayed call must return the recorded cycle; each one that
 * does not counts in core.replay_mismatches.
 */

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "core/design_space.hh"
#include "core/machine.hh"
#include "core/parallel_run.hh"
#include "exec/arena.hh"
#include "exec/engine.hh"
#include "mem/scc.hh"
#include "mem/store_buffer.hh"
#include "net/interconnect.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"

#ifndef SCMP_BENCH_BUILD_TYPE
#define SCMP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SCMP_BENCH_LTO
#define SCMP_BENCH_LTO 0
#endif

namespace
{

using namespace scmp;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Command-line options (all --key=value). */
struct Options
{
    std::string mode = "run";
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int repeats = 0;      //!< exact repeat count; 0 = by --seconds
    std::string out = ".";
    bool small = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        fatal_if(arg.rfind("--", 0) != 0, "bad argument '", arg, "'");
        std::string key = arg.substr(2, eq == std::string::npos
                                            ? std::string::npos
                                            : eq - 2);
        std::string value =
            eq == std::string::npos ? "1" : arg.substr(eq + 1);
        if (key == "mode")
            o.mode = value;
        else if (key == "workload")
            o.workload = value;
        else if (key == "seed")
            o.seed = std::stoull(value);
        else if (key == "seconds")
            o.seconds = std::stod(value);
        else if (key == "repeats")
            o.repeats = std::stoi(value);
        else if (key == "out")
            o.out = value;
        else if (key == "small")
            o.small = value != "0";
        else
            fatal("unknown option --", key);
    }
    fatal_if(o.mode != "run" && o.mode != "trace", "bad --mode");
    return o;
}

/** One design point of a workload. */
struct GridPoint
{
    int procs;
    std::uint64_t sccBytes;
};

/** A named benchmark workload (see BENCHMARK.json for the why). */
struct Workload
{
    std::string name;
    MachineConfig base;
    std::vector<int> procs;
    std::vector<std::uint64_t> sizes;
    int jobs = 1;
    /** The seed the workload's input is generated from. */
    std::uint64_t inputSeed = 0;
    DesignSpace::WorkloadFactory factory;
    /** Points the traced run replays layer by layer. */
    std::vector<GridPoint> traced;
};

constexpr std::uint64_t KB = 1024;

Workload
makeWorkload(const Options &o)
{
    Workload w;
    w.name = o.workload;
    const std::uint64_t seed = o.seed;
    w.inputSeed = seed;
    const std::vector<std::uint64_t> paperSizes =
        DesignSpace::paperSccSizes();
    const std::vector<int> paperProcs =
        DesignSpace::paperClusterSizes();

    if (w.name == "barnes-grid") {
        splash::BarnesParams p;
        p.nbodies = o.small ? 128 : 1024;
        p.steps = o.small ? 1 : 3;
        p.seed = seed;
        w.factory = [p] { return std::make_unique<splash::Barnes>(p); };
        w.procs = o.small ? std::vector<int>{2} : paperProcs;
        w.sizes = o.small ? std::vector<std::uint64_t>{16 * KB}
                          : paperSizes;
        w.jobs = 2;
        w.traced = o.small ? std::vector<GridPoint>{{2, 16 * KB}}
                           : std::vector<GridPoint>{{1, 16 * KB},
                                                    {8, 16 * KB},
                                                    {1, 256 * KB},
                                                    {8, 256 * KB}};
    } else if (w.name == "cholesky-point") {
        // The matrix ignores --seed: its random struts set the fill,
        // and between seeds the elimination work moves by +-7%, more
        // than the host-time changes this workload should resolve.
        // It is fig4's BCSSTK14-class input (the default seed).
        splash::CholeskyParams p;
        if (o.small) {
            p.gridRows = 12;
            p.gridCols = 12;
        } else {
            p.gridRows = 42;  // n = 1806
            p.gridCols = 43;
        }
        w.inputSeed = p.seed;
        w.factory = [p] {
            return std::make_unique<splash::Cholesky>(p);
        };
        w.procs = {8};
        w.sizes = {64 * KB};
        w.jobs = 1;
        w.traced = {{8, 64 * KB}};
    } else if (w.name == "mp3d-weak-split") {
        splash::Mp3dParams p;
        p.nparticles = o.small ? 500 : 10000;
        p.steps = o.small ? 1 : 5;
        p.seed = seed;
        w.factory = [p] { return std::make_unique<splash::Mp3d>(p); };
        w.base.consistency.model = ConsistencyModel::Weak;
        w.base.consistency.storeBufferEntries = 8;
        w.base.net.topology = NetTopology::Split;
        w.base.bus.transferOccupancy = 8;
        w.procs = o.small ? std::vector<int>{2} : paperProcs;
        w.sizes = o.small ? std::vector<std::uint64_t>{16 * KB}
                          : paperSizes;
        w.jobs = 2;
        w.traced = o.small ? std::vector<GridPoint>{{2, 16 * KB}}
                           : std::vector<GridPoint>{{1, 16 * KB},
                                                    {8, 16 * KB},
                                                    {1, 256 * KB},
                                                    {8, 256 * KB}};
    } else {
        fatal("unknown workload '", w.name,
              "' (barnes-grid, cholesky-point, mp3d-weak-split)");
    }
    return w;
}

MachineConfig
pointConfig(const Workload &w, GridPoint p)
{
    MachineConfig cfg = w.base;
    cfg.cpusPerCluster = p.procs;
    cfg.scc.sizeBytes = p.sccBytes;
    return cfg;
}

/**
 * Set-up trials after each sweep: at least kSetupTrials, more until
 * kSetupSeconds have passed (a Cholesky set-up takes 12 ms, a
 * Barnes grid's 150 ms). setup_s is the median over all of a run's
 * trials; spreading them over the run, like the sweeps, keeps one
 * slow spell of the host from setting it.
 */
constexpr int kSetupTrials = 3;
constexpr double kSetupSeconds = 0.4;

/**
 * Host seconds the workload's points spend before their first
 * simulated reference, summed over the points: runParallel's steps
 * up to Engine::run (Machine, Arena and Engine construction,
 * workload setup(), one fiber per processor), each point serially
 * and alone so that the sweep's scheduling does not enter it.
 */
double
setupTrial(const Workload &w)
{
    double total = 0;
    for (int procs : w.procs) {
        for (std::uint64_t size : w.sizes) {
            MachineConfig cfg = pointConfig(w, {procs, size});
            auto start = Clock::now();
            Machine machine(cfg);
            Arena arena(cfg.arenaBytes);
            Engine engine(&machine, &arena, cfg.engine);
            auto workload = w.factory();
            Topology topo{cfg.numClusters, cfg.cpusPerCluster};
            workload->setup(arena, topo);
            ParallelWorkload *body = workload.get();
            for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
                engine.spawn(cpu, [body, cpu, topo](ThreadCtx &ctx) {
                    body->threadMain(ctx, cpu, topo);
                });
            }
            total += secondsBetween(start, Clock::now());
        }
    }
    return total;
}

void
printPointJson(std::ostream &os, int procs, std::uint64_t sccBytes,
               const RunResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"procs\":%d,\"scc\":%llu,\"cycles\":%llu,"
                  "\"references\":%llu,\"instructions\":%llu,"
                  "\"readMissRate\":%.17g,\"missRate\":%.17g,"
                  "\"busTransactions\":%llu,\"invalidations\":%llu,"
                  "\"verified\":%s}",
                  procs, (unsigned long long)sccBytes,
                  (unsigned long long)r.cycles,
                  (unsigned long long)r.references,
                  (unsigned long long)r.instructions, r.readMissRate,
                  r.missRate, (unsigned long long)r.busTransactions,
                  (unsigned long long)r.invalidations,
                  r.verified ? "true" : "false");
    os << buf;
}

/** Result of one DesignSpace::sweep of the workload. */
struct SweepRun
{
    double wallS = 0;
    std::vector<double> pointS;  //!< per-point wallMs from the store
    DesignGrid grid;
};

SweepRun
runSweep(const Workload &w, const Options &o)
{
    sweep::SweepOptions sweepOptions;
    sweepOptions.jobs = w.jobs;
    sweepOptions.resultsPath = o.out + "/" + w.name + "." +
                               std::to_string(getpid()) + ".results.jsonl";
    sweepOptions.scale = "perfbench";
    std::remove(sweepOptions.resultsPath.c_str());
    sweep::setDefaultSweepOptions(sweepOptions);

    SweepRun run;
    auto start = Clock::now();
    run.grid = DesignSpace::sweep(w.factory, w.base, w.sizes, w.procs);
    run.wallS = secondsBetween(start, Clock::now());

    std::ifstream store(sweepOptions.resultsPath);
    std::string line;
    while (std::getline(store, line)) {
        sweep::StoredPoint point;
        std::string error;
        fatal_if(!sweep::ResultStore::deserialize(line, point, &error),
                 "bad result store line: ", error);
        run.pointS.push_back(point.wallMs / 1000.0);
    }
    fatal_if(run.pointS.size() != run.grid.size(),
             "result store holds ", run.pointS.size(), " of ",
             run.grid.size(), " points");
    std::remove(sweepOptions.resultsPath.c_str());
    return run;
}

void
printPoints(std::ostream &os, const DesignGrid &grid)
{
    os << "[";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (i)
            os << ",";
        printPointJson(os, grid[i].cpusPerCluster, grid[i].sccBytes,
                       grid[i].result);
    }
    os << "]";
}

double
sum(const std::vector<double> &v)
{
    double total = 0;
    for (double x : v)
        total += x;
    return total;
}

std::uint64_t
totalRefs(const DesignGrid &grid)
{
    std::uint64_t refs = 0;
    for (const DesignPoint &p : grid)
        refs += p.result.references;
    return refs;
}

/** Restart the kernel's peak resident-set count for this process. */
void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    fatal_if(!clear, "cannot reset the peak RSS (/proc/self/clear_refs)");
}

/** Peak resident set since the last reset, in KiB (VmHWM). */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    }
    fatal("no VmHWM in /proc/self/status");
}

/** Sweeps per run at the least, whatever --seconds says. */
constexpr int kMinRepeats = 3;

int
modeRun(const Workload &w, const Options &o)
{
    std::vector<double> walls;
    std::vector<double> setups;
    auto start = Clock::now();
    for (int rep = 0;; ++rep) {
        if (o.repeats > 0) {
            if (rep >= o.repeats)
                break;
        } else if (rep >= kMinRepeats) {
            double elapsed = secondsBetween(start, Clock::now());
            if (elapsed + median(walls) + kSetupSeconds > o.seconds)
                break;
        }
        resetPeakRss();
        SweepRun run = runSweep(w, o);
        walls.push_back(run.wallS);
        std::ostringstream os;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"kind\":\"repeat\",\"repeat\":%d,"
                      "\"wall_s\":%.9g,\"peak_rss_kb\":%ld,",
                      rep, run.wallS, peakRssKb());
        os << buf << "\"refs\":" << totalRefs(run.grid)
           << ",\"points\":";
        printPoints(os, run.grid);
        os << "}\n";
        std::cout << os.str() << std::flush;

        auto setupStart = Clock::now();
        for (int i = 0;
             i < kSetupTrials ||
             secondsBetween(setupStart, Clock::now()) < kSetupSeconds;
             ++i)
            setups.push_back(setupTrial(w));
#ifdef __GLIBC__
        // Hand the trials' freed heap back to the kernel, so that the
        // next sweep's peak resident set does not include it.
        malloc_trim(0);
#endif
    }
    std::ostringstream os;
    os << "{\"kind\":\"setup\",\"setup_s\":[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", setups[i]);
        os << buf;
    }
    os << "]}\n";
    std::cout << os.str() << std::flush;
    return 0;
}

/// @name Layer-by-layer replay of a recorded MemorySystem stream.
/// @{

/** One recorded MemorySystem call and the cycle it returned. */
struct CallRecord
{
    Addr addr;
    Cycle now;
    Cycle ret;
    std::uint32_t instrGap;
    std::uint16_t cpu;
    std::uint8_t type;   //!< RefType
    std::uint8_t fence;  //!< 1 = fence(), 0 = access()
};

constexpr std::size_t kChunkCalls = 1 << 20;

/** Host-time accumulators of the timed shims (nanoseconds). */
struct ShimTimes
{
    double transactionNs = 0;
    double snoopNs = 0;
    double fenceNs = 0;
    std::uint64_t transactions = 0;
    std::uint64_t snoops = 0;
    std::uint64_t fences = 0;
};

/** Times one SCC's snoops on the real fabric. */
class SnoopTap : public Snooper
{
  public:
    /** @param times Where to add the time; null forwards untimed. */
    SnoopTap(SharedClusterCache *scc, ShimTimes *times)
        : _scc(scc), _times(times)
    {
    }

    SnoopResult
    snoop(BusOp op, Addr lineAddr, Cycle when) override
    {
        if (!_times)
            return _scc->snoop(op, lineAddr, when);
        auto t0 = Clock::now();
        SnoopResult r = _scc->snoop(op, lineAddr, when);
        _times->snoopNs += nsBetween(t0, Clock::now());
        ++_times->snoops;
        return r;
    }

    ClusterId snooperId() const override { return _scc->snooperId(); }

  private:
    SharedClusterCache *_scc;
    ShimTimes *_times;
};

/**
 * Forwards the SCCs' transactions to the real fabric, timed unless
 * @p times is null.
 */
class NetTap : public Interconnect
{
  public:
    NetTap(stats::Group *parent, const MachineConfig &cfg,
           Interconnect *real, ShimTimes *times)
        : Interconnect(parent, cfg.bus, cfg.dram), _real(real),
          _times(times)
    {
    }

    Cycle
    transaction(ClusterId source, BusOp op, Addr lineAddr, Cycle now,
                bool *remoteCopyOut) override
    {
        if (!_times)
            return _real->transaction(source, op, lineAddr, now,
                                      remoteCopyOut);
        auto t0 = Clock::now();
        Cycle r =
            _real->transaction(source, op, lineAddr, now, remoteCopyOut);
        _times->transactionNs += nsBetween(t0, Clock::now());
        ++_times->transactions;
        return r;
    }

    const char *topologyName() const override
    {
        return _real->topologyName();
    }
    double
    utilization(Cycle now) const override
    {
        return _real->utilization(now);
    }
    Cycle
    channelBusyCycles(int channel) const override
    {
        return _real->channelBusyCycles(channel);
    }

  private:
    Interconnect *_real;
    ShimTimes *_times;
};

/**
 * The layers under Machine, built standalone: the real fabric from
 * makeInterconnect, one SCC per cluster talking to it through a
 * NetTap, and under weak ordering one StoreBuffer per processor.
 * access() and fence() follow Machine's shared-cache routing with
 * instruction fetch, TM and the checker off — the configurations
 * the benchmark workloads use. An untimed stack runs the same code
 * with every timer skipped, which calibrates the timers in place.
 */
class LayerStack
{
  public:
    LayerStack(const MachineConfig &cfg, bool timed)
        : _root("perfbench"), _shimRoot("perfbench_shim"),
          _timed(timed)
    {
        panic_if(cfg.organization != ClusterOrganization::SharedCache ||
                     cfg.icache.enabled || cfg.tm.mode != TmMode::Off,
                 "layer replay covers shared-cache, no-ifetch, no-TM "
                 "machines only");
        _fabric = makeInterconnect(&_root, cfg.bus, cfg.net, cfg.dram,
                                   cfg.numClusters);
        ShimTimes *shimTimes = timed ? &times : nullptr;
        _net = std::make_unique<NetTap>(&_shimRoot, cfg, _fabric.get(),
                                        shimTimes);
        bool weak = cfg.consistency.model == ConsistencyModel::Weak;
        if (weak)
            _sbStats = std::make_unique<StoreBufferStats>(&_root);
        for (int c = 0; c < cfg.numClusters; ++c) {
            _groups.push_back(std::make_unique<stats::Group>(
                &_root, "cluster" + std::to_string(c)));
            _sccs.push_back(std::make_unique<SharedClusterCache>(
                _groups.back().get(), c, cfg.cpusPerCluster, cfg.scc,
                _net.get()));
            _taps.push_back(std::make_unique<SnoopTap>(
                _sccs.back().get(), shimTimes));
            _fabric->attach(_taps.back().get());
        }
        for (CpuId cpu = 0; cpu < cfg.totalCpus(); ++cpu) {
            int c = cpu / cfg.cpusPerCluster;
            int local = cpu % cfg.cpusPerCluster;
            Route route{_sccs[(std::size_t)c].get(), local, nullptr};
            if (weak) {
                _buffers.push_back(std::make_unique<StoreBuffer>(
                    route.scc, local, c, cpu,
                    cfg.consistency.storeBufferEntries,
                    _sbStats.get()));
                route.sb = _buffers.back().get();
            }
            _routes.push_back(route);
        }
    }

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now)
    {
        const Route &route = _routes[(std::size_t)cpu];
        if (route.sb) {
            if (type == RefType::Write)
                return route.sb->store(addr, now);
            if (route.sb->forward(addr, now)) {
                route.sb->drainDue(now);
                return now;
            }
        }
        Cycle done = route.scc->access(route.local, type, addr, now);
        if (route.sb)
            route.sb->drainDue(done);
        return done;
    }

    Cycle
    fence(CpuId cpu, Cycle now)
    {
        const Route &route = _routes[(std::size_t)cpu];
        if (!_timed)
            return route.sb ? route.sb->fence(now) : now;
        auto t0 = Clock::now();
        Cycle r = route.sb ? route.sb->fence(now) : now;
        times.fenceNs += nsBetween(t0, Clock::now());
        ++times.fences;
        return r;
    }

    /** Summed SCC counters. */
    struct SccCounts
    {
        double hits = 0, misses = 0, merged = 0;
    };

    SccCounts
    sccCounts() const
    {
        SccCounts n;
        for (const auto &scc : _sccs) {
            n.hits += scc->readHits.value() + scc->writeHits.value();
            n.misses +=
                scc->readMisses.value() + scc->writeMisses.value();
            n.merged += scc->mergedMisses.value();
        }
        return n;
    }

    const StoreBufferStats *sbStats() const { return _sbStats.get(); }

    ShimTimes times;

  private:
    struct Route
    {
        SharedClusterCache *scc;
        int local;
        StoreBuffer *sb;
    };

    stats::Group _root;
    stats::Group _shimRoot;
    std::unique_ptr<Interconnect> _fabric;
    std::unique_ptr<NetTap> _net;
    std::unique_ptr<StoreBufferStats> _sbStats;
    std::vector<std::unique_ptr<stats::Group>> _groups;
    std::vector<std::unique_ptr<SharedClusterCache>> _sccs;
    std::vector<std::unique_ptr<SnoopTap>> _taps;
    std::vector<std::unique_ptr<StoreBuffer>> _buffers;
    std::vector<Route> _routes;
    bool _timed;
};

/** Replays a chunk into a Machine; counts calls whose return differs. */
std::uint64_t
replayMachine(Machine &m, const std::vector<CallRecord> &chunk)
{
    std::uint64_t mismatches = 0;
    for (const CallRecord &r : chunk) {
        Cycle got = r.fence ? m.fence(r.cpu, r.now)
                            : m.access(r.cpu, (RefType)r.type, r.addr,
                                       r.now, r.instrGap);
        mismatches += got != r.ret;
    }
    return mismatches;
}

std::uint64_t
replayLayers(LayerStack &s, const std::vector<CallRecord> &chunk)
{
    std::uint64_t mismatches = 0;
    for (const CallRecord &r : chunk) {
        Cycle got = r.fence ? s.fence(r.cpu, r.now)
                            : s.access(r.cpu, (RefType)r.type, r.addr,
                                       r.now);
        mismatches += got != r.ret;
    }
    return mismatches;
}

/** Host-time totals of one traced point's replays. */
struct ReplayTotals
{
    double machineS = 0;     //!< Machine with the live config
    double checkedS = 0;     //!< Machine with the checker attached
    double layersS = 0;      //!< timed LayerStack, whole loop
    double plainLayersS = 0; //!< untimed LayerStack, whole loop
    double spanS = 0;        //!< all replay work (excluded from run)
    std::uint64_t calls = 0;
    std::uint64_t refs = 0;
    std::uint64_t reads = 0;
    std::uint64_t switches = 0;
    std::uint64_t mismatches = 0;
};

/**
 * The recording MemorySystem: forwards every call to the live
 * machine, buffers it with its returned cycle, and replays each full
 * chunk into the three replay targets.
 */
class TracingMemory : public MemorySystem
{
  public:
    TracingMemory(Machine *live, const MachineConfig &cfg)
        : _live(live), _replay(std::make_unique<Machine>(cfg)),
          _layers(cfg, true), _plainLayers(cfg, false)
    {
        panic_if(cfg.checkCoherence, "trace a run without the checker");
        MachineConfig checked = cfg;
        checked.checkCoherence = true;
        _checkedReplay = std::make_unique<Machine>(checked);
        _chunk.reserve(kChunkCalls);
    }

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t instrGap) override
    {
        Cycle ret = _live->access(cpu, type, addr, now, instrGap);
        record({addr, now, ret, instrGap, (std::uint16_t)cpu,
                (std::uint8_t)type, 0});
        ++totals.refs;
        totals.reads += type == RefType::Read;
        return ret;
    }

    Cycle
    fence(CpuId cpu, Cycle now) override
    {
        Cycle ret = _live->fence(cpu, now);
        record({0, now, ret, 0, (std::uint16_t)cpu, 0, 1});
        return ret;
    }

    TmPolicy tmPolicy() const override { return _live->tmPolicy(); }

    /** Replay what is left in the chunk; call after Engine::run. */
    void
    finish()
    {
        flush();
        checkedLines = _checkedReplay->checker()->linesWalked.value();
        checkedTxns = _checkedReplay->bus().transactions.value();
        // The replay Machines' destructors (the checker's final walk)
        // stay untimed, as the live Machine's stays outside
        // Engine::run.
        _replay.reset();
        _checkedReplay.reset();
    }

    const LayerStack &layers() const { return _layers; }

    ReplayTotals totals;
    /** Checked replay's tag-walk lines and bus transactions. */
    double checkedLines = 0;
    double checkedTxns = 0;

  private:
    void
    record(const CallRecord &r)
    {
        if (r.cpu != _lastCpu) {
            ++totals.switches;
            _lastCpu = r.cpu;
        }
        _chunk.push_back(r);
        ++totals.calls;
        if (_chunk.size() == kChunkCalls)
            flush();
    }

    void
    flush()
    {
        auto t0 = Clock::now();
        totals.mismatches += replayMachine(*_replay, _chunk);
        auto t1 = Clock::now();
        totals.mismatches += replayMachine(*_checkedReplay, _chunk);
        auto t2 = Clock::now();
        totals.mismatches += replayLayers(_layers, _chunk);
        auto t3 = Clock::now();
        totals.mismatches += replayLayers(_plainLayers, _chunk);
        auto t4 = Clock::now();
        _chunk.clear();
        totals.machineS += secondsBetween(t0, t1);
        totals.checkedS += secondsBetween(t1, t2);
        totals.layersS += secondsBetween(t2, t3);
        totals.plainLayersS += secondsBetween(t3, t4);
        totals.spanS += secondsBetween(t0, Clock::now());
    }

    Machine *_live;
    std::unique_ptr<Machine> _replay;
    std::unique_ptr<Machine> _checkedReplay;
    LayerStack _layers;
    LayerStack _plainLayers;
    std::vector<CallRecord> _chunk;
    int _lastCpu = -1;
};
/// @}

/** Simulated outcome and host times of one directly driven point. */
struct PointRun
{
    RunResult result;
    double runS = 0;  //!< Engine::run
};

/**
 * runParallel's sequence with an optional MemorySystem wrapper
 * between the engine and the machine.
 */
PointRun
runPoint(const Workload &w, const MachineConfig &cfg,
         std::unique_ptr<TracingMemory> *tracer)
{
    Machine machine(cfg);
    Arena arena(cfg.arenaBytes);
    MemorySystem *mem = &machine;
    if (tracer) {
        *tracer = std::make_unique<TracingMemory>(&machine, cfg);
        mem = tracer->get();
    }
    Engine engine(mem, &arena, cfg.engine);
    auto workload = w.factory();
    Topology topo{cfg.numClusters, cfg.cpusPerCluster};
    workload->setup(arena, topo);
    ParallelWorkload *body = workload.get();
    for (CpuId cpu = 0; cpu < topo.totalCpus(); ++cpu) {
        engine.spawn(cpu, [body, cpu, topo](ThreadCtx &ctx) {
            body->threadMain(ctx, cpu, topo);
        });
    }
    auto t0 = Clock::now();
    engine.run();
    PointRun run;
    run.runS = secondsBetween(t0, Clock::now());
    if (tracer)
        run.runS -= (*tracer)->totals.spanS;
    run.result.cycles = engine.finishTime();
    run.result.instructions = engine.totalInstructions();
    run.result.references = engine.totalRefs();
    run.result.readMissRate = machine.readMissRate();
    run.result.missRate = machine.missRate();
    run.result.invalidations = machine.invalidations();
    run.result.busTransactions =
        (std::uint64_t)machine.bus().transactions.value();
    run.result.verified = workload->verify();
    if (tracer)
        (*tracer)->finish();
    return run;
}

bool
sameSimulatedResult(const RunResult &a, const RunResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.references == b.references &&
           a.readMissRate == b.readMissRate && a.missRate == b.missRate &&
           a.invalidations == b.invalidations &&
           a.busTransactions == b.busTransactions &&
           a.verified == b.verified;
}

void
metric(std::ostream &os, bool &first, const char *name, double value)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.12g", first ? "" : ",",
                  name, value);
    os << buf;
    first = false;
}

int
modeTrace(const Workload &w, const Options &o)
{
    SweepRun sweepRun = runSweep(w, o);

    double untracedS = 0, tracedS = 0, machineS = 0, checkedS = 0;
    double layersS = 0, plainLayersS = 0;
    ShimTimes shim;
    double hits = 0, misses = 0, merged = 0;
    double drains = 0, forwards = 0;
    double linesWalked = 0, checkedTxns = 0;
    std::uint64_t refs = 0, reads = 0, calls = 0, switches = 0;
    std::uint64_t mismatches = 0;

    for (GridPoint p : w.traced) {
        MachineConfig cfg = pointConfig(w, p);
        // Traced first: any first-use cost (heap growth) then lands
        // in trace.overhead_s rather than making it negative.
        std::unique_ptr<TracingMemory> tracer;
        PointRun traced = runPoint(w, cfg, &tracer);
        PointRun plain = runPoint(w, cfg, nullptr);
        mismatches +=
            !sameSimulatedResult(plain.result, traced.result) +
            !plain.result.verified;
        untracedS += plain.runS;
        tracedS += traced.runS;
        const ReplayTotals &t = tracer->totals;
        machineS += t.machineS;
        checkedS += t.checkedS;
        layersS += t.layersS;
        plainLayersS += t.plainLayersS;
        refs += t.refs;
        reads += t.reads;
        calls += t.calls;
        switches += t.switches;
        mismatches += t.mismatches;
        const ShimTimes &s = tracer->layers().times;
        shim.transactionNs += s.transactionNs;
        shim.snoopNs += s.snoopNs;
        shim.fenceNs += s.fenceNs;
        shim.transactions += s.transactions;
        shim.snoops += s.snoops;
        shim.fences += s.fences;
        LayerStack::SccCounts n = tracer->layers().sccCounts();
        hits += n.hits;
        misses += n.misses;
        merged += n.merged;
        if (const StoreBufferStats *sb = tracer->layers().sbStats()) {
            drains += sb->storesDrained.value();
            forwards += sb->loadsForwarded.value();
        }
        linesWalked += tracer->checkedLines;
        checkedTxns += tracer->checkedTxns;
    }

    // Timer cost in place: the timed minus the untimed layer replay
    // of the same stream, per timed call. Half of it falls inside
    // each timed interval (one clock read), half outside.
    const double timedCalls =
        (double)(shim.transactions + shim.snoops + shim.fences);
    const double timerNs =
        timedCalls ? (layersS - plainLayersS) * 1e9 / timedCalls : 0;
    const double halfS = 0.5 * timerNs * 1e-9;
    const double ns = 1e-9;
    const double snoopS =
        shim.snoopNs * ns - (double)shim.snoops * halfS;
    const double transactionS =
        (shim.transactionNs - shim.snoopNs) * ns -
        (double)(shim.snoops + shim.transactions) * halfS;
    const double fenceS =
        shim.fenceNs * ns - (double)shim.fences * halfS;
    // What the untimed stack spent outside the fabric and fences:
    // the SCCs, the store buffers and the replay loop.
    const double sccS = plainLayersS - transactionS - snoopS - fenceS;
    const double checkS = checkedS - machineS;
    // Machine time no lower layer accounts for: Machine's own
    // routing, plus the timer-correction error.
    const double unattributedS = machineS - plainLayersS;

    std::vector<double> pointS = sweepRun.pointS;
    std::ostringstream os;
    os << "{\"kind\":\"layers\",\"metrics\":{";
    bool first = true;
    metric(os, first, "exec.self_s", untracedS - machineS);
    metric(os, first, "exec.refs", (double)refs);
    metric(os, first, "exec.switches", (double)switches);
    metric(os, first, "exec.switches_per_ref",
           refs ? (double)switches / (double)refs : 0);
    metric(os, first, "core.machine_s", machineS);
    metric(os, first, "core.replay_mismatches", (double)mismatches);
    metric(os, first, "mem.scc_s", sccS);
    metric(os, first, "mem.scc_hit_share",
           hits + misses ? hits / (hits + misses) : 0);
    metric(os, first, "mem.merged_miss_share",
           misses ? merged / misses : 0);
    metric(os, first, "mem.fence_s", fenceS);
    metric(os, first, "mem.sb_drains_per_ref",
           refs ? drains / (double)refs : 0);
    metric(os, first, "mem.sb_forward_share",
           reads ? forwards / (double)reads : 0);
    metric(os, first, "net.transaction_s", transactionS);
    metric(os, first, "net.snoop_s", snoopS);
    metric(os, first, "net.transactions_per_ref",
           refs ? (double)shim.transactions / (double)refs : 0);
    metric(os, first, "net.snoops_per_transaction",
           shim.transactions
               ? (double)shim.snoops / (double)shim.transactions
               : 0);
    metric(os, first, "check.self_s", checkS);
    metric(os, first, "check.lines_walked_per_txn",
           checkedTxns ? linesWalked / checkedTxns : 0);
    metric(os, first, "sweep.point_s_p50", median(pointS));
    metric(os, first, "sweep.point_s_max",
           pointS.empty() ? 0
                          : *std::max_element(pointS.begin(),
                                              pointS.end()));
    int jobs = std::min<int>(w.jobs, (int)pointS.size());
    metric(os, first, "sweep.busy_share",
           sum(pointS) / ((double)jobs * sweepRun.wallS));
    metric(os, first, "trace.overhead_s", tracedS - untracedS);
    metric(os, first, "trace.timer_ns", timerNs);
    metric(os, first, "trace.unattributed_share",
           unattributedS / tracedS);
    os << "}";
    metric(os, first, "traced_run_s", tracedS);
    metric(os, first, "untraced_run_s", untracedS);
    metric(os, first, "replayed_calls", (double)calls);
    metric(os, first, "sweep_wall_s", sweepRun.wallS);
    os << ",\"refs\":" << totalRefs(sweepRun.grid) << ",\"points\":";
    printPoints(os, sweepRun.grid);
    os << "}\n";
    std::cout << os.str() << std::flush;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The environment must not change what is measured: these
    // variables attach the checker or the recorder to every Machine.
    for (const char *name :
         {"SCMP_CHECK", "SCMP_CHECK_WALK", "SCMP_OBS", "SCMP_OBS_INTERVAL",
          "SCMP_OBS_SERIES", "SCMP_OBS_CAP", "SCMP_DEBUG"})
        unsetenv(name);
    setLogQuiet(true);

    Options o = parseOptions(argc, argv);
    Workload w = makeWorkload(o);
    std::cout << "{\"kind\":\"input\",\"seed\":" << w.inputSeed
              << "}\n";
    std::cout << "{\"kind\":\"build\",\"compiler\":\"gcc " << __VERSION__
              << "\",\"build_type\":\"" << SCMP_BENCH_BUILD_TYPE
              << "\",\"lto\":" << (SCMP_BENCH_LTO ? "true" : "false")
              << ",\"assertions\":"
#ifdef NDEBUG
              << "false"
#else
              << "true"
#endif
              << "}\n";

    return o.mode == "run" ? modeRun(w, o) : modeTrace(w, o);
}
