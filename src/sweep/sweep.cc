#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <deque>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/config_schema.hh"
#include "model/analytic.hh"
#include "model/profile_run.hh"
#include "sim/logging.hh"
#include "sweep/point_key.hh"

namespace scmp::sweep
{

namespace
{

SweepOptions globalDefaults;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               Clock::now() - start)
        .count();
}

/**
 * Suffix an observability output path with a point's key (before
 * the extension) so concurrent workers write distinct files. An
 * empty path (that output is off) stays empty.
 */
std::string
pointedPath(const std::string &path, std::uint64_t key)
{
    if (path.empty())
        return path;
    std::string tag = "-" + keyHex(key);
    std::size_t dot = path.find_last_of('.');
    std::size_t slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + tag;
    return path.substr(0, dot) + tag + path.substr(dot);
}

/**
 * Store key for the analytic prediction of a point: the cycle
 * key salted with the model name, so a screened record can never
 * be served where a cycle-accurate result is expected (and vice
 * versa on resume).
 */
std::uint64_t
analyticKey(std::uint64_t key)
{
    KeyHasher hasher;
    hasher.mix(key);
    hasher.mix("analytic");
    return hasher.value();
}

/** " net=split tm=eager": a point's axes for log lines. */
std::string
axesText(const AxisTags &axes)
{
    std::string text;
    for (const AxisTag &axis : axes)
        text += " " + axis.name + "=" + axis.value;
    return text;
}

/**
 * Does a stored record describe @p point? The key already hashes
 * every non-default axis, so this only catches key collisions and
 * corrupt stores: workload, procs and scc must match, and so must
 * every axis both carry. An axis absent from the record is
 * accepted — baselines such as --tm=off store none for their inert
 * knobs.
 */
bool
describes(const StoredPoint &stored, const std::string &workload,
          const SweepPoint &point)
{
    if (stored.workload != workload ||
        stored.cpusPerCluster != point.config.cpusPerCluster ||
        stored.sccBytes != point.config.scc.sizeBytes)
        return false;
    for (const AxisTag &have : stored.axes) {
        for (const AxisTag &want : point.axes) {
            if (have.name == want.name && have.value != want.value)
                return false;
        }
    }
    return true;
}

} // namespace

SweepModel
parseSweepModel(std::string_view text)
{
    if (text == "cycle")
        return SweepModel::Cycle;
    if (text == "analytic")
        return SweepModel::Analytic;
    if (text == "hybrid")
        return SweepModel::Hybrid;
    fatal("unknown sweep model '", std::string(text),
          "' (expected cycle, analytic or hybrid)");
}

const char *
sweepModelName(SweepModel model)
{
    switch (model) {
      case SweepModel::Cycle: return "cycle";
      case SweepModel::Analytic: return "analytic";
      case SweepModel::Hybrid: return "hybrid";
    }
    return "?";
}

int
parseJobs(std::string_view text)
{
    if (text == "auto")
        return 0;
    int jobs = -1;
    const char *end = text.data() + text.size();
    auto parsed = std::from_chars(text.data(), end, jobs);
    fatal_if(parsed.ec != std::errc() || parsed.ptr != end || jobs < 0,
             "--jobs must be 'auto' or a non-negative count (got '",
             std::string(text), "')");
    return jobs;
}

void
setDefaultSweepOptions(const SweepOptions &options)
{
    globalDefaults = options;
}

const SweepOptions &
defaultSweepOptions()
{
    return globalDefaults;
}

namespace
{

/** Append a copy of the list's base; return it. */
MachineConfig &
addPoint(PointList &list)
{
    list.points.push_back({list.base, {}, {}});
    return list.points.back().config;
}

/** Tag the last point with the named schema axes' values. */
void
tag(PointList &list, std::initializer_list<const char *> axes)
{
    SweepPoint &point = list.points.back();
    for (const char *axis : axes) {
        const ConfigField *field = findField(&ConfigField::axis, axis);
        point.axes.push_back({axis, fieldText(*field, point.config)});
    }
}

} // namespace

PointList
gridPoints(const MachineConfig &base,
           const std::vector<std::uint64_t> &sccSizes,
           const std::vector<int> &clusterSizes)
{
    PointList list{base, {}};
    for (int procs : clusterSizes) {
        for (std::uint64_t size : sccSizes) {
            MachineConfig &config = addPoint(list);
            config.cpusPerCluster = procs;
            config.scc.sizeBytes = size;
        }
    }
    return list;
}

PointList
netPoints(const MachineConfig &base,
          const std::vector<int> &clusterCounts,
          const std::vector<NetTopology> &topologies)
{
    PointList list{base, {}};
    for (NetTopology topology : topologies) {
        for (int clusters : clusterCounts) {
            MachineConfig &config = addPoint(list);
            config.numClusters = clusters;
            config.net.topology = topology;
            tag(list, {"clusters", "net"});
        }
    }
    return list;
}

PointList
memPoints(const MachineConfig &base,
          const std::vector<int> &channelCounts,
          const std::vector<int> &bankCounts,
          const std::vector<MemSched> &scheds)
{
    PointList list{base, {}};
    for (MemSched sched : scheds) {
        for (int channels : channelCounts) {
            for (int banks : bankCounts) {
                DramParams &dram = addPoint(list).dram;
                dram.kind = MemBackendKind::Banked;
                dram.channels = channels;
                dram.banks = banks;
                dram.sched = sched;
                tag(list, {"mem", "channels", "banks", "memSched"});
            }
        }
    }
    return list;
}

PointList
consistencyPoints(const MachineConfig &base,
                  const std::vector<ConsistencyModel> &models,
                  const std::vector<NetTopology> &topologies,
                  const std::vector<NetArbitration> &arbitrations)
{
    PointList list{base, {}};
    for (ConsistencyModel model : models) {
        for (NetTopology topology : topologies) {
            for (std::size_t a = 0; a < arbitrations.size(); ++a) {
                if (topology != NetTopology::Split && a > 0)
                    break;
                MachineConfig &config = addPoint(list);
                config.consistency.model = model;
                config.net.topology = topology;
                config.net.arbitration = arbitrations[a];
                tag(list, {"net", "consistency"});
            }
        }
    }
    return list;
}

PointList
tmPoints(const MachineConfig &base, const std::vector<TmMode> &modes,
         const std::vector<NetTopology> &topologies,
         const std::vector<int> &setSizes)
{
    PointList list{base, {}};
    for (TmMode mode : modes) {
        for (NetTopology topology : topologies) {
            for (std::size_t s = 0; s < setSizes.size(); ++s) {
                if (mode == TmMode::Off && s > 0)
                    break;
                MachineConfig &config = addPoint(list);
                config.tm.mode = mode;
                config.tm.setEntries = setSizes[s];
                config.net.topology = topology;
                tag(list, {"net", "tm"});
                if (mode != TmMode::Off)
                    tag(list, {"tmEntries"});
            }
        }
    }
    return list;
}

PointList
isolationPoints(const MachineConfig &base,
                const std::vector<IsolationMode> &modes,
                const std::vector<int> &domainCounts)
{
    PointList list{base, {}};
    for (IsolationMode mode : modes) {
        for (std::size_t d = 0; d < domainCounts.size(); ++d) {
            if (mode == IsolationMode::None && d > 0)
                break;
            SecParams &sec = addPoint(list).scc.sec;
            sec.mode = mode;
            sec.domains = domainCounts[d];
            tag(list, {"isolation"});
            if (mode != IsolationMode::None)
                tag(list, {"isolationDomains"});
        }
    }
    return list;
}

SweepExecutor::SweepExecutor(SweepOptions options)
    : _options(std::move(options))
{
}

DesignGrid
SweepExecutor::run(const DesignSpace::WorkloadFactory &factory,
                   const MachineConfig &base,
                   const std::vector<std::uint64_t> &sccSizes,
                   const std::vector<int> &clusterSizes)
{
    DesignGrid grid;
    for (SweepPoint &point :
         run(factory, gridPoints(base, sccSizes, clusterSizes))) {
        grid.add({point.config.cpusPerCluster,
                  point.config.scc.sizeBytes,
                  std::move(point.result)});
    }
    return grid;
}

std::vector<SweepPoint>
SweepExecutor::run(const DesignSpace::WorkloadFactory &factory,
                   const PointList &list)
{
    auto sweepStart = Clock::now();

    // One throwaway instance for the name; construction is cheap
    // (workloads allocate in setup(), not their constructors).
    const std::string workloadName = factory()->name();

    // The analytic model knows only the processors x SCC grid; a
    // list that varies any other axis would be mispredicted, so it
    // is refused before anything runs or the store is touched.
    if (_options.model != SweepModel::Cycle) {
        std::uint64_t baseHash = hashMachineConfig(list.base);
        for (const SweepPoint &point : list.points) {
            MachineConfig gridConfig = point.config;
            gridConfig.cpusPerCluster = list.base.cpusPerCluster;
            gridConfig.scc.sizeBytes = list.base.scc.sizeBytes;
            fatal_if(hashMachineConfig(gridConfig) != baseHash,
                     "--model=", sweepModelName(_options.model),
                     " screens only the processors x SCC grid, but ",
                     workloadName, " point",
                     axesText(point.axes),
                     " varies the machine outside it");
        }
    }

    std::vector<SweepPoint> results = list.points;
    struct Task
    {
        MachineConfig config;
        std::uint64_t key;
    };
    std::vector<Task> tasks;
    tasks.reserve(results.size());
    for (const SweepPoint &point : results) {
        Task task{point.config,
                  pointKey(point.config, workloadName, _options.scale)};
        if (_options.obs.enabled) {
            obs::RecorderConfig &obs = task.config.obs;
            obs = _options.obs;
            obs.tracePath = pointedPath(obs.tracePath, task.key);
            obs.seriesPath = pointedPath(obs.seriesPath, task.key);
        }
        tasks.push_back(std::move(task));
    }

    _stats = SweepRunStats{};
    _stats.total = tasks.size();

    ResultStore store;
    if (!_options.resultsPath.empty())
        store.open(_options.resultsPath, _options.resume);

    // Analytic screen (analytic/hybrid): one functional profiling
    // pass at the list's widest cluster — the scope layout every
    // grouping on the axis can be derived from — then a
    // microseconds-per-point evaluation of the whole grid.
    std::vector<RunResult> predicted;
    std::vector<char> runCycle(
        tasks.size(), _options.model != SweepModel::Analytic);
    if (_options.model != SweepModel::Cycle && !tasks.empty()) {
        auto profileStart = Clock::now();
        MachineConfig profConfig = list.base;
        profConfig.cpusPerCluster = std::max_element(
            results.begin(), results.end(),
            [](const SweepPoint &a, const SweepPoint &b) {
                return a.config.cpusPerCluster <
                       b.config.cpusPerCluster;
            })->config.cpusPerCluster;
        auto workload = factory();
        workload->reseed(pointKey(profConfig, workloadName,
                                  _options.scale));
        model::ProfileRunOptions profileOptions;
        profileOptions.sampleShift = _options.profileSampleShift;
        profileOptions.maxSamples = _options.profileMaxSamples;
        model::ReuseProfile profile = model::profileWorkload(
            profConfig, *workload, profileOptions);
        _stats.profileMs = msSince(profileStart);

        model::AnalyticEvaluator evaluator(profile);
        auto evalStart = Clock::now();
        predicted.resize(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i)
            predicted[i] = evaluator.evaluate(tasks[i].config);
        _stats.analyticMs = msSince(evalStart);
        _stats.screened = tasks.size();

        if (_options.model == SweepModel::Hybrid) {
            // Only the analytically best K points earn the
            // cycle-accurate treatment; the rest keep their
            // predictions.
            std::size_t topK =
                _options.topK > 0
                    ? (std::size_t)_options.topK
                    : std::max<std::size_t>(3, tasks.size() / 4);
            topK = std::min(topK, tasks.size());
            std::vector<std::size_t> order(tasks.size());
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(
                order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                    return predicted[a].cycles <
                           predicted[b].cycles;
                });
            std::fill(runCycle.begin(), runCycle.end(), 0);
            for (std::size_t k = 0; k < topK; ++k)
                runCycle[order[k]] = 1;
        }
        if (_options.verbose) {
            inform("sweep: ", workloadName, " analytic screen — ",
                   tasks.size(), " points from one ",
                   _stats.profileMs, " ms profile pass (",
                   _stats.analyticMs, " ms to evaluate)");
        }
    }

    // Identity fields shared by every record this run writes.
    auto recordFor = [&](std::size_t i) {
        StoredPoint record;
        record.key = tasks[i].key;
        record.workload = workloadName;
        record.scale = _options.scale;
        record.cpusPerCluster = results[i].config.cpusPerCluster;
        record.sccBytes = results[i].config.scc.sizeBytes;
        record.axes = results[i].axes;
        return record;
    };

    // Partition the list into screened points (served from the
    // analytic predictions), stored points (served immediately)
    // and pending points (dealt to the workers).
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!runCycle[i]) {
            results[i].result = predicted[i];
            std::uint64_t screenKey = analyticKey(tasks[i].key);
            if (store.isOpen() &&
                !(_options.resume && store.find(screenKey))) {
                StoredPoint record = recordFor(i);
                record.key = screenKey;
                record.model = "analytic";
                record.jobs = 1;  // the screen is serial
                record.result = predicted[i];
                record.wallMs =
                    _stats.analyticMs / (double)tasks.size();
                store.append(record);
            }
            continue;
        }
        const StoredPoint *stored =
            _options.resume && store.isOpen()
                ? store.find(tasks[i].key)
                : nullptr;
        if (stored) {
            fatal_if(!describes(*stored, workloadName, results[i]),
                     "results file '", _options.resultsPath,
                     "' record ", keyHex(tasks[i].key),
                     " does not match its key's configuration ",
                     "(key collision or corrupt store)");
            results[i].result = stored->result;
            ++_stats.reused;
        } else {
            pending.push_back(i);
        }
    }
    if (_options.verbose && _stats.reused > 0) {
        inform("sweep: resuming ", workloadName, " — ",
               _stats.reused, "/", tasks.size(),
               " points already in '", _options.resultsPath, "'");
    }

    const std::size_t toCompute = pending.size();
    std::atomic<std::size_t> completed{0};
    auto computeStart = Clock::now();

    // Resolve the worker count up front so each stored record can
    // carry the job count that actually produced it.
    int jobs = _options.jobs > 0
                   ? _options.jobs
                   : (int)std::thread::hardware_concurrency();
    jobs = std::max(1, std::min(jobs, (int)pending.size()));
    _stats.jobs = jobs;

    auto runOne = [&](std::size_t i) {
        const Task &task = tasks[i];
        auto workload = factory();
        // Hand the point its deterministic identity before setup;
        // combined with the fresh Machine/Arena/Engine below this
        // makes the point's result independent of which host
        // thread runs it and in what order.
        workload->reseed(task.key);

        std::ostringstream statsJson;
        auto pointStart = Clock::now();
        RunResult result = runParallel(
            task.config, *workload, nullptr, nullptr,
            _options.attachStats ? &statsJson : nullptr);
        double wallMs = msSince(pointStart);

        results[i].result = result;

        if (store.isOpen()) {
            StoredPoint record = recordFor(i);
            record.jobs = jobs;
            record.result = result;
            record.wallMs = wallMs;
            record.statsJson = statsJson.str();
            record.series = result.obsSeries;
            store.append(record);
        }

        std::size_t doneCount =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (_options.verbose) {
            double elapsedS = msSince(computeStart) / 1000.0;
            double etaS = doneCount < toCompute
                              ? elapsedS / (double)doneCount *
                                    (double)(toCompute - doneCount)
                              : 0.0;
            inform("sweep ", doneCount, "/", toCompute, ": ",
                   workloadName, " ", task.config.cpusPerCluster,
                   "P/cluster ", sizeString(task.config.scc.sizeBytes),
                   axesText(results[i].axes), " -> ",
                   result.cycles, " cycles, rdMiss=",
                   result.readMissRate, " (", wallMs, " ms, ETA ",
                   etaS, " s)");
        }
    };

    if (jobs <= 1) {
        // Serial reference path — same runOne, same order the old
        // serial sweep used.
        for (std::size_t i : pending)
            runOne(i);
    } else {
        // Work-stealing pool: each worker owns a deque dealt
        // round-robin; it pops its own work from the front and
        // steals from the back of the busiest-looking victim when
        // it runs dry. Stealing from the opposite end keeps owner
        // and thief off the same cache lines and the same grid
        // region (long-running points cluster by coordinates).
        struct WorkQueue
        {
            std::mutex mutex;
            std::deque<std::size_t> tasks;
        };
        std::vector<WorkQueue> queues(jobs);
        for (std::size_t k = 0; k < pending.size(); ++k)
            queues[k % jobs].tasks.push_back(pending[k]);

        auto worker = [&](int self) {
            for (;;) {
                std::size_t task = 0;
                bool got = false;
                {
                    WorkQueue &own = queues[self];
                    std::lock_guard<std::mutex> lock(own.mutex);
                    if (!own.tasks.empty()) {
                        task = own.tasks.front();
                        own.tasks.pop_front();
                        got = true;
                    }
                }
                for (int step = 1; !got && step < jobs; ++step) {
                    WorkQueue &victim =
                        queues[(self + step) % jobs];
                    std::lock_guard<std::mutex> lock(victim.mutex);
                    if (!victim.tasks.empty()) {
                        task = victim.tasks.back();
                        victim.tasks.pop_back();
                        got = true;
                    }
                }
                if (!got)
                    return;  // every queue is empty — all done
                runOne(task);
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (int w = 0; w < jobs; ++w)
            threads.emplace_back(worker, w);
        for (auto &thread : threads)
            thread.join();
    }

    _stats.computed = toCompute;
    _stats.wallMs = msSince(sweepStart);
    if (_options.verbose) {
        std::size_t cyclePoints = _stats.computed + _stats.reused;
        std::size_t served = _stats.screened > cyclePoints
                                 ? _stats.screened - cyclePoints
                                 : 0;
        inform("sweep: ", workloadName, " done — ",
               _stats.computed, " computed, ", _stats.reused,
               " reused, ", served, " screened, ",
               _stats.wallMs / 1000.0, " s");
    }

    return results;
}

} // namespace scmp::sweep

namespace scmp
{

// Defined here (not in core/design_space.cc) so the core library
// stays free of the executor; see the header comment.
DesignGrid
DesignSpace::sweep(const WorkloadFactory &factory,
                   MachineConfig base,
                   const std::vector<std::uint64_t> &sccSizes,
                   const std::vector<int> &clusterSizes,
                   bool verbose)
{
    sweep::SweepOptions options = sweep::defaultSweepOptions();
    options.verbose = options.verbose || verbose;
    sweep::SweepExecutor executor(options);
    return executor.run(factory, base, sccSizes, clusterSizes);
}

} // namespace scmp
