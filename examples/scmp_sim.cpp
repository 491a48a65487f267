/**
 * @file
 * scmp_sim — the unified command-line driver.
 *
 * Runs any workload on any machine configuration the library
 * supports, entirely from flags, and reports the standard metric
 * block (optionally the full statistics tree or CSV). This is the
 * binary a downstream user scripts sweeps with.
 *
 * Usage:
 *   scmp_sim <barnes|mp3d|cholesky|multiprog|fuzz
 *             |tmkmeans|tmvacation|secpp>
 *     [machine flags] [--stats] [--csv]
 *     [--obs[=FILE]] [--obs-interval=N] [--obs-series=FILE]
 *     [--obs-sec-sets=N] [workload knobs]
 *   scmp_sim --list
 *
 * Machine flags (--procs=N, --scc=SIZE, --net=tree, --check, ...)
 * come from the configuration schema (src/core/config_schema.cc):
 * `scmp_sim --list` prints every one with its values and default.
 * Each workload's own knobs (barnes: --bodies=N --steps=N
 * --theta=X, fuzz: --seed=N ...) are in the `workloads` table below.
 *
 * --check attaches the coherence checker (src/check): a golden
 * functional memory verifies every load, and tag-array invariant
 * sweeps catch protocol violations as they happen. The fuzz mode
 * drives randomized sharing/false-sharing/eviction traffic at the
 * machine and prints its seed so failures replay with --seed=N.
 *
 * --obs attaches the observability recorder (src/obs): a Chrome
 * trace_event timeline (load the file in chrome://tracing or
 * Perfetto), interval metrics (--obs-series CSV), and a per-phase
 * cycle-attribution table keyed on barrier epochs. Unknown flags
 * are an error: every flag must be one the selected workload or the
 * machine model understands.
 *
 * Examples:
 *   scmp_sim barnes --procs=8 --scc=128K
 *   scmp_sim mp3d --protocol=update --stats
 *   scmp_sim multiprog --procs=4 --scc=64K --refs=2000000
 *   scmp_sim fuzz --check --seed=7 --procs=4 --protocol=update
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <set>
#include <vector>

#include "check/checker.hh"
#include "check/traffic.hh"
#include "core/config_schema.hh"
#include "core/parallel_run.hh"
#include "multiprog/scheduler.hh"
#include "sim/config.hh"
#include "workloads/spec/spec_app.hh"
#include "workloads/splash/barnes.hh"
#include "workloads/splash/cholesky.hh"
#include "workloads/splash/mp3d.hh"
#include "workloads/sec/prime_probe.hh"
#include "workloads/tm/tm_workloads.hh"

namespace
{

using namespace scmp;

MachineConfig
machineFromFlags(const Config &config)
{
    MachineConfig machine;
    machine.cpusPerCluster = 2;
    applyFlags(config, machine);

    // Observability (src/obs). A bare --obs picks a default trace
    // file name; --obs=FILE names it. --obs-series implies
    // observation even without --obs.
    if (config.has("obs")) {
        std::string path = config.getString("obs");
        machine.obs.enabled = true;
        machine.obs.tracePath =
            (path == "true" || path == "1") ? "scmp_trace.json"
                                            : path;
    }
    if (config.has("obs-series")) {
        machine.obs.enabled = true;
        machine.obs.seriesPath = config.getString("obs-series");
    }
    if (config.has("obs-interval"))
        machine.obs.intervalCycles = config.getSize("obs-interval");
    if (config.has("obs-sec-sets")) {
        machine.obs.enabled = true;
        machine.obs.secSets =
            (int)config.getInt("obs-sec-sets", 0);
    }
    if (machine.obs.enabled) {
        if (machine.obs.intervalCycles == 0)
            machine.obs.intervalCycles = obs::defaultObsInterval;
        machine.obs.printPhases = !config.getBool("csv", false);
    }
    return machine;
}

/** One workload: --list description and the flags it reads. */
struct WorkloadInfo
{
    const char *name;
    const char *help;
    std::set<std::string> flags;
};

/** The workload catalogue, in --list order. */
const std::vector<WorkloadInfo> workloads = {
    {"barnes", "SPLASH Barnes-Hut N-body (octree gravity)",
     {"bodies", "steps", "theta"}},
    {"mp3d", "SPLASH MP3D rarefied-flow particle simulation",
     {"particles", "steps"}},
    {"cholesky", "SPLASH sparse Cholesky factorization",
     {"grid-rows", "grid-cols"}},
    {"multiprog",
     "multiprogrammed SPEC-like apps, round-robin scheduled",
     {"refs", "quantum"}},
    {"tmkmeans",
     "STAMP-kmeans-like clustering, transactional accumulators",
     {"points", "centroids", "rounds"}},
    {"tmvacation",
     "STAMP-vacation-like reservations, all-or-nothing bookings",
     {"resources", "capacity", "txns", "query-range"}},
    {"secpp", "prime+probe spy/victim pair, reports leakage bits/epoch",
     {"sec-epochs", "sec-symbols"}},
    {"fuzz", "randomized coherence traffic (pairs with --check)",
     {"seed", "fuzz-steps", "hot-lines", "private-lines", "write-frac",
      "shared-frac", "false-share-frac", "fence-frac", "txn-frac",
      "txn-len"}},
};

void
printUsage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: scmp_sim <barnes|mp3d|cholesky|multiprog"
                 "|fuzz|tmkmeans|tmvacation|secpp> [flags]\n"
                 "       scmp_sim --list\n"
                 "run scmp_sim --list for the machine flags\n");
}

/** --list; @p defaults is the machine flags' starting point. */
int
printList(const MachineConfig &defaults)
{
    std::printf("workloads:\n");
    for (const WorkloadInfo &workload : workloads)
        std::printf("  %-10s %s\n", workload.name, workload.help);
    // Each enum flag's spellings, then every machine flag; both
    // come from the configuration schema.
    static const std::pair<const char *, const char *> sections[] = {
        {"protocol", "protocols"},
        {"organization", "organizations"},
        {"net", "interconnects (--net)"},
        {"mem", "memory backends (--mem)"},
        {"consistency", "consistency models (--consistency)"},
        {"tm", "transactional memory (--tm)"},
        {"isolation", "isolation modes (--isolation)"},
    };
    for (auto [flag, header] : sections) {
        std::printf("%s:\n", header);
        const ConfigField *field = findField(&ConfigField::flag, flag);
        for (const Spelling &s : field->spellings) {
            if (s.alias)
                continue;
            std::string help = s.help;
            for (auto at = help.find('\n'); at != help.npos;
                 at = help.find('\n', at + 1))
                help.insert(at + 1, 13, ' ');
            std::printf("  %-10s %s\n", s.name, help.c_str());
        }
    }
    std::printf("machine flags (default, MachineConfig field):\n");
    for (const ConfigField &field : configSchema()) {
        std::string form = field.kind == FieldKind::Bool ? "0|1"
                           : field.bytes                    ? "SIZE"
                                                            : "N";
        for (const Spelling &s : field.spellings) {
            if (!s.alias)
                form = (s.value ? form + "|" : "") + s.name;
        }
        if (field.flag)
            std::printf("  --%-34s %-10s %s\n",
                        (field.flag + ("=" + form)).c_str(),
                        fieldText(field, defaults).c_str(), field.name);
    }
    return 0;
}

int
runFuzz(const Config &config, MachineConfig machineConfig, bool csv)
{
    check::TrafficParams params;
    params.seed = (std::uint64_t)config.getInt("seed", 1);
    params.steps =
        (std::uint64_t)config.getInt("fuzz-steps", 200'000);
    params.totalCpus = machineConfig.totalCpus();
    params.lineBytes = machineConfig.scc.lineBytes;
    params.hotLines = (int)config.getInt("hot-lines", 16);
    params.privateLines =
        (int)config.getInt("private-lines", 512);
    params.writeFraction =
        config.getDouble("write-frac", params.writeFraction);
    params.sharedFraction =
        config.getDouble("shared-frac", params.sharedFraction);
    params.falseShareFraction = config.getDouble(
        "false-share-frac", params.falseShareFraction);
    // Weak ordering defaults to a sprinkle of random fences so the
    // fuzz stream exercises drain-on-fence; explicit --fence-frac
    // overrides, and sequential consistency keeps 0 so existing
    // seeds replay untouched.
    params.fenceFraction = config.getDouble(
        "fence-frac",
        machineConfig.consistency.model == ConsistencyModel::Weak
            ? 0.02
            : 0.0);
    // A TM machine defaults to a sprinkle of random transactions,
    // mirroring the weak-ordering fence default: explicit
    // --txn-frac overrides, and --tm=off keeps 0 so existing seeds
    // replay untouched.
    params.txnFraction = config.getDouble(
        "txn-frac",
        machineConfig.tm.mode != TmMode::Off ? 0.05 : 0.0);
    params.txnLength = (int)config.getInt("txn-len", 8);
    fatal_if(params.txnFraction > 0 &&
                 machineConfig.tm.mode == TmMode::Off,
             "--txn-frac needs --tm=eager or --tm=lazy");

    Machine machine(machineConfig);
    check::TrafficGen gen(params);
    check::TrafficStats traffic = gen.run(machine);

    std::uint64_t checks = machine.checking()
                               ? machine.checker()->checksPerformed()
                               : 0;
    if (csv) {
        std::printf("seed,steps,reads,writes,shared,falseShare,"
                    "private,txns,txnCommits,txnAborts,checks\n");
        std::printf(
            "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
            "%llu\n",
            (unsigned long long)params.seed,
            (unsigned long long)params.steps,
            (unsigned long long)traffic.reads,
            (unsigned long long)traffic.writes,
            (unsigned long long)traffic.sharedRefs,
            (unsigned long long)traffic.falseShareRefs,
            (unsigned long long)traffic.privateRefs,
            (unsigned long long)traffic.txns,
            (unsigned long long)traffic.txnCommits,
            (unsigned long long)traffic.txnAborts,
            (unsigned long long)checks);
        return 0;
    }
    std::printf("fuzz seed           %llu\n",
                (unsigned long long)params.seed);
    std::printf("references          %llu (%llu writes)\n",
                (unsigned long long)params.steps,
                (unsigned long long)traffic.writes);
    std::printf("shared/false/priv   %llu / %llu / %llu\n",
                (unsigned long long)traffic.sharedRefs,
                (unsigned long long)traffic.falseShareRefs,
                (unsigned long long)traffic.privateRefs);
    std::printf("read miss rate      %.2f%%\n",
                100.0 * machine.readMissRate());
    if (traffic.txns) {
        std::printf("transactions        %llu (%llu committed, "
                    "%llu aborted)\n",
                    (unsigned long long)traffic.txns,
                    (unsigned long long)traffic.txnCommits,
                    (unsigned long long)traffic.txnAborts);
    }
    std::printf("checks performed    %llu\n",
                (unsigned long long)checks);
    return 0;
}

void
printMetrics(const char *workload, const MachineConfig &machine,
             Cycle cycles, std::uint64_t refs, double readMiss,
             std::uint64_t invalidations, bool verified, bool csv)
{
    if (csv) {
        std::printf("workload,clusters,procs,scc,cycles,refs,"
                    "readMissRate,invalidations,verified\n");
        std::printf("%s,%d,%d,%s,%llu,%llu,%.6f,%llu,%d\n",
                    workload, machine.numClusters,
                    machine.cpusPerCluster,
                    sizeString(machine.scc.sizeBytes).c_str(),
                    (unsigned long long)cycles,
                    (unsigned long long)refs, readMiss,
                    (unsigned long long)invalidations,
                    verified ? 1 : 0);
        return;
    }
    std::printf("workload            %s\n", workload);
    std::printf("machine             %d clusters x %d procs, %s\n",
                machine.numClusters, machine.cpusPerCluster,
                sizeString(machine.scc.sizeBytes).c_str());
    std::printf("execution time      %llu cycles\n",
                (unsigned long long)cycles);
    std::printf("data references     %llu\n",
                (unsigned long long)refs);
    std::printf("read miss rate      %.2f%%\n", 100.0 * readMiss);
    std::printf("invalidations       %llu\n",
                (unsigned long long)invalidations);
    std::printf("verified            %s\n",
                verified ? "yes" : "NO");
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    auto positional = config.parseArgs(argc, argv);
    if (config.getBool("list", false))
        return printList(machineFromFlags(Config{}));
    if (positional.empty()) {
        printUsage(stderr);
        return 2;
    }
    std::string which = positional[0];

    auto knownWorkload = std::find_if(
        workloads.begin(), workloads.end(),
        [&](const WorkloadInfo &w) { return which == w.name; });
    if (knownWorkload == workloads.end()) {
        std::fprintf(stderr, "scmp_sim: unknown workload '%s'\n",
                     which.c_str());
        printUsage(stderr);
        return 2;
    }

    // Reject flags neither the machine model nor the selected
    // workload understands — a typo silently ignored is a sweep
    // quietly running the wrong configuration.
    for (const auto &[key, value] : config.entries()) {
        static const std::set<std::string> ownFlags = {
            "stats", "csv", "obs", "obs-interval", "obs-series",
            "obs-sec-sets", "list"};
        if (findField(&ConfigField::flag, key) ||
            ownFlags.count(key) || knownWorkload->flags.count(key))
            continue;
        std::fprintf(stderr, "scmp_sim: unknown flag '--%s'\n",
                     key.c_str());
        printUsage(stderr);
        return 2;
    }

    MachineConfig machine = machineFromFlags(config);
    bool csv = config.getBool("csv", false);
    bool stats = config.getBool("stats", false);

    if (which == "fuzz")
        return runFuzz(config, machine, csv);

    if (which == "multiprog") {
        MultiprogParams params;
        params.totalRefs =
            (std::uint64_t)config.getInt("refs", 4'000'000);
        params.quantum =
            (Cycle)config.getInt("quantum", 5'000'000);
        auto result = runMultiprog(
            machine, spec::makeSpecWorkload(), params);
        printMetrics("multiprog", machine, result.cycles,
                     result.references, result.readMissRate,
                     result.invalidations, result.verified, csv);
        return result.verified ? 0 : 1;
    }

    std::unique_ptr<ParallelWorkload> workload;
    if (which == "barnes") {
        splash::BarnesParams params;
        params.nbodies = (int)config.getInt("bodies", 1024);
        params.steps = (int)config.getInt("steps", 4);
        params.theta = config.getDouble("theta", params.theta);
        workload = std::make_unique<splash::Barnes>(params);
    } else if (which == "mp3d") {
        splash::Mp3dParams params;
        params.nparticles =
            (int)config.getInt("particles", 10000);
        params.steps = (int)config.getInt("steps", 5);
        workload = std::make_unique<splash::Mp3d>(params);
    } else if (which == "cholesky") {
        splash::CholeskyParams params;
        params.gridRows = (int)config.getInt("grid-rows", 42);
        params.gridCols = (int)config.getInt("grid-cols", 43);
        workload = std::make_unique<splash::Cholesky>(params);
    } else if (which == "tmkmeans") {
        tmwork::TmKmeansParams params;
        params.points = (int)config.getInt("points", 2048);
        params.clusters = (int)config.getInt("centroids", 8);
        params.rounds = (int)config.getInt("rounds", 3);
        workload =
            std::make_unique<tmwork::TmKmeansWorkload>(params);
    } else if (which == "tmvacation") {
        tmwork::TmVacationParams params;
        params.resources = (int)config.getInt("resources", 64);
        params.capacity = (int)config.getInt("capacity", 16);
        params.txnsPerThread = (int)config.getInt("txns", 256);
        params.queryRange = (int)config.getInt("query-range", 4);
        workload =
            std::make_unique<tmwork::TmVacationWorkload>(params);
    } else if (which == "secpp") {
        secwork::PrimeProbeParams params = secwork::paramsFor(
            machine, (int)config.getInt("sec-epochs", 96),
            (int)config.getInt("sec-symbols", 8));
        workload =
            std::make_unique<secwork::PrimeProbeWorkload>(params);
    } else {
        fatal("unknown workload '", which, "'");
    }

    auto result = runParallel(machine, *workload, nullptr,
                              stats ? &std::cout : nullptr);
    printMetrics(which.c_str(), machine, result.cycles,
                 result.references, result.readMissRate,
                 result.invalidations, result.verified, csv);
    if (result.secEpochs && !csv) {
        std::printf("probe accuracy      %.3f (chance %.3f)\n",
                    result.secProbeAccuracy,
                    result.secChanceAccuracy);
        std::printf("leakage             %.3f bits/epoch over "
                    "%llu epochs\n",
                    result.leakBitsPerEpoch,
                    (unsigned long long)result.secEpochs);
    }

    auto unread = config.unreadKeys();
    for (const auto &key : unread)
        warn("unused option --", key);
    return result.verified ? 0 : 1;
}
