/**
 * @file
 * Transactional-memory study: what does speculating past locks buy
 * on the shared-cache machine?
 *
 * Runs the STAMP-character workloads (src/workloads/tm) through
 * sweep::tmPoints over {off, eager, lazy} × {atomic, split}
 * × speculative set sizes. --tm=off executes the very same
 * transaction call sites as plain lock/unlock critical sections,
 * so its rows are the lock baseline the speedups are measured
 * against. Each TM row reports execution time, the measured abort
 * rate (aborts / attempts), fallback-lock acquisitions, and the
 * speedup over the same fabric's lock baseline. The smallest set
 * size is deliberately below the kmeans footprint: its rows show
 * capacity aborts cascading into the fallback lock while the run
 * still completes and verifies — the forward-progress guarantee.
 *
 * Extra flags on top of bench_common:
 *   --set-entries=LIST  speculative set sizes (default 2,64)
 */

#include <iostream>

#include "bench_common.hh"
#include "core/config_schema.hh"
#include "workloads/tm/tm_workloads.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);

    const std::vector<TmMode> modes = {TmMode::Off, TmMode::Eager,
                                       TmMode::Lazy};
    const std::vector<NetTopology> topologies = {
        NetTopology::Atomic, NetTopology::Split};
    std::vector<int> setSizes =
        options.config.getIntList("set-entries", {2, 64});

    MachineConfig base;
    base.numClusters = 4;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;

    tmwork::TmKmeansParams kmeans;
    tmwork::TmVacationParams vacation;
    switch (options.scale) {
      case bench::Scale::Quick:
        kmeans.points = 1024;
        kmeans.rounds = 2;
        vacation.txnsPerThread = 128;
        break;
      case bench::Scale::Default:
        break;  // the workloads' defaults
      case bench::Scale::Full:
        kmeans.points = 8192;
        kmeans.rounds = 4;
        vacation.txnsPerThread = 1024;
        break;
    }

    struct Study
    {
        const char *name;
        DesignSpace::WorkloadFactory factory;
    };
    const Study studies[] = {
        {"kmeans",
         [kmeans] {
             return std::make_unique<tmwork::TmKmeansWorkload>(
                 kmeans);
         }},
        {"vacation",
         [vacation] {
             return std::make_unique<tmwork::TmVacationWorkload>(
                 vacation);
         }},
    };

    for (const Study &study : studies) {
        auto points = sweep::SweepExecutor(options.sweep)
                          .run(study.factory,
                               sweep::tmPoints(base, modes, topologies,
                                               setSizes));

        auto baselineAt = [&](NetTopology topology) -> Cycle {
            for (const sweep::SweepPoint &p : points) {
                if (p.config.tm.mode == TmMode::Off &&
                    p.config.net.topology == topology)
                    return p.result.cycles;
            }
            fatal("tm lock baseline missing from sweep");
        };

        Table table(std::string("TM: ") + study.name +
                    " 4x4, 64KB SCC (speedup vs the --tm=off lock "
                    "baseline on the same fabric)");
        table.setHeader({"Fabric", "Manager", "Set", "Cycles",
                         "Commits", "Abort rate", "Fallbacks",
                         "Speedup"});
        for (const sweep::SweepPoint &p : points) {
            const TmParams &tm = p.config.tm;
            NetTopology topology = p.config.net.topology;
            const RunResult &r = p.result;
            if (tm.mode == TmMode::Off) {
                table.addRow({enumName(topology), "lock", "-",
                              Table::cell(r.cycles), "-", "-", "-",
                              Table::cell(1.0, 3)});
                continue;
            }
            table.addRow(
                {enumName(topology), enumName(tm.mode),
                 Table::cell((std::uint64_t)tm.setEntries),
                 Table::cell(r.cycles), Table::cell(r.tmCommits),
                 Table::cell(r.tmAbortRate, 3),
                 Table::cell(r.tmFallbacks),
                 Table::cell((double)baselineAt(topology) /
                                 (double)r.cycles,
                             3)});
        }
        bench::emit(table, options);
    }
    return 0;
}
