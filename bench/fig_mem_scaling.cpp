/**
 * @file
 * Memory scaling study: DRAM channels × banks × scheduler.
 *
 * The paper charges every line fetch a flat 100 cycles, which makes
 * memory bandwidth free: misses never queue behind each other. This
 * figure swaps in the banked DRAM backend (src/dram) and asks how
 * much of that idealization matters. Barnes-Hut runs over
 * {banks per channel} × {channels} × {FCFS, FR-FCFS}, and the flat
 * backend is the contention-free reference column. With one bank
 * every miss in flight fights for the same row buffer and the
 * execution time balloons; adding banks and channels buys the
 * parallelism back, and FR-FCFS recovers more of it than FCFS at
 * the same geometry. With --results the sweep lands in a
 * ResultStore (each record tagged with its mem/channels/banks/
 * memSched axes), which is the data behind the mem-scaling curves
 * scripts/sweep_plot.py renders.
 *
 * Extra flags on top of bench_common:
 *   --channels=1,2,4     channel-count axis
 *   --mem-banks=1,2,4,8  banks-per-channel axis
 *   --row-bytes=N        row-buffer coverage (default 2048)
 */

#include <iostream>

#include "bench_common.hh"
#include "core/config_schema.hh"
#include "sweep/point_key.hh"

int
main(int argc, char **argv)
{
    using namespace scmp;
    auto options = bench::parseBenchArgs(argc, argv);

    std::vector<int> channelCounts =
        options.config.getIntList("channels", {1, 2, 4});
    std::vector<int> bankCounts =
        options.config.getIntList("mem-banks", {1, 2, 4, 8});
    const std::vector<MemSched> scheds = {MemSched::Fcfs,
                                          MemSched::FrFcfs};

    MachineConfig base;
    base.cpusPerCluster = 4;
    base.scc.sizeBytes = 64 << 10;
    base.dram.rowBytes =
        options.config.getSize("row-bytes", 2048);

    // The contention-free reference: the same machine and workload
    // on the paper's flat backend, run through the same
    // deterministic reseed-by-key path the sweeps use.
    auto factory = bench::barnesFactory(options);
    RunResult flat;
    {
        auto workload = factory();
        workload->reseed(sweep::pointKey(base, workload->name(),
                                         options.sweep.scale));
        flat = runParallel(base, *workload);
    }

    auto points = sweep::SweepExecutor(options.sweep)
                      .run(factory, sweep::memPoints(base, channelCounts,
                                                     bankCounts, scheds));

    auto pointAt = [&](MemSched sched, int channels,
                       int banks) -> const RunResult & {
        for (const sweep::SweepPoint &p : points) {
            const DramParams &dram = p.config.dram;
            if (dram.sched == sched && dram.channels == channels &&
                dram.banks == banks)
                return p.result;
        }
        fatal("mem scaling point missing from sweep");
    };

    auto comboName = [](int channels, MemSched sched) {
        return std::to_string(channels) + "ch/" +
               std::string(enumName(sched));
    };

    Table time("Memory scaling: execution time (cycles), Barnes "
               "4P/cluster, 64KB SCC");
    std::vector<std::string> header = {"Banks"};
    for (MemSched sched : scheds)
        for (int channels : channelCounts)
            header.push_back(comboName(channels, sched));
    header.push_back("flat");
    time.setHeader(header);
    for (int banks : bankCounts) {
        std::vector<std::string> row = {
            Table::cell((std::uint64_t)banks)};
        for (MemSched sched : scheds) {
            for (int channels : channelCounts) {
                row.push_back(Table::cell(
                    pointAt(sched, channels, banks).cycles));
            }
        }
        row.push_back(Table::cell(flat.cycles));
        time.addRow(row);
    }
    bench::emit(time, options);

    Table hits("Memory scaling: DRAM row-buffer hit rate");
    hits.setHeader(header);
    for (int banks : bankCounts) {
        std::vector<std::string> row = {
            Table::cell((std::uint64_t)banks)};
        for (MemSched sched : scheds) {
            for (int channels : channelCounts) {
                row.push_back(Table::cell(
                    pointAt(sched, channels, banks).dramRowHitRate,
                    4));
            }
        }
        // The flat backend has no row buffers; its column reads 0.
        row.push_back(Table::cell(flat.dramRowHitRate, 4));
        hits.addRow(row);
    }
    bench::emit(hits, options);
    return 0;
}
