/**
 * @file
 * Host-parallel, resumable design-space sweep execution.
 *
 * Every figure and table in the paper is a grid sweep over
 * {processors per cluster} x {SCC size}; the axis studies (net,
 * mem, consistency, tm, isolation) sweep other machine axes. Both
 * are an ordered PointList — a MachineConfig plus axis tags per
 * point — and each point is a fully self-contained simulation
 * (fresh Machine, fresh workload, fresh Arena, deterministic
 * engine). The SweepExecutor exploits that independence: a
 * work-stealing pool of host threads runs points concurrently, a
 * ResultStore persists each completed point keyed by its stable
 * configuration hash, and a resumed sweep skips every point the
 * store already holds.
 *
 * Correctness bar: a sweep with --jobs=N produces bit-identical
 * RunResults to the serial sweep. Each point's inputs are functions
 * only of its own configuration (the executor hands the point its
 * config-hash seed before setup; nothing is shared across points),
 * so results cannot depend on host scheduling order.
 */

#ifndef SCMP_SWEEP_SWEEP_HH
#define SCMP_SWEEP_SWEEP_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/design_space.hh"
#include "obs/recorder.hh"
#include "sweep/result_store.hh"

namespace scmp::sweep
{

/**
 * Evaluation model for a sweep (--model=cycle|analytic|hybrid).
 *
 * Cycle runs every point through the cycle-accurate machine — the
 * reference mode, and the only one whose results are exact.
 * Analytic profiles the workload's reuse-distance histograms once
 * (src/model) and predicts every point from that single pass —
 * orders of magnitude faster, within the model's error bars.
 * Hybrid screens the whole grid analytically, ranks points by
 * predicted cycles, and runs only the top-K frontier
 * cycle-accurately — fast where the grid is boring, exact where it
 * matters. The analytic model covers only the processors x SCC
 * grid, so analytic and hybrid reject any list that varies another
 * axis.
 */
enum class SweepModel
{
    Cycle,
    Analytic,
    Hybrid,
};

/** Parse "cycle"/"analytic"/"hybrid"; fatal on anything else. */
SweepModel parseSweepModel(std::string_view text);

/** The canonical lowercase name of @p model. */
const char *sweepModelName(SweepModel model);

/**
 * Parse --jobs: "auto" (0, one worker per hardware thread) or a
 * non-negative count; fatal on anything else.
 */
int parseJobs(std::string_view text);

/** Execution knobs for one sweep (--jobs/--results/--resume). */
struct SweepOptions
{
    /** Worker threads; 1 = serial, 0 = one per hardware thread. */
    int jobs = 1;

    /** Evaluation model (see SweepModel). */
    SweepModel model = SweepModel::Cycle;

    /**
     * Hybrid mode: number of analytically top-ranked points that
     * get the cycle-accurate treatment. 0 = auto, max(3, total/4).
     */
    int topK = 0;

    /**
     * Profiling-pass sampling knobs (analytic/hybrid): SHARDS
     * sample shift (rate 1/2^shift, 0 = exact) and histogram
     * recording cap (0 = unbounded). See model::ProfileRunOptions.
     */
    std::uint32_t profileSampleShift = 0;
    std::uint64_t profileMaxSamples = 0;

    /** JSON-lines result store path; empty = no persistence. */
    std::string resultsPath;

    /**
     * Reload resultsPath and skip already-stored points. Without
     * this flag an existing results file is overwritten.
     */
    bool resume = false;

    /** inform() per-point progress with wall time and ETA. */
    bool verbose = false;

    /** Scale tag mixed into each point's store key. */
    std::string scale = "default";

    /**
     * Attach each point's hierarchical statistics tree (as JSON,
     * see stats::Group::dumpJson) to its store record.
     */
    bool attachStats = false;

    /**
     * Observability (src/obs) applied to every point's machine.
     * File paths are suffixed with each point's key so concurrent
     * workers never collide; with captureSeries set, each point's
     * interval-metrics series lands in its store record. Never part
     * of the point key — resumed sweeps match either way.
     */
    obs::RecorderConfig obs;
};

/** Counters describing what one run() actually did. */
struct SweepRunStats
{
    std::size_t total = 0;     //!< points requested
    std::size_t computed = 0;  //!< simulated this run
    std::size_t reused = 0;    //!< served from the result store
    std::size_t screened = 0;  //!< evaluated analytically
    double wallMs = 0;         //!< whole-sweep host wall time
    double profileMs = 0;      //!< reuse-profiling pass wall time
    double analyticMs = 0;     //!< analytic evaluation wall time
    int jobs = 0;              //!< worker threads actually used
};

/**
 * Process-wide default options, set once by the bench/example
 * command-line plumbing so every DesignSpace::sweep call in the
 * binary honours --jobs/--results/--resume without threading the
 * options through each call site. Not thread-safe; set before
 * sweeping.
 */
void setDefaultSweepOptions(const SweepOptions &options);
const SweepOptions &defaultSweepOptions();

/**
 * One design point of a sweep: the machine it runs, the axis tags
 * that name it in the result store and progress lines, and (once
 * SweepExecutor::run returns it) its result.
 */
struct SweepPoint
{
    MachineConfig config;
    AxisTags axes;
    RunResult result;
};

/**
 * An ordered list of points derived from one template machine.
 * Points run (serially), are stored and come back in list order.
 */
struct PointList
{
    /**
     * The template every point varies. The analytic screen
     * profiles it at the list's widest cluster, and accepts only
     * lists that vary it in cpusPerCluster and scc.sizeBytes alone.
     */
    MachineConfig base;
    std::vector<SweepPoint> points;
};

/// @name Point-list generators: the paper's grid and the studies.
/// Each keeps its study's historical order and skip rules, so
/// point keys and stored records match stores written before the
/// studies shared the executor.
/// @{

/** base x sccSizes x clusterSizes, cluster sizes outer; no axes. */
PointList gridPoints(const MachineConfig &base,
                     const std::vector<std::uint64_t> &sccSizes,
                     const std::vector<int> &clusterSizes);

/** Topology outer, cluster count inner; "clusters"/"net" axes. */
PointList netPoints(const MachineConfig &base,
                    const std::vector<int> &clusterCounts,
                    const std::vector<NetTopology> &topologies);

/**
 * Scheduler, channels, banks (outer to inner) on the banked DRAM
 * backend; "mem"/"channels"/"banks"/"memSched" axes. base.dram
 * supplies timing and row geometry.
 */
PointList memPoints(const MachineConfig &base,
                    const std::vector<int> &channelCounts,
                    const std::vector<int> &bankCounts,
                    const std::vector<MemSched> &scheds);

/**
 * Model, topology, arbitration (outer to inner); "net"/"consistency"
 * axes. Arbitration is a split-bus knob, so other fabrics take only
 * the first discipline.
 */
PointList consistencyPoints(
    const MachineConfig &base,
    const std::vector<ConsistencyModel> &models,
    const std::vector<NetTopology> &topologies,
    const std::vector<NetArbitration> &arbitrations);

/**
 * Mode, topology, set size (outer to inner); "net"/"tm"/"tmEntries"
 * axes. Set size is a conflict-manager knob, so the --tm=off lock
 * baseline takes only the first size and carries no "tmEntries".
 */
PointList tmPoints(const MachineConfig &base,
                   const std::vector<TmMode> &modes,
                   const std::vector<NetTopology> &topologies,
                   const std::vector<int> &setSizes);

/**
 * Mode outer, domain count inner; "isolation"/"isolationDomains"
 * axes. Domains are a mitigation knob, so the --isolation=none
 * baseline takes only the first count and carries no
 * "isolationDomains".
 */
PointList isolationPoints(const MachineConfig &base,
                          const std::vector<IsolationMode> &modes,
                          const std::vector<int> &domainCounts);
/// @}

/** Work-stealing executor over one list of design points. */
class SweepExecutor
{
  public:
    explicit SweepExecutor(SweepOptions options);

    /**
     * Evaluate every point of @p list and return the points, in
     * list order, with their results filled in. May be called
     * repeatedly; runStats() describes the most recent run.
     */
    std::vector<SweepPoint> run(
        const DesignSpace::WorkloadFactory &factory,
        const PointList &list);

    /** run() over gridPoints(), returned as a DesignGrid. */
    DesignGrid run(const DesignSpace::WorkloadFactory &factory,
                   const MachineConfig &base,
                   const std::vector<std::uint64_t> &sccSizes,
                   const std::vector<int> &clusterSizes);

    const SweepRunStats &runStats() const { return _stats; }
    const SweepOptions &options() const { return _options; }

  private:
    SweepOptions _options;
    SweepRunStats _stats;
};

} // namespace scmp::sweep

#endif // SCMP_SWEEP_SWEEP_HH
