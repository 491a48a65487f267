/**
 * @file
 * Tests for the correctness-tooling layer (src/check): the golden
 * memory oracle's semantics, the traffic generator's determinism,
 * and end-to-end checked fuzz runs over every machine shape.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>
#include <vector>

#include "check/checker.hh"
#include "check/oracle.hh"
#include "check/traffic.hh"
#include "core/machine.hh"
#include "exec/engine.hh"

namespace
{

using namespace scmp;
using namespace scmp::check;

// ---------------------------------------------------------------
// MemoryOracle semantics.
// ---------------------------------------------------------------

constexpr Addr kLine = 0x1000;

TEST(Oracle, GoldenAdvancesButShadowMemoryStaysStale)
{
    MemoryOracle oracle(2, 64);
    oracle.fill(0, kLine);
    oracle.commitWrite(0, kLine + 8, 1);

    // Golden memory sees the newest write immediately...
    EXPECT_EQ(oracle.golden(kLine + 8), 1u);
    EXPECT_EQ(oracle.loadValue(0, kLine + 8), 1u);
    // ...but shadow DRAM only advances on a mechanical flush, so
    // the dirty copy disagrees with memory until then.
    EXPECT_FALSE(oracle.copyMatchesMemory(0, kLine));

    oracle.flush(0, kLine);
    EXPECT_TRUE(oracle.copyMatchesMemory(0, kLine));

    // A fill after the flush observes the written value.
    oracle.fill(1, kLine);
    EXPECT_EQ(oracle.loadValue(1, kLine + 8), 1u);
}

TEST(Oracle, MissingFlushServesStaleData)
{
    // The bug class the golden/shadow split exists to catch: a
    // protocol that "forgets" the dirty flush hands the next
    // reader memory's stale words, and the load check sees the
    // golden value disagree.
    MemoryOracle oracle(2, 64);
    oracle.fill(0, kLine);
    oracle.commitWrite(0, kLine, 7);

    oracle.fill(1, kLine);  // no flush happened first
    EXPECT_NE(oracle.loadValue(1, kLine), oracle.golden(kLine));
    EXPECT_EQ(oracle.loadValue(1, kLine), 0u);
}

TEST(Oracle, SilentDropOfDirtyDataDies)
{
    MemoryOracle oracle(1, 64);
    oracle.fill(0, kLine);
    oracle.commitWrite(0, kLine, 3);
    EXPECT_DEATH(oracle.drop(0, kLine, /*expectClean=*/true),
                 "dirty data");
}

TEST(Oracle, DropOfUnheldLineDies)
{
    MemoryOracle oracle(1, 64);
    EXPECT_DEATH(oracle.drop(0, kLine, false), "never held");
}

TEST(Oracle, DoubleFillDies)
{
    MemoryOracle oracle(1, 64);
    oracle.fill(0, kLine);
    EXPECT_DEATH(oracle.fill(0, kLine), "already holds");
}

TEST(Oracle, UpdateBroadcastKeepsSharersCoherent)
{
    MemoryOracle oracle(2, 64);
    oracle.fill(0, kLine);
    oracle.fill(1, kLine);

    // Writer 0 broadcasts word kLine+16 with value 5: the sharer
    // absorbs it and memory is written through, as in Firefly.
    oracle.applyUpdate(1, kLine, kLine + 16, 5);
    oracle.updateMemory(kLine + 16, 5);
    oracle.commitWrite(0, kLine + 16, 5);

    EXPECT_EQ(oracle.loadValue(0, kLine + 16), 5u);
    EXPECT_EQ(oracle.loadValue(1, kLine + 16), 5u);
    EXPECT_TRUE(oracle.copyMatchesMemory(0, kLine));
    EXPECT_TRUE(oracle.copyMatchesMemory(1, kLine));
}

TEST(Oracle, TracksCopiesPerCache)
{
    MemoryOracle oracle(2, 64);
    oracle.fill(0, kLine);
    oracle.fill(0, kLine + 64);
    EXPECT_EQ(oracle.copyCount(0), 2u);
    EXPECT_EQ(oracle.copyCount(1), 0u);
    EXPECT_TRUE(oracle.hasCopy(0, kLine));
    EXPECT_FALSE(oracle.hasCopy(1, kLine));
    oracle.drop(0, kLine, true);
    EXPECT_EQ(oracle.copyCount(0), 1u);
}

// ---------------------------------------------------------------
// TrafficGen determinism.
// ---------------------------------------------------------------

/** Memory stub that records the reference stream. */
class RecordingMemory : public MemorySystem
{
  public:
    struct Ref
    {
        CpuId cpu;
        RefType type;
        Addr addr;

        bool
        operator==(const Ref &other) const
        {
            return cpu == other.cpu && type == other.type &&
                   addr == other.addr;
        }
    };

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t instrGap) override
    {
        (void)instrGap;
        refs.push_back({cpu, type, addr});
        return now + 1;
    }

    std::vector<Ref> refs;
};

TEST(Traffic, SameSeedSameStream)
{
    TrafficParams params;
    params.seed = 42;
    params.steps = 5000;
    params.totalCpus = 4;

    RecordingMemory a, b;
    TrafficGen(params).run(a);
    TrafficGen(params).run(b);
    ASSERT_EQ(a.refs.size(), b.refs.size());
    EXPECT_TRUE(a.refs == b.refs);
}

TEST(Traffic, DifferentSeedsDiffer)
{
    TrafficParams params;
    params.steps = 5000;
    params.totalCpus = 4;

    RecordingMemory a, b;
    params.seed = 1;
    TrafficGen(params).run(a);
    params.seed = 2;
    TrafficGen(params).run(b);
    EXPECT_FALSE(a.refs == b.refs);
}

TEST(Traffic, MixCountersAccountForEveryReference)
{
    TrafficParams params;
    params.seed = 9;
    params.steps = 10000;
    params.totalCpus = 8;

    RecordingMemory mem;
    TrafficStats stats = TrafficGen(params).run(mem);
    EXPECT_EQ(stats.reads + stats.writes, params.steps);
    EXPECT_EQ(stats.sharedRefs + stats.falseShareRefs +
                  stats.privateRefs,
              params.steps);
    // The default mix must actually produce all three behaviours.
    EXPECT_GT(stats.sharedRefs, 0u);
    EXPECT_GT(stats.falseShareRefs, 0u);
    EXPECT_GT(stats.privateRefs, 0u);
    EXPECT_GT(stats.writes, 0u);
}

// ---------------------------------------------------------------
// End-to-end checked runs.
// ---------------------------------------------------------------

MachineConfig
checkedConfig()
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;
    config.checkCoherence = true;
    return config;
}

void
runCheckedFuzz(MachineConfig config, std::uint64_t seed)
{
    Machine machine(config);
    ASSERT_TRUE(machine.checking());

    TrafficParams params;
    params.seed = seed;
    params.steps = 30000;
    params.totalCpus = config.totalCpus();
    params.lineBytes = config.scc.lineBytes;
    TrafficGen(params).run(machine);

    const CoherenceChecker *checker = machine.checker();
    ASSERT_NE(checker, nullptr);
    EXPECT_GT(checker->loadsChecked.value(), 0.0);
    EXPECT_GT(checker->storesChecked.value(), 0.0);
    EXPECT_GT(checker->lineChecks.value(), 0.0);
    EXPECT_GT(checker->fullWalks.value(), 0.0);
    EXPECT_GT(checker->eventsObserved.value(), 0.0);
    EXPECT_GT(checker->bankChecks.value(), 0.0);
}

TEST(CheckedFuzz, WriteInvalidateRunsClean)
{
    runCheckedFuzz(checkedConfig(), 11);
}

TEST(CheckedFuzz, WriteUpdateRunsClean)
{
    MachineConfig config = checkedConfig();
    config.scc.protocol = CoherenceProtocol::WriteUpdate;
    runCheckedFuzz(config, 12);
}

TEST(CheckedFuzz, PrivateCachesRunClean)
{
    MachineConfig config = checkedConfig();
    config.organization = ClusterOrganization::PrivateCaches;
    runCheckedFuzz(config, 13);
}

TEST(CheckedFuzz, ExhaustiveWalkEveryTransaction)
{
    // walkInterval 0 sweeps the tags after EVERY bus transaction —
    // the strongest (slowest) setting, kept small here.
    MachineConfig config = checkedConfig();
    config.checkWalkInterval = 0;

    Machine machine(config);
    TrafficParams params;
    params.seed = 21;
    params.steps = 4000;
    params.totalCpus = config.totalCpus();
    TrafficGen(params).run(machine);
    EXPECT_EQ(machine.checker()->fullWalks.value(),
              machine.checker()->lineChecks.value());
}

/** A fuzzed two-cluster machine and its caches, for direct walks. */
struct WalkedMachine
{
    WalkedMachine() : machine(checkedConfig())
    {
        TrafficParams params;
        params.seed = 31;
        params.steps = 4000;
        params.totalCpus = machine.config().totalCpus();
        params.lineBytes = machine.config().scc.lineBytes;
        TrafficGen(params).run(machine);
        caches = {&machine.scc(0), &machine.scc(1)};
    }

    /**
     * Apply @p plant to every line of cluster 0's tags, then walk.
     * Death tests call this inside the forked child, so the planted
     * corruption never reaches the checker's teardown walk.
     */
    template <typename Fn>
    void
    plantAndWalk(Fn plant)
    {
        const_cast<TagArray &>(machine.scc(0).tags())
            .forEachLine(plant);
        walkTagInvariants(caches, nullptr);
    }

    Machine machine;
    std::vector<const SharedClusterCache *> caches;
};

TEST(TagWalk, ChecksEveryValidLinesBank)
{
    WalkedMachine m;
    WalkStats stats = walkTagInvariants(m.caches, nullptr);
    EXPECT_GT(stats.validLines, 0u);
    EXPECT_EQ(stats.bankChecks, stats.validLines);
}

TEST(TagWalkDeath, WrongBankDies)
{
    WalkedMachine m;
    const SharedClusterCache &scc = m.machine.scc(0);
    EXPECT_DEATH(m.plantAndWalk([&](CacheLine &line) {
        if (line.valid())
            line.bank = (std::uint32_t)((scc.bankOf(line.tag) + 1) %
                                        scc.numBanks());
    }),
                 "interleaves to bank");
}

TEST(TagWalkDeath, PendingFillOnInvalidLineDies)
{
    WalkedMachine m;
    ASSERT_LT(m.machine.scc(0).tags().validLines(),
              m.machine.scc(0).tags().numSets() *
                  m.machine.scc(0).tags().assoc())
        << "no invalid line to plant on";
    EXPECT_DEATH(m.plantAndWalk([](CacheLine &line) {
        if (!line.valid())
            line.pending = true;
    }),
                 "invalid line carrying a pending fill");
}

TEST(CheckedFuzz, CheckerOffByDefault)
{
    MachineConfig config;
    unsetenv("SCMP_CHECK");
    Machine machine(config);
    EXPECT_FALSE(machine.checking());
    EXPECT_EQ(machine.checker(), nullptr);
}

TEST(CheckedFuzz, EnvironmentVariableAttachesChecker)
{
    MachineConfig config;
    setenv("SCMP_CHECK", "1", 1);
    {
        Machine machine(config);
        EXPECT_TRUE(machine.checking());
    }
    setenv("SCMP_CHECK", "0", 1);
    {
        Machine machine(config);
        EXPECT_FALSE(machine.checking());
    }
    unsetenv("SCMP_CHECK");
}

TEST(CheckedFuzz, CheckerObservesWithoutPerturbing)
{
    // The checker must be purely observational: a checked and an
    // unchecked run of the same traffic produce identical protocol
    // behaviour and timing-relevant metrics.
    auto metrics = [](bool check) {
        MachineConfig config = checkedConfig();
        config.checkCoherence = check;
        Machine machine(config);
        TrafficParams params;
        params.seed = 31;
        params.steps = 20000;
        params.totalCpus = config.totalCpus();
        TrafficGen(params).run(machine);
        return std::tuple(machine.readMissRate(),
                          machine.missRate(),
                          machine.invalidations());
    };
    EXPECT_EQ(metrics(false), metrics(true));
}

} // namespace
