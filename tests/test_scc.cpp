/**
 * @file
 * Tests for the Shared Cluster Cache: bank interleaving and
 * contention, MSHR merging (the prefetch mechanism), hit/miss
 * timing and statistics, and a fixture pinning the cache's whole
 * hit/merge/retire/eviction sequence under fuzz traffic. The
 * directed coherence races live in test_ref_filter.cpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/traffic.hh"
#include "core/machine.hh"
#include "mem/bus.hh"
#include "mem/scc.hh"

namespace
{

using namespace scmp;

class SccTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = std::make_unique<stats::Group>("test");
        bus = std::make_unique<SnoopyBus>(root.get(), BusParams{});
        scc = std::make_unique<SharedClusterCache>(
            root.get(), 0, 2, SccParams{}, bus.get());
        bus->attach(scc.get());
    }

    std::unique_ptr<stats::Group> root;
    std::unique_ptr<SnoopyBus> bus;
    std::unique_ptr<SharedClusterCache> scc;
};

TEST_F(SccTest, LineInterleavedBanks)
{
    // Two processors x four banks each = eight banks; consecutive
    // 16-byte lines land in consecutive banks.
    EXPECT_EQ(scc->numBanks(), 8);
    for (int line = 0; line < 32; ++line) {
        EXPECT_EQ(scc->bankOf((Addr)line * 16), line % 8);
        // All bytes of a line go to the same bank.
        EXPECT_EQ(scc->bankOf((Addr)line * 16 + 15),
                  scc->bankOf((Addr)line * 16));
    }
}

TEST_F(SccTest, MissCostsMemoryLatency)
{
    Cycle done = scc->access(0, RefType::Read, 0x1000, 10);
    EXPECT_EQ(done, 10 + BusParams{}.memoryLatency);
    EXPECT_EQ((std::uint64_t)scc->readMisses.value(), 1u);
}

TEST_F(SccTest, HitIsImmediate)
{
    Cycle filled = scc->access(0, RefType::Read, 0x1000, 0);
    Cycle done = scc->access(1, RefType::Read, 0x1008, filled + 5);
    EXPECT_EQ(done, filled + 5);
    EXPECT_EQ((std::uint64_t)scc->readHits.value(), 1u);
}

TEST_F(SccTest, BankConflictDelaysSecondAccess)
{
    // Warm two lines that live in the same bank (stride = #banks).
    Addr a = 0;
    Addr b = 8 * 16;
    Cycle warm = 0;
    warm = scc->access(0, RefType::Read, a, warm) + 1;
    warm = scc->access(0, RefType::Read, b, warm) + 1;

    // Both processors hit the same bank in the same cycle.
    Cycle start = warm + 100;
    Cycle first = scc->access(0, RefType::Read, a, start);
    Cycle second = scc->access(1, RefType::Read, b, start);
    EXPECT_EQ(first, start);
    EXPECT_EQ(second, start + SccParams{}.bankOccupancy);
    EXPECT_GT(scc->bankConflictCycles.value(), 0.0);
}

TEST_F(SccTest, DifferentBanksDoNotConflict)
{
    Addr a = 0;
    Addr b = 16;  // next line, next bank
    Cycle warm = 0;
    warm = scc->access(0, RefType::Read, a, warm) + 1;
    warm = scc->access(0, RefType::Read, b, warm) + 1;

    Cycle start = warm + 100;
    EXPECT_EQ(scc->access(0, RefType::Read, a, start), start);
    EXPECT_EQ(scc->access(1, RefType::Read, b, start), start);
}

TEST_F(SccTest, MshrMergesConcurrentMisses)
{
    // Processor 0 misses; processor 1 touches the same line while
    // the fill is outstanding: no second bus transaction, and the
    // second access completes at the same fill time — the paper's
    // inter-processor prefetch effect.
    Cycle fill = scc->access(0, RefType::Read, 0x2000, 0);
    double transactionsBefore = bus->transactions.value();
    Cycle merged = scc->access(1, RefType::Read, 0x2008, 2);
    EXPECT_EQ(merged, fill);
    EXPECT_EQ(bus->transactions.value(), transactionsBefore);
    EXPECT_EQ((std::uint64_t)scc->mergedMisses.value(), 1u);
}

TEST_F(SccTest, WriteJoiningReadFillUpgrades)
{
    scc->access(0, RefType::Read, 0x3000, 0);
    double upgradesBefore = bus->upgrades.value();
    scc->access(1, RefType::Write, 0x3000, 5);
    EXPECT_EQ(scc->stateOf(0x3000), CoherenceState::Modified);
    EXPECT_EQ(bus->upgrades.value(), upgradesBefore + 1);
}

TEST_F(SccTest, MergedReadWriteAccountsStallsAndConflicts)
{
    // Pin every stat on the merge path: processor 0 read-misses a
    // line, processor 1 writes the same line in the same cycle.
    // The write pays bank arbitration (same bank, same cycle),
    // merges into the outstanding fill (no second miss, no write
    // stats), stalls until the fill, and issues exactly one
    // Upgrade to make the Shared fill writable.
    const Cycle lat = BusParams{}.memoryLatency;
    const Cycle occ = SccParams{}.bankOccupancy;

    Cycle fill = scc->access(0, RefType::Read, 0x2000, 0);
    EXPECT_EQ(fill, lat);
    double upgradesBefore = bus->upgrades.value();
    double transactionsBefore = bus->transactions.value();

    Cycle merged = scc->access(1, RefType::Write, 0x2008, 0);
    EXPECT_EQ(merged, fill) << "joined write completes at fill";

    // Classification: one read miss, one merge; the joining write
    // is neither a write hit nor a write miss.
    EXPECT_EQ((std::uint64_t)scc->readMisses.value(), 1u);
    EXPECT_EQ((std::uint64_t)scc->mergedMisses.value(), 1u);
    EXPECT_EQ((std::uint64_t)scc->writeMisses.value(), 0u);
    EXPECT_EQ((std::uint64_t)scc->writeHits.value(), 0u);
    EXPECT_EQ((std::uint64_t)scc->readHits.value(), 0u);

    // Timing: the write waited `occ` for the bank (charged to bank
    // conflicts, not miss stall), then fill - (0 + occ) for the
    // data; the original miss waited the full latency.
    EXPECT_EQ((Cycle)scc->bankConflictCycles.value(), occ);
    EXPECT_EQ((Cycle)scc->missStallCycles.value(),
              (fill - 0) + (fill - occ));

    // Coherence: exactly one extra transaction (the Upgrade), and
    // the line ends up writable.
    EXPECT_EQ(bus->upgrades.value(), upgradesBefore + 1);
    EXPECT_EQ(bus->transactions.value(), transactionsBefore + 1);
    EXPECT_EQ(scc->stateOf(0x2000), CoherenceState::Modified);
}

TEST_F(SccTest, MissRatesAggregateCorrectly)
{
    Cycle now = 0;
    // 1 read miss + 3 read hits; 1 write miss + 1 write hit.
    now = scc->access(0, RefType::Read, 0x100, now) + 10;
    for (int i = 0; i < 3; ++i)
        now = scc->access(0, RefType::Read, 0x100, now) + 10;
    now = scc->access(0, RefType::Write, 0x4000, now) + 200;
    now = scc->access(0, RefType::Write, 0x4000, now) + 10;
    EXPECT_DOUBLE_EQ(scc->readMissRate(), 0.25);
    EXPECT_DOUBLE_EQ(scc->missRate(), 2.0 / 6.0);
}

TEST_F(SccTest, WriteToModifiedStaysSilent)
{
    Cycle now = scc->access(0, RefType::Write, 0x5000, 0) + 10;
    double transactions = bus->transactions.value();
    scc->access(0, RefType::Write, 0x5000, now);
    scc->access(1, RefType::Write, 0x5000, now + 5);
    EXPECT_EQ(bus->transactions.value(), transactions);
}

TEST(SccConfig, BanksScaleWithProcessors)
{
    stats::Group root("t");
    SnoopyBus bus(&root, BusParams{});
    for (int cpus : {1, 2, 4, 8}) {
        stats::Group group(&root,
                           "scc" + std::to_string(cpus));
        SharedClusterCache scc(&group, 0, cpus, SccParams{},
                               &bus);
        EXPECT_EQ(scc.numBanks(), 4 * cpus);
    }
}

TEST(SccConfig, IfetchIsRejected)
{
    stats::Group root("t");
    SnoopyBus bus(&root, BusParams{});
    SharedClusterCache scc(&root, 0, 1, SccParams{}, &bus);
    EXPECT_DEATH(scc.access(0, RefType::Ifetch, 0, 0),
                 "instruction fetches");
}

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes, continuing from @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t hash = fnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i)
        hash = (hash ^ p[i]) * 0x100000001b3ull;
    return hash;
}

/**
 * Forwards every reference and fence to a Machine and folds the
 * recorder's live-MSHR count after each one into a digest: the
 * mshrLive series at reference granularity.
 */
class LiveMshrProbe : public MemorySystem
{
  public:
    explicit LiveMshrProbe(Machine &machine) : _machine(machine) {}

    Cycle
    access(CpuId cpu, RefType type, Addr addr, Cycle now,
           std::uint32_t instrGap) override
    {
        Cycle done = _machine.access(cpu, type, addr, now, instrGap);
        sample();
        return done;
    }

    Cycle
    fence(CpuId cpu, Cycle now) override
    {
        Cycle done = _machine.fence(cpu, now);
        sample();
        return done;
    }

    std::uint64_t digest = fnvBasis;
    std::uint64_t peak = 0;

  private:
    void
    sample()
    {
        std::uint64_t live = _machine.recorder()->mshrLive();
        peak = std::max(peak, live);
        digest = fnv1a(&live, sizeof live, digest);
    }

    Machine &_machine;
};

/**
 * One seeded fuzz-traffic run, summarized as a fixture line: the
 * stats dump's digest, the recorder's MSHR allocate/merge/retire
 * counts, and the live-MSHR series' digest and peak.
 */
std::string
sccEventsLine(CoherenceProtocol protocol, std::uint32_t assoc,
              bool rand, bool weak)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 16 << 10;
    config.scc.assoc = assoc;
    config.scc.protocol = protocol;
    if (rand) {
        config.scc.sec.mode = IsolationMode::Rand;
        config.scc.sec.domains = 2;
        config.scc.sec.rekeyFills = 512;
    }
    if (weak) {
        config.consistency.model = ConsistencyModel::Weak;
        config.consistency.storeBufferEntries = 4;
    }
    config.obs.enabled = true;
    config.obs.eventCap = 1024;

    Machine machine(config);
    check::TrafficParams traffic;
    traffic.seed = 11;
    traffic.steps = 20000;
    traffic.totalCpus = config.totalCpus();
    traffic.lineBytes = config.scc.lineBytes;
    traffic.fenceFraction = weak ? 0.02 : 0.0;
    LiveMshrProbe probe(machine);
    check::TrafficGen(traffic).run(probe);

    // The machine's statistics without the checker's own counters,
    // so the fixture also holds when SCMP_CHECK attaches a checker.
    std::ostringstream dump;
    machine.statsRoot().dump(dump);
    std::istringstream lines(dump.str());
    std::string stats;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("system.check.", 0) != 0)
            stats += line + "\n";
    }
    const obs::Recorder &recorder = *machine.recorder();

    char line[256];
    std::snprintf(
        line, sizeof line,
        "%s-a%u-%s-%s stats=%016llx allocs=%llu merges=%llu "
        "retires=%llu live=%016llx live_peak=%llu",
        protocol == CoherenceProtocol::WriteUpdate ? "update"
                                                   : "invalidate",
        assoc, rand ? "rand" : "none", weak ? "weak" : "sc",
        (unsigned long long)fnv1a(stats.data(), stats.size()),
        (unsigned long long)recorder.mshrAllocs(),
        (unsigned long long)recorder.mshrMerges(),
        (unsigned long long)recorder.mshrRetires(),
        (unsigned long long)probe.digest,
        (unsigned long long)probe.peak);
    return line;
}

TEST(SccEvents, MatchFixture)
{
    std::vector<std::string> actual;
    for (CoherenceProtocol protocol :
         {CoherenceProtocol::WriteInvalidate,
          CoherenceProtocol::WriteUpdate}) {
        for (std::uint32_t assoc : {1u, 4u}) {
            for (bool rand : {false, true}) {
                for (bool weak : {false, true})
                    actual.push_back(
                        sccEventsLine(protocol, assoc, rand, weak));
            }
        }
    }

    std::ifstream in(std::string(SCMP_GOLDEN_DIR) +
                     "/scc_events.txt");
    ASSERT_TRUE(in.good()) << "missing scc_events.txt fixture";
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);
    }
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(expected[i], actual[i]);
}

} // namespace
