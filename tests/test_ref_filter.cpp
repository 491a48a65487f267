/**
 * @file
 * Directed coherence-race tests: remote coherence events aimed
 * exactly between two same-line accesses of one cluster, under the
 * coherence checker. A repeat reference to a line the cluster has
 * just hit must still observe every invalidation, Update and
 * demotion that arrived in between — a stale hit is caught by the
 * oracle as well as by the stat assertions.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"

namespace
{

using namespace scmp;

MachineConfig
twoClusterConfig(CoherenceProtocol protocol)
{
    MachineConfig config;
    config.numClusters = 2;
    config.cpusPerCluster = 1;
    config.scc.protocol = protocol;
    config.checkCoherence = true;
    return config;
}

TEST(SccCoherenceRace, RemoteUpgradeBetweenSameLineReadsForcesMiss)
{
    // cpu 0 (cluster 0) hits line L; cpu 1 (cluster 1) upgrades L,
    // invalidating cluster 0's copy. The next read of L from cpu 0
    // must miss.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteInvalidate));
    const Addr line = 0x1000;
    Cycle now = 0;

    machine.access(0, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(0, RefType::Read, line, now, 1);       // hit
    now += 200;
    machine.access(1, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);      // Upgrade
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Invalid);
    now += 200;

    machine.access(0, RefType::Read, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readMisses.value(), 2u)
        << "a hit survived a remote invalidation";
    EXPECT_EQ((std::uint64_t)machine.scc(0).readHits.value(), 1u);
    EXPECT_EQ(
        (std::uint64_t)machine.scc(0).invalidationsReceived.value(),
        1u);
}

TEST(SccCoherenceRace, RemoteWriteMissBetweenSameLineReadsForcesMiss)
{
    // Same shape, but the remote write misses (ReadExcl on the bus)
    // instead of upgrading — the other invalidation source.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteInvalidate));
    const Addr line = 0x2000;
    Cycle now = 0;

    machine.access(0, RefType::Read, line, now, 1);       // miss
    now += 200;
    machine.access(0, RefType::Read, line, now, 1);       // hit
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);      // ReadExcl
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Invalid);
    now += 200;

    machine.access(0, RefType::Read, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readMisses.value(), 2u);
    EXPECT_EQ((std::uint64_t)machine.scc(0).readHits.value(), 1u);
}

TEST(SccCoherenceRace, UpdateAbsorbBetweenWritesDropsExclusivity)
{
    // Write-update: cpu 0 holds line L Modified and has just hit
    // it. cpu 1's write miss fetches a shared copy (demoting cpu 0)
    // and broadcasts an Update, which cpu 0 absorbs. cpu 0's next
    // write must NOT hit as if it held L exclusively — it has to
    // broadcast its own Update, or cpu 1 would be left with stale
    // data.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteUpdate));
    const Addr line = 0x3000;
    Cycle now = 0;

    machine.access(0, RefType::Write, line, now, 1);  // excl fill
    now += 200;
    machine.access(0, RefType::Write, line, now, 1);  // hit
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Modified);
    now += 200;
    machine.access(1, RefType::Write, line, now, 1);  // miss+Update
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Shared);
    EXPECT_EQ((std::uint64_t)machine.scc(0).updatesReceived.value(),
              1u);
    now += 200;

    double broadcastsBefore = machine.scc(0).updatesBroadcast.value();
    machine.access(0, RefType::Write, line, now, 1);
    EXPECT_EQ(machine.scc(0).updatesBroadcast.value(),
              broadcastsBefore + 1)
        << "write after a remote Update must re-broadcast";
    EXPECT_EQ((std::uint64_t)machine.scc(1).updatesReceived.value(),
              1u);
    EXPECT_EQ(machine.scc(1).stateOf(line), CoherenceState::Shared)
        << "remote copy survives under write-update";
}

TEST(SccCoherenceRace, RemoteReadDemotionBetweenWritesForcesBroadcast)
{
    // The demotion that leaves the line resident: a remote read
    // snoop downgrades Modified to Shared in place, so the next
    // write broadcasts an Update instead of silently hitting.
    Machine machine(
        twoClusterConfig(CoherenceProtocol::WriteUpdate));
    const Addr line = 0x4000;
    Cycle now = 0;

    machine.access(0, RefType::Write, line, now, 1);  // excl fill
    now += 200;
    machine.access(0, RefType::Write, line, now, 1);  // hit
    now += 200;
    machine.access(1, RefType::Read, line, now, 1);   // demote
    ASSERT_EQ(machine.scc(0).stateOf(line),
              CoherenceState::Shared);
    now += 200;

    machine.access(0, RefType::Write, line, now, 1);
    EXPECT_EQ((std::uint64_t)machine.scc(0).updatesBroadcast.value(),
              1u)
        << "write to a demoted line must broadcast";
    EXPECT_EQ(machine.scc(1).stateOf(line), CoherenceState::Shared);
    EXPECT_EQ((std::uint64_t)machine.scc(1).updatesReceived.value(),
              1u);
}

} // namespace
