/**
 * @file
 * Tests for the MachineConfig schema: enum spellings round-trip,
 * flags set the fields they name, and out-of-range flag values and
 * field values fail with a one-line message.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config_schema.hh"
#include "sim/config.hh"

namespace
{

using namespace scmp;

/** The machine scmp builds from @p args ("--key=value" strings). */
MachineConfig
fromFlags(std::vector<std::string> args)
{
    args.insert(args.begin(), "scmp");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    Config flags;
    flags.parseArgs((int)argv.size(), argv.data());
    MachineConfig config;
    applyFlags(flags, config);
    return config;
}

TEST(ConfigSchema, EverySpellingRoundTrips)
{
    int enums = 0;
    for (const ConfigField &field : configSchema()) {
        if (field.kind != FieldKind::Enum)
            continue;
        ++enums;
        ASSERT_FALSE(field.spellings.empty()) << field.name;
        for (const Spelling &s : field.spellings) {
            std::uint64_t value = ~0ull;
            EXPECT_TRUE(parseSpelling(field.spellings, s.name, &value))
                << s.name;
            EXPECT_EQ(value, s.value) << s.name;
            if (!s.alias) {
                EXPECT_STREQ(spellingName(field.spellings, s.value),
                             s.name);
            }
            if (field.flag) {
                MachineConfig config =
                    fromFlags({std::string("--") + field.flag + "=" +
                               s.name});
                EXPECT_EQ(field.get(config), s.value) << s.name;
            }
        }
        std::uint64_t value = 0;
        EXPECT_FALSE(parseSpelling(field.spellings, "bogus", &value));
    }
    EXPECT_EQ(enums, 9);

    NetArbitration arbitration = NetArbitration::Priority;
    EXPECT_TRUE(parseEnum("round-robin", &arbitration));
    EXPECT_EQ(arbitration, NetArbitration::RoundRobin);
    EXPECT_STREQ(enumName(arbitration), "rr");
    MemSched sched = MemSched::Fcfs;
    EXPECT_TRUE(parseEnum("fr-fcfs", &sched));
    EXPECT_STREQ(enumName(sched), "frfcfs");
}

TEST(ConfigSchemaDeath, UnknownSpellingNamesTheChoices)
{
    EXPECT_EXIT(fromFlags({"--arbitration=lottery"}),
                ::testing::ExitedWithCode(1),
                "--arbitration must be 'rr' or 'priority' "
                "\\(got 'lottery'\\); see --list");
    EXPECT_EXIT(fromFlags({"--organization=mixed"}),
                ::testing::ExitedWithCode(1),
                "--organization must be 'shared' or 'private'");
    EXPECT_EXIT(fromFlags({"--isolation=flush"}),
                ::testing::ExitedWithCode(1),
                "--isolation must be 'none', 'waypart', 'color' or "
                "'rand'");
}

TEST(ConfigSchema, FlagsSetTheirFields)
{
    MachineConfig config = fromFlags(
        {"--clusters=2", "--procs=8", "--scc=128K", "--line=32",
         "--bus-occupancy=8", "--net=tree", "--sf-cap=64",
         "--mem=banked", "--mem-banks=8", "--tm=lazy",
         "--tm-set-entries=2", "--rekey-fills=0x100", "--icache",
         "--check"});
    EXPECT_EQ(config.numClusters, 2);
    EXPECT_EQ(config.cpusPerCluster, 8);
    EXPECT_EQ(config.scc.sizeBytes, 128u << 10);
    EXPECT_EQ(config.scc.lineBytes, 32u);
    EXPECT_EQ(config.bus.transferOccupancy, 8u);
    EXPECT_EQ(config.net.topology, NetTopology::Tree);
    EXPECT_EQ(config.net.snoopFilterCapacity, 64u);
    EXPECT_EQ(config.dram.kind, MemBackendKind::Banked);
    EXPECT_EQ(config.dram.banks, 8);
    EXPECT_EQ(config.tm.mode, TmMode::Lazy);
    EXPECT_EQ(config.tm.setEntries, 2);
    EXPECT_EQ(config.scc.sec.rekeyFills, 256u);
    EXPECT_TRUE(config.icache.enabled);
    EXPECT_TRUE(config.checkCoherence);
    // Fields without a flag keep their defaults.
    EXPECT_EQ(config.dram.channels, DramParams{}.channels);
}

TEST(ConfigSchemaDeath, FlagValuesMustFitTheField)
{
    EXPECT_EXIT(fromFlags({"--bus-occupancy=-5"}),
                ::testing::ExitedWithCode(1),
                "--bus-occupancy must not be negative \\(got '-5'\\)");
    EXPECT_EXIT(fromFlags({"--scc=-64K"}),
                ::testing::ExitedWithCode(1),
                "--scc must not be negative");
    EXPECT_EXIT(fromFlags({"--procs=4294967298"}),
                ::testing::ExitedWithCode(1),
                "--procs must be at most 2147483647");
    EXPECT_EXIT(fromFlags({"--line=8G"}), ::testing::ExitedWithCode(1),
                "--line must be at most 4294967295");
    EXPECT_EXIT(fromFlags({"--procs=two"}),
                ::testing::ExitedWithCode(1),
                "cannot parse integer from 'two'");
}

TEST(ConfigSchemaDeath, CheckEnforcesFieldBounds)
{
    MachineConfig banks;
    banks.scc.banksPerCpu = 0;
    EXPECT_EXIT(banks.check(), ::testing::ExitedWithCode(1),
                "scc.banksPerCpu \\(--banks\\) is 0: need at least one "
                "SCC bank per processor");

    // Bounds hold whether or not the field's feature is on.
    MachineConfig segments;
    segments.net.segments = 0;
    EXPECT_EXIT(segments.check(), ::testing::ExitedWithCode(1),
                "need at least one tree segment");

    MachineConfig domains;
    domains.scc.sec.domains = 1;
    EXPECT_EXIT(domains.check(), ::testing::ExitedWithCode(1),
                "need at least two security domains");

    MachineConfig row;
    row.dram.rowBytes = 3000;
    EXPECT_EXIT(row.check(), ::testing::ExitedWithCode(1),
                "DRAM row size must be a power of two");

    MachineConfig{}.check();
}

} // namespace
