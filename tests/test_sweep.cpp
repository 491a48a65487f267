/**
 * @file
 * Tests for the sweep subsystem: stable point keys, the JSON-lines
 * result store, resume semantics, parallel-vs-serial bit identity,
 * and the machine-readable statistics dump records attach.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "core/config_schema.hh"
#include "sweep/json.hh"
#include "sweep/point_key.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep.hh"

namespace
{

using namespace scmp;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/**
 * A small fixed-work workload (same shape as the integration
 * tests' Streamer): cheap enough for an 8-point grid per test.
 */
class MiniStreamer : public ParallelWorkload
{
  public:
    std::string name() const override { return "mini"; }

    void
    setup(Arena &arena, const Topology &) override
    {
        _words = arena.alloc<Shared<std::uint64_t>>(totalWords);
    }

    void
    threadMain(ThreadCtx &ctx, int tid, const Topology &topo)
        override
    {
        int n = topo.totalCpus();
        int first = totalWords * tid / n;
        int last = totalWords * (tid + 1) / n;
        for (int round = 0; round < 2; ++round) {
            for (int i = first; i < last; ++i)
                _words[i].rmw(ctx, [](std::uint64_t v) {
                    return v + 1;
                });
        }
    }

    bool
    verify() override
    {
        return _words[0].raw() == 2;
    }

    static constexpr int totalWords = 2048;

  private:
    Shared<std::uint64_t> *_words = nullptr;
};

DesignSpace::WorkloadFactory
miniFactory()
{
    return [] { return std::make_unique<MiniStreamer>(); };
}

/** Collects every seed the executor hands out, thread-safely. */
struct SeedLog
{
    std::mutex mutex;
    std::multiset<std::uint64_t> seeds;
};

/** A workload that records its reseed() value into a SeedLog. */
class SeedProbe : public ParallelWorkload
{
  public:
    explicit SeedProbe(SeedLog *log) : _log(log) {}

    std::string name() const override { return "seed-probe"; }

    void
    reseed(std::uint64_t pointSeed) override
    {
        std::lock_guard<std::mutex> lock(_log->mutex);
        _log->seeds.insert(pointSeed);
    }

    void
    setup(Arena &arena, const Topology &) override
    {
        _counter = arena.alloc<Shared<std::uint64_t>>();
    }

    void
    threadMain(ThreadCtx &ctx, int, const Topology &) override
    {
        _counter->rmw(ctx, [](std::uint64_t v) { return v + 1; });
    }

  private:
    SeedLog *_log;
    Shared<std::uint64_t> *_counter = nullptr;
};

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.references, b.references);
    EXPECT_EQ(a.readMissRate, b.readMissRate);
    EXPECT_EQ(a.missRate, b.missRate);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
    EXPECT_EQ(a.busUtilization, b.busUtilization);
    EXPECT_EQ(a.verified, b.verified);
}

void
expectSameResults(const DesignGrid &a, const DesignGrid &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cpusPerCluster, b[i].cpusPerCluster);
        EXPECT_EQ(a[i].sccBytes, b[i].sccBytes);
        expectSameResult(a[i].result, b[i].result);
    }
}

void
expectSameResults(const std::vector<sweep::SweepPoint> &a,
                  const std::vector<sweep::SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sweep::hashMachineConfig(a[i].config),
                  sweep::hashMachineConfig(b[i].config));
        EXPECT_EQ(a[i].axes, b[i].axes);
        expectSameResult(a[i].result, b[i].result);
        EXPECT_TRUE(a[i].result.verified);
    }
}

/**
 * A tm study list with its skip rule: the --tm=off lock baseline
 * takes only the first set size, so 1 + 2 points.
 */
sweep::PointList
tmStudy()
{
    return sweep::tmPoints(MachineConfig{},
                           {TmMode::Off, TmMode::Eager},
                           {NetTopology::Atomic}, {2, 64});
}

const std::vector<std::uint64_t> testSizes{8 << 10, 32 << 10};
const std::vector<int> testProcs{1, 2};

TEST(PointKey, StableAcrossEqualConfigs)
{
    MachineConfig a;
    MachineConfig b;
    EXPECT_EQ(sweep::hashMachineConfig(a),
              sweep::hashMachineConfig(b));
    EXPECT_EQ(sweep::pointKey(a, "barnes", "quick"),
              sweep::pointKey(b, "barnes", "quick"));
}

/** Each value a perturbation moves @p field to from @p base. */
std::vector<std::uint64_t>
perturbedValues(const ConfigField &field, const MachineConfig &base)
{
    std::uint64_t now = field.get(base);
    if (field.kind == FieldKind::Bool)
        return {!now};
    if (field.kind != FieldKind::Enum)
        return {now + 1};
    std::vector<std::uint64_t> values;
    for (const Spelling &s : field.spellings) {
        if (!s.alias && s.value != now)
            values.push_back(s.value);
    }
    return values;
}

/**
 * The default config with one enum field of @p field's struct
 * switched so that perturbing @p field makes it live (net.segments
 * is armed by net.topology=split), if @p field needs one.
 */
std::optional<MachineConfig>
armedBase(const ConfigField &field)
{
    auto live = [&](MachineConfig config) {
        field.set(config, perturbedValues(field, config)[0]);
        return !field.live || field.live(config);
    };
    std::string_view name = field.name;
    std::string_view group = name.substr(0, name.find('.') + 1);
    if (live(MachineConfig{}) || group.empty())
        return std::nullopt;
    for (const ConfigField &gate : configSchema()) {
        if (!std::string_view(gate.name).starts_with(group))
            continue;
        for (const Spelling &s : gate.spellings) {
            MachineConfig base;
            gate.set(base, s.value);
            if (live(base))
                return base;
        }
    }
    return std::nullopt;
}

/**
 * Every single-field perturbation of the default config, in schema
 * order: enums take every other spelling, bools flip, numbers add
 * one. A gated field is perturbed twice, from the default and from
 * its armed base ("armed" in the label).
 */
template <class Fn>
void
forEachPerturbation(bool withObservational, Fn fn)
{
    for (const ConfigField &field : configSchema()) {
        if (!field.get || (field.observational && !withObservational))
            continue;
        std::optional<MachineConfig> armed = armedBase(field);
        for (bool arm : {false, true}) {
            if (arm && !armed)
                continue;
            MachineConfig base = arm ? *armed : MachineConfig{};
            for (std::uint64_t value : perturbedValues(field, base)) {
                MachineConfig config = base;
                field.set(config, value);
                std::string label = std::string(field.name) + "=" +
                                    fieldText(field, config) +
                                    (arm ? " armed" : "");
                fn(field, label, base, config);
            }
        }
    }
}

TEST(PointKey, SensitiveToEveryAxis)
{
    // Every live, non-observational field moves the key; inert and
    // observational ones never do.
    std::set<std::string> moved;
    forEachPerturbation(true, [&](const ConfigField &field,
                                  const std::string &label,
                                  const MachineConfig &base,
                                  const MachineConfig &config) {
        bool live = !field.live || field.live(base) ||
                    field.live(config);
        bool expected = live && !field.observational;
        EXPECT_EQ(sweep::hashMachineConfig(config) !=
                      sweep::hashMachineConfig(base),
                  expected)
            << label;
        if (expected)
            moved.insert(field.name);
    });
    for (const ConfigField &field : configSchema())
        EXPECT_EQ(moved.count(field.name), !field.observational)
            << field.name;

    MachineConfig observed;
    observed.obs.enabled = true;
    observed.obs.tracePath = "trace.json";
    EXPECT_EQ(sweep::hashMachineConfig(observed),
              sweep::hashMachineConfig(MachineConfig{}));

    MachineConfig base;
    std::uint64_t baseKey =
        sweep::pointKey(base, "barnes", "quick");
    EXPECT_NE(sweep::pointKey(base, "mp3d", "quick"), baseKey);
    EXPECT_NE(sweep::pointKey(base, "barnes", "full"), baseKey);
}

TEST(PointKey, ConfigKeysMatchFixture)
{
    // The fixture was captured from the hand-written hash the
    // schema walk replaced; a difference orphans stored records.
    std::string got = "default " +
                      sweep::keyHex(sweep::hashMachineConfig({})) +
                      "\n";
    forEachPerturbation(false, [&](const ConfigField &,
                                   const std::string &label,
                                   const MachineConfig &,
                                   const MachineConfig &config) {
        got += label + " " +
               sweep::keyHex(sweep::hashMachineConfig(config)) + "\n";
    });

    std::ifstream fixture(SCMP_GOLDEN_DIR "/config_keys.txt");
    ASSERT_TRUE(fixture) << "missing config_keys.txt fixture";
    std::string want;
    for (std::string line; std::getline(fixture, line);) {
        if (!line.empty() && line[0] != '#')
            want += line + "\n";
    }
    EXPECT_EQ(got, want);
}

TEST(PointKey, HexRoundTrip)
{
    std::uint64_t key = 0x0123456789abcdefull;
    std::string hex = sweep::keyHex(key);
    EXPECT_EQ(hex, "0123456789abcdef");
    std::uint64_t parsed = 0;
    ASSERT_TRUE(sweep::parseKeyHex(hex, parsed));
    EXPECT_EQ(parsed, key);
    EXPECT_FALSE(sweep::parseKeyHex("no", parsed));
    EXPECT_FALSE(sweep::parseKeyHex("xxxxxxxxxxxxxxxx", parsed));
}

TEST(Json, ParsesWhatItDumps)
{
    sweep::Json obj = sweep::Json::object();
    obj.set("name", sweep::Json::string("he said \"hi\"\n"));
    obj.set("big",
            sweep::Json::unsignedInt(12345678901234567890ull));
    obj.set("frac", sweep::Json::number(1.0 / 3.0));
    obj.set("neg", sweep::Json::number(-2.5));
    obj.set("flag", sweep::Json::boolean(true));
    obj.set("none", sweep::Json::null());
    sweep::Json arr = sweep::Json::array();
    arr.push(sweep::Json::unsignedInt(1));
    arr.push(sweep::Json::unsignedInt(2));
    obj.set("list", std::move(arr));

    sweep::Json parsed;
    std::string error;
    ASSERT_TRUE(sweep::Json::parse(obj.dump(), parsed, &error))
        << error;
    EXPECT_EQ(parsed.find("name")->asString(),
              "he said \"hi\"\n");
    EXPECT_EQ(parsed.find("big")->asU64(),
              12345678901234567890ull);
    EXPECT_EQ(parsed.find("frac")->asDouble(), 1.0 / 3.0);
    EXPECT_EQ(parsed.find("neg")->asDouble(), -2.5);
    EXPECT_TRUE(parsed.find("flag")->asBool());
    EXPECT_EQ(parsed.find("none")->type(),
              sweep::Json::Type::Null);
    EXPECT_EQ(parsed.find("list")->asArray().size(), 2u);
}

TEST(Json, RejectsGarbage)
{
    sweep::Json out;
    std::string error;
    EXPECT_FALSE(sweep::Json::parse("{\"a\":", out, &error));
    EXPECT_FALSE(sweep::Json::parse("{\"a\":1} trailing", out,
                                    &error));
    EXPECT_FALSE(sweep::Json::parse("", out, &error));
    EXPECT_FALSE(sweep::Json::parse("{'a':1}", out, &error));
}

TEST(ResultStore, RecordRoundTripIsExact)
{
    sweep::StoredPoint point;
    point.key = 0xdeadbeefcafef00dull;
    point.workload = "barnes";
    point.scale = "full";
    point.cpusPerCluster = 8;
    point.sccBytes = 512 << 10;
    point.result.cycles = 12345678901234567ull;
    point.result.instructions = 987654321ull;
    point.result.references = 123456789ull;
    point.result.readMissRate = 0.1 + 0.2;  // not representable
    point.result.missRate = 1.0 / 3.0;
    point.result.invalidations = 42;
    point.result.busTransactions = 77;
    point.result.busUtilization = 0.9999999999999999;
    point.result.verified = true;
    point.axes = {{"net", "split"}, {"tm", "lazy"},
                  {"tmEntries", "64"}};
    point.wallMs = 1234.5678;
    point.statsJson = "{\"bus\":{\"transactions\":77}}";

    sweep::StoredPoint back;
    std::string error;
    ASSERT_TRUE(sweep::ResultStore::deserialize(
        sweep::ResultStore::serialize(point), back, &error))
        << error;

    EXPECT_EQ(back.key, point.key);
    EXPECT_EQ(back.workload, point.workload);
    EXPECT_EQ(back.scale, point.scale);
    EXPECT_EQ(back.cpusPerCluster, point.cpusPerCluster);
    EXPECT_EQ(back.sccBytes, point.sccBytes);
    EXPECT_EQ(back.axes, point.axes);
    EXPECT_EQ(back.result.cycles, point.result.cycles);
    EXPECT_EQ(back.result.instructions,
              point.result.instructions);
    EXPECT_EQ(back.result.references, point.result.references);
    // Doubles must survive the text round trip bit-exactly.
    EXPECT_EQ(back.result.readMissRate, point.result.readMissRate);
    EXPECT_EQ(back.result.missRate, point.result.missRate);
    EXPECT_EQ(back.result.busUtilization,
              point.result.busUtilization);
    EXPECT_EQ(back.result.invalidations,
              point.result.invalidations);
    EXPECT_EQ(back.result.busTransactions,
              point.result.busTransactions);
    EXPECT_EQ(back.result.verified, point.result.verified);
    EXPECT_EQ(back.wallMs, point.wallMs);
    sweep::Json stats;
    ASSERT_TRUE(sweep::Json::parse(back.statsJson, stats, &error))
        << error;
    EXPECT_EQ(stats.find("bus")->find("transactions")->asU64(),
              77u);
}

TEST(ResultStore, AppendThenReload)
{
    std::string path = tempPath("store_reload.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    a.result.cycles = 100;
    sweep::StoredPoint b = a;
    b.key = 2;
    b.result.cycles = 200;
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
        store.append(b);
    }
    sweep::ResultStore store;
    store.open(path, true);
    EXPECT_EQ(store.size(), 2u);
    ASSERT_NE(store.find(1), nullptr);
    ASSERT_NE(store.find(2), nullptr);
    EXPECT_EQ(store.find(1)->result.cycles, 100u);
    EXPECT_EQ(store.find(2)->result.cycles, 200u);
    EXPECT_EQ(store.find(3), nullptr);
    std::remove(path.c_str());
}

TEST(ResultStoreDeath, CorruptLineIsFatal)
{
    std::string path = tempPath("store_corrupt.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
    }
    {
        // A corrupt line that is newline-terminated is NOT a crash
        // artifact; resuming over it must refuse loudly.
        std::ofstream out(path, std::ios::app);
        out << "{\"v\":1,\"key\":\"garbage\n";
    }
    EXPECT_EXIT(
        {
            sweep::ResultStore store;
            store.open(path, true);
        },
        ::testing::ExitedWithCode(1), "corrupt");
    std::remove(path.c_str());
}

TEST(ResultStoreDeath, BadFieldIsDiagnosedNotAborted)
{
    // A wrongly typed or out-of-range field is corruption like any
    // other: a diagnostic naming the field, never an abort and
    // never a silently truncated value.
    const std::pair<const char *, const char *> cases[] = {
        {"\"procs\":\"4\"", "field 'procs' is not an unsigned integer"},
        {"\"procs\":4294967300", "field 'procs' is out of range"},
    };
    for (const auto &[field, diagnostic] : cases) {
        std::string path = tempPath("store_bad_field.jsonl");
        sweep::StoredPoint a;
        a.key = 1;
        a.workload = "mini";
        a.scale = "quick";
        a.cpusPerCluster = 4;
        std::string line = sweep::ResultStore::serialize(a);
        line.replace(line.find("\"procs\":4"), 9, field);
        {
            std::ofstream out(path);
            out << sweep::ResultStore::serialize(a) << "\n"
                << line << "\n";
        }
        EXPECT_EXIT(
            {
                sweep::ResultStore store;
                store.open(path, true);
            },
            ::testing::ExitedWithCode(1),
            std::string("corrupt at line 2: ") + diagnostic);
        std::remove(path.c_str());
    }
}

TEST(ResultStore, PartialFinalRecordIsDiscarded)
{
    std::string path = tempPath("store_partial.jsonl");
    sweep::StoredPoint a;
    a.key = 1;
    a.workload = "mini";
    a.scale = "quick";
    {
        sweep::ResultStore store;
        store.open(path, false);
        store.append(a);
    }
    {
        // Simulate a kill mid-append: no trailing newline.
        std::ofstream out(path, std::ios::app);
        out << "{\"v\":1,\"key\":\"0000";
    }
    setLogQuiet(true);
    sweep::ResultStore store;
    store.open(path, true);
    setLogQuiet(false);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_NE(store.find(1), nullptr);

    // The partial tail was truncated away, so appending again
    // yields a fully parseable file.
    sweep::StoredPoint b = a;
    b.key = 2;
    store.append(b);
    store.close();
    sweep::ResultStore reloaded;
    reloaded.open(path, true);
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    sweep::SweepOptions serialOptions;
    serialOptions.jobs = 1;
    sweep::SweepExecutor serial(serialOptions);
    auto serialGrid = serial.run(miniFactory(), MachineConfig{},
                                 testSizes, testProcs);

    sweep::SweepOptions parallelOptions;
    parallelOptions.jobs = 4;
    sweep::SweepExecutor parallel(parallelOptions);
    auto parallelGrid = parallel.run(
        miniFactory(), MachineConfig{}, testSizes, testProcs);

    ASSERT_EQ(serialGrid.size(),
              testSizes.size() * testProcs.size());
    expectSameResults(serialGrid, parallelGrid);
    for (const auto &point : serialGrid)
        EXPECT_TRUE(point.result.verified);

    // An axis study runs through the same pool, skip rule and all.
    sweep::PointList study = tmStudy();
    ASSERT_EQ(study.points.size(), 3u);
    expectSameResults(serial.run(miniFactory(), study),
                      parallel.run(miniFactory(), study));
}

TEST(Sweep, EveryPointGetsItsConfigHashSeed)
{
    auto runAndCollect = [](int jobs) {
        SeedLog log;
        auto factory = [&log] {
            return std::make_unique<SeedProbe>(&log);
        };
        sweep::SweepOptions options;
        options.jobs = jobs;
        sweep::SweepExecutor executor(options);
        executor.run(factory, MachineConfig{}, testSizes,
                     testProcs);
        return log.seeds;
    };

    auto serialSeeds = runAndCollect(1);
    auto parallelSeeds = runAndCollect(3);

    // One seed per grid point, no duplicates, identical sets
    // regardless of host-thread count.
    EXPECT_EQ(serialSeeds.size(),
              testSizes.size() * testProcs.size());
    EXPECT_EQ(serialSeeds, parallelSeeds);
    EXPECT_EQ(std::set<std::uint64_t>(serialSeeds.begin(),
                                      serialSeeds.end())
                  .size(),
              serialSeeds.size());

    // And each seed is exactly the point's stable key.
    for (int procs : testProcs) {
        for (std::uint64_t size : testSizes) {
            MachineConfig config;
            config.cpusPerCluster = procs;
            config.scc.sizeBytes = size;
            EXPECT_EQ(serialSeeds.count(sweep::pointKey(
                          config, "seed-probe", "default")),
                      1u);
        }
    }
}

TEST(Sweep, ResumeRecomputesOnlyMissingPoints)
{
    std::string path = tempPath("sweep_resume.jsonl");
    std::remove(path.c_str());

    // First run covers half the grid (one cluster size).
    sweep::SweepOptions firstOptions;
    firstOptions.jobs = 2;
    firstOptions.resultsPath = path;
    sweep::SweepExecutor first(firstOptions);
    first.run(miniFactory(), MachineConfig{}, testSizes, {1});
    EXPECT_EQ(first.runStats().computed, testSizes.size());

    // The resumed full-grid run must reuse those and compute only
    // the other cluster size.
    sweep::SweepOptions resumeOptions;
    resumeOptions.jobs = 2;
    resumeOptions.resultsPath = path;
    resumeOptions.resume = true;
    sweep::SweepExecutor resumed(resumeOptions);
    auto resumedGrid = resumed.run(miniFactory(), MachineConfig{},
                                   testSizes, testProcs);
    EXPECT_EQ(resumed.runStats().total,
              testSizes.size() * testProcs.size());
    EXPECT_EQ(resumed.runStats().reused, testSizes.size());
    EXPECT_EQ(resumed.runStats().computed, testSizes.size());

    // ... and the merged grid is bit-identical to a fresh serial
    // sweep of the whole grid.
    sweep::SweepExecutor fresh(sweep::SweepOptions{});
    auto freshGrid = fresh.run(miniFactory(), MachineConfig{},
                               testSizes, testProcs);
    expectSameResults(freshGrid, resumedGrid);

    // A second resume recomputes nothing: factory is called once
    // (for the workload name) and zero times for points.
    int factoryCalls = 0;
    auto countingFactory = [&factoryCalls]()
        -> std::unique_ptr<ParallelWorkload> {
        ++factoryCalls;
        return std::make_unique<MiniStreamer>();
    };
    sweep::SweepExecutor again(resumeOptions);
    auto againGrid = again.run(countingFactory, MachineConfig{},
                               testSizes, testProcs);
    EXPECT_EQ(again.runStats().computed, 0u);
    EXPECT_EQ(again.runStats().reused,
              testSizes.size() * testProcs.size());
    EXPECT_EQ(factoryCalls, 1);
    expectSameResults(freshGrid, againGrid);
    std::remove(path.c_str());

    // The same for an axis study: a store holding only the lock
    // baseline serves it and the two TM points are computed.
    std::string studyPath = tempPath("sweep_resume_study.jsonl");
    std::remove(studyPath.c_str());
    sweep::PointList study = tmStudy();
    firstOptions.resultsPath = studyPath;
    sweep::SweepExecutor(firstOptions)
        .run(miniFactory(), {study.base, {study.points.front()}});
    resumeOptions.resultsPath = studyPath;
    sweep::SweepExecutor resumedStudy(resumeOptions);
    auto resumedPoints = resumedStudy.run(miniFactory(), study);
    EXPECT_EQ(resumedStudy.runStats().reused, 1u);
    EXPECT_EQ(resumedStudy.runStats().computed, 2u);
    expectSameResults(
        sweep::SweepExecutor(sweep::SweepOptions{})
            .run(miniFactory(), study),
        resumedPoints);
    std::remove(studyPath.c_str());
}

TEST(Sweep, SweepsOfOneRunShareTheStore)
{
    // A bench sweeps once per workload into one --results file: the
    // run's first sweep truncates it, later sweeps append.
    std::string path = tempPath("sweep_shared.jsonl");
    {
        std::ofstream stale(path);
        stale << "left over from an earlier run\n";
    }
    sweep::SweepOptions options;
    options.resultsPath = path;
    sweep::SweepExecutor(options).run(miniFactory(), MachineConfig{},
                                      testSizes, {1});
    sweep::SweepExecutor(options).run(miniFactory(), MachineConfig{},
                                      testSizes, {2});

    std::size_t lines = 0;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        ++lines;
    EXPECT_EQ(lines, 2 * testSizes.size());

    // A resumed run over both halves computes nothing.
    options.resume = true;
    sweep::SweepExecutor resumed(options);
    resumed.run(miniFactory(), MachineConfig{}, testSizes, testProcs);
    EXPECT_EQ(resumed.runStats().reused,
              testSizes.size() * testProcs.size());
    EXPECT_EQ(resumed.runStats().computed, 0u);
    std::remove(path.c_str());
}

TEST(SweepDeath, StoredStudyRecordWithAnotherAxisIsFatal)
{
    // One single-point list per study. Resuming over a record whose
    // key matches but whose axis value was changed must refuse it.
    MachineConfig base;
    base.scc.assoc = 4;  // way partitioning divides the ways
    const sweep::PointList studies[] = {
        sweep::netPoints(base, {2}, {NetTopology::Split}),
        sweep::memPoints(base, {2}, {4}, {MemSched::FrFcfs}),
        sweep::consistencyPoints(base, {ConsistencyModel::Weak},
                                 {NetTopology::Atomic},
                                 {NetArbitration::RoundRobin}),
        sweep::tmPoints(base, {TmMode::Lazy}, {NetTopology::Atomic},
                        {64}),
        sweep::isolationPoints(base, {IsolationMode::WayPart}, {2}),
    };
    int studyIndex = 0;
    for (const sweep::PointList &study : studies) {
        // One store per study: later sweeps of this process would
        // append to an earlier study's store.
        std::string path =
            tempPath(("sweep_collision_" +
                      std::to_string(studyIndex++) + ".jsonl")
                         .c_str());
        std::remove(path.c_str());
        sweep::SweepOptions options;
        options.resultsPath = path;
        sweep::SweepExecutor(options).run(miniFactory(), study);

        std::string line;
        std::getline(std::ifstream(path), line);
        sweep::StoredPoint record;
        std::string error;
        ASSERT_TRUE(
            sweep::ResultStore::deserialize(line, record, &error))
            << error;
        ASSERT_FALSE(record.axes.empty());
        record.axes.back().value += "0";  // "split0", "640", ...
        std::ofstream(path) << sweep::ResultStore::serialize(record)
                            << "\n";

        options.resume = true;
        EXPECT_EXIT(
            sweep::SweepExecutor(options).run(miniFactory(), study),
            ::testing::ExitedWithCode(1),
            "does not match its key's configuration");
        std::remove(path.c_str());
    }
}

TEST(SweepDeath, JobsMustBeAutoOrCount)
{
    EXPECT_EQ(sweep::parseJobs("auto"), 0);
    EXPECT_EQ(sweep::parseJobs("0"), 0);
    EXPECT_EQ(sweep::parseJobs("3"), 3);
    for (const char *bad : {"x", "two", "-1", "2x", ""}) {
        EXPECT_EXIT(sweep::parseJobs(bad), ::testing::ExitedWithCode(1),
                    "--jobs must be 'auto' or a non-negative count")
            << bad;
    }
}

TEST(SweepDeath, AnalyticScreenRejectsAxisStudies)
{
    // The analytic model covers only the processors x SCC grid.
    sweep::SweepOptions options;
    options.model = sweep::SweepModel::Hybrid;
    EXPECT_EXIT(sweep::SweepExecutor(options).run(miniFactory(),
                                                  tmStudy()),
                ::testing::ExitedWithCode(1),
                "--model=hybrid screens only the processors x SCC "
                "grid, but mini point net=atomic tm=eager "
                "tmEntries=2 varies the machine outside it");
}

/** One study's fixture lines: "study scale workload key axes". */
std::string
fixtureLines(const std::string &study, const std::string &scale,
             const std::string &workload,
             const sweep::PointList &list)
{
    std::string out;
    for (const sweep::SweepPoint &point : list.points) {
        out += study + " " + scale + " " + workload + " " +
               sweep::keyHex(
                   sweep::pointKey(point.config, workload, scale)) +
               " " + sweep::ResultStore::serializeAxes(point.axes) +
               "\n";
    }
    return out;
}

TEST(Sweep, StudyPointKeysMatchFixture)
{
    // Each figure bench's study at its default axes and base
    // machine (bench/fig_*.cpp), at both scales whose keys a user
    // may hold in a store. The fixture was captured from the
    // per-study sweep loops these generators replaced; a key or
    // axis change here orphans every existing store.
    std::string got;
    for (std::string scale : {"quick", "default"}) {
        bool quick = scale == "quick";

        MachineConfig net;
        net.cpusPerCluster = 4;
        net.scc.sizeBytes = 64 << 10;
        net.net.segments = 2;
        net.bus.transferOccupancy = 8;
        got += fixtureLines(
            "net", scale, "Barnes-Hut",
            sweep::netPoints(net, {1, 2, 4, 8},
                             {NetTopology::Atomic, NetTopology::Split,
                              NetTopology::Tree}));

        MachineConfig mem;
        mem.cpusPerCluster = 4;
        mem.scc.sizeBytes = 64 << 10;
        mem.dram.rowBytes = 2048;
        got += fixtureLines(
            "mem", scale, "Barnes-Hut",
            sweep::memPoints(mem, {1, 2, 4}, {1, 2, 4, 8},
                             {MemSched::Fcfs, MemSched::FrFcfs}));

        MachineConfig weak;
        weak.numClusters = 4;
        weak.cpusPerCluster = 4;
        weak.scc.sizeBytes = 64 << 10;
        weak.consistency.storeBufferEntries = 8;
        weak.bus.transferOccupancy = 8;
        for (const char *workload : {"Barnes-Hut", "MP3D"}) {
            got += fixtureLines(
                "consistency", scale, workload,
                sweep::consistencyPoints(
                    weak, {ConsistencyModel::Sc, ConsistencyModel::Weak},
                    {NetTopology::Atomic, NetTopology::Split},
                    {NetArbitration::RoundRobin,
                     NetArbitration::Priority}));
        }

        MachineConfig tm;
        tm.numClusters = 4;
        tm.cpusPerCluster = 4;
        tm.scc.sizeBytes = 64 << 10;
        for (std::string workload :
             {quick ? "tmkmeans-p1024-k8-r2" : "tmkmeans-p2048-k8-r3",
              quick ? "tmvacation-r64-c16-t128-q4"
                    : "tmvacation-r64-c16-t256-q4"}) {
            got += fixtureLines(
                "tm", scale, workload,
                sweep::tmPoints(tm,
                                {TmMode::Off, TmMode::Eager,
                                 TmMode::Lazy},
                                {NetTopology::Atomic, NetTopology::Split},
                                {2, 64}));
        }

        MachineConfig sec = tm;
        sec.scc.assoc = 4;
        for (std::string workload :
             {"Barnes-Hut", "MP3D",
              quick ? "secpp-e32-k8-c65536x16/4"
                    : "secpp-e96-k8-c65536x16/4"}) {
            got += fixtureLines(
                "isolation", scale, workload,
                sweep::isolationPoints(
                    sec,
                    {IsolationMode::None, IsolationMode::WayPart,
                     IsolationMode::Color, IsolationMode::Rand},
                    {2, 4}));
        }
    }

    std::ifstream fixture(SCMP_GOLDEN_DIR "/study_points.txt");
    ASSERT_TRUE(fixture) << "missing study_points.txt fixture";
    std::string want;
    for (std::string line; std::getline(fixture, line);) {
        if (!line.empty() && line[0] != '#')
            want += line + "\n";
    }
    EXPECT_EQ(got, want);
}

TEST(Sweep, AttachedStatsLandInTheStore)
{
    std::string path = tempPath("sweep_stats.jsonl");
    std::remove(path.c_str());

    sweep::SweepOptions options;
    options.resultsPath = path;
    options.attachStats = true;
    sweep::SweepExecutor executor(options);
    executor.run(miniFactory(), MachineConfig{}, {8 << 10}, {2});

    sweep::ResultStore store;
    store.open(path, true);
    ASSERT_EQ(store.size(), 1u);
    MachineConfig config;
    config.cpusPerCluster = 2;
    config.scc.sizeBytes = 8 << 10;
    const sweep::StoredPoint *stored = store.find(
        sweep::pointKey(config, "mini", "default"));
    ASSERT_NE(stored, nullptr);
    ASSERT_FALSE(stored->statsJson.empty());

    sweep::Json stats;
    std::string error;
    ASSERT_TRUE(
        sweep::Json::parse(stored->statsJson, stats, &error))
        << error;
    // The machine's stats tree has the bus and per-cluster SCCs.
    EXPECT_NE(stats.find("bus"), nullptr);
    std::remove(path.c_str());
}

} // namespace
