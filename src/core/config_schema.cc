#include "config_schema.hh"

#include <limits>
#include <typeinfo>
#include <type_traits>
#include <utility>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace scmp
{

namespace
{

/// @name Enum spellings: canonical names in value order, then aliases.
/// @{
constexpr Spelling organizations[] = {
    {"shared", 0, "one SCC per cluster (the paper's proposal, default)"},
    {"private", 1, "one cache per processor, all snooping the bus"}};
constexpr Spelling protocols[] = {
    {"invalidate", 0, "MSI write-invalidate (default)"},
    {"update", 1, "Firefly-style write-update"}};
constexpr Spelling topologies[] = {
    {"atomic", 0, "single atomic snoopy bus (the paper's, default)"},
    {"split", 1, "split-transaction bus (--arbitration=rr|priority)"},
    {"tree", 2,
     "leaf bus segments + root bus with snoop filter (--segments=N,\n"
     "bound it with --sf-cap=N: LRU eviction + back-invalidation)"}};
constexpr Spelling arbitrations[] = {
    {"rr", 0}, {"priority", 1}, {"round-robin", 0, nullptr, true}};
constexpr Spelling backends[] = {
    {"flat", 0, "fixed-latency memory (the paper's, default)"},
    {"banked", 1,
     "channels x banks open-row DRAM (--channels=N --mem-banks=N\n"
     "--mem-sched=fcfs|frfcfs; NUMA segments under --net=tree)"}};
constexpr Spelling scheds[] = {
    {"fcfs", 0}, {"frfcfs", 1}, {"fr-fcfs", 1, nullptr, true}};
constexpr Spelling models[] = {
    {"sc", 0,
     "sequential consistency: every store stalls (the paper's, default)"},
    {"weak", 1,
     "weak ordering: per-CPU store buffers (--sb-entries=N), fences at\n"
     "the ANL lock/unlock/barrier points"}};
constexpr Spelling tmModes[] = {
    {"off", 0,
     "plain locks — the baseline TM speedups divide by (default)"},
    {"eager", 1,
     "LogTM-style: conflicts detected at access time, requester\n"
     "aborts on an older conflictor (timestamp tiebreak)"},
    {"lazy", 2,
     "TSX-style: conflicts detected at commit, committer wins\n"
     "(--tm-set-entries=N bounds each read/write set — capacity\n"
     "aborts past it; --tm-max-aborts=N retries before the\n"
     "fallback lock)"}};
constexpr Spelling isolations[] = {
    {"none", 0,
     "open shared cache — every line contends everywhere (default)"},
    {"waypart", 1,
     "way partitioning: each domain fills only its own ways per set"},
    {"color", 2,
     "set coloring: the index space is carved into per-domain regions"},
    {"rand", 3,
     "randomized indexing: per-domain keyed index hash, rekeyed and\n"
     "flushed every --rekey-fills=N fills\n"
     "(domains = --isolation-domains=N; processor p is in domain\n"
     "p % N; requires --organization=shared)"}};
/// @}

/** The entry half derived from the member path: name, accessors, type. */
#define SCMP_TYPE(path) decltype(std::declval<MachineConfig &>().path)
#define SCMP_FIELD(path)                                               \
    .name = #path,                                                     \
    .get = [](const MachineConfig &c) { return (std::uint64_t)c.path; }, \
    .set = [](MachineConfig &c, std::uint64_t v) {                     \
        c.path = (SCMP_TYPE(path))v;                                   \
    },                                                                 \
    .type = &typeid(SCMP_TYPE(path)),                                  \
    .maxValue = (std::uint64_t)std::numeric_limits<SCMP_TYPE(path)>::max(), \
    .kind = std::is_enum_v<SCMP_TYPE(path)>           ? FieldKind::Enum   \
            : std::is_same_v<SCMP_TYPE(path), bool>  ? FieldKind::Bool   \
            : std::is_signed_v<SCMP_TYPE(path)>      ? FieldKind::Signed \
                                                     : FieldKind::Unsigned

/** A field inert unless @p test holds of the config c. */
#define SCMP_GATED(path, test)                                         \
    SCMP_FIELD(path),                                                  \
    .live = [](const MachineConfig &c) -> bool { return test; }

#define SCMP_NET(path) SCMP_GATED(path, c.net.topology != NetTopology::Atomic)
#define SCMP_DRAM(path) SCMP_GATED(path, c.dram.kind != MemBackendKind::Flat)
#define SCMP_WEAK(path)                                                \
    SCMP_GATED(path, c.consistency.model != ConsistencyModel::Sc)
#define SCMP_TM(path) SCMP_GATED(path, c.tm.mode != TmMode::Off)
#define SCMP_SEC(path) SCMP_GATED(path, c.scc.sec.mode != IsolationMode::None)
#define SCMP_RAND(path) SCMP_GATED(path, c.scc.sec.mode == IsolationMode::Rand)

/**
 * Point-key order; never reorder (see the header). The store's axis
 * columns follow the same order.
 */
constexpr ConfigField fields[] = {
    {SCMP_FIELD(numClusters), .flag = "clusters", .axis = "clusters",
     .atLeast = 1, .unit = "cluster"},
    {SCMP_FIELD(cpusPerCluster), .flag = "procs", .atLeast = 1,
     .unit = "processor per cluster"},
    {SCMP_FIELD(organization), .spellings = organizations,
     .flag = "organization"},
    {SCMP_FIELD(privateCacheBytes)},
    {SCMP_FIELD(scc.sizeBytes), .flag = "scc", .bytes = true,
     .powerOf2 = true, .unit = "SCC size"},
    {SCMP_FIELD(scc.lineBytes), .flag = "line", .bytes = true,
     .powerOf2 = true, .unit = "SCC line size"},
    {SCMP_FIELD(scc.assoc), .flag = "assoc", .atLeast = 1,
     .unit = "SCC way"},
    {SCMP_FIELD(scc.banksPerCpu), .flag = "banks", .atLeast = 1,
     .unit = "SCC bank per processor"},
    {SCMP_FIELD(scc.bankOccupancy)}, {SCMP_FIELD(scc.stallOnUpgrade)},
    {SCMP_FIELD(scc.protocol), .spellings = protocols,
     .flag = "protocol"},
    {SCMP_FIELD(bus.memoryLatency)},
    {SCMP_FIELD(bus.transferOccupancy), .flag = "bus-occupancy"},
    {SCMP_FIELD(bus.addressOccupancy)},
    {SCMP_NET(net.topology), .spellings = topologies, .flag = "net",
     .axis = "net"},
    {SCMP_NET(net.segments), .flag = "segments", .atLeast = 1,
     .unit = "tree segment"},
    {SCMP_NET(net.arbitration), .spellings = arbitrations,
     .flag = "arbitration"},
    {SCMP_NET(net.arbLatency)},
    // A bounded snoop filter; 0 (unbounded) predates the knob.
    {SCMP_GATED(net.snoopFilterCapacity,
                c.net.topology != NetTopology::Atomic &&
                    c.net.snoopFilterCapacity != 0),
     .flag = "sf-cap"},
    {SCMP_DRAM(dram.kind), .spellings = backends, .flag = "mem",
     .axis = "mem"},
    {SCMP_DRAM(dram.channels), .flag = "channels", .axis = "channels",
     .atLeast = 1, .unit = "DRAM channel"},
    {SCMP_DRAM(dram.banks), .flag = "mem-banks", .axis = "banks",
     .atLeast = 1, .unit = "DRAM bank per channel"},
    {SCMP_DRAM(dram.sched), .spellings = scheds, .flag = "mem-sched",
     .axis = "memSched"},
    {SCMP_DRAM(dram.rowBytes), .powerOf2 = true,
     .unit = "DRAM row size"},
    {SCMP_DRAM(dram.numaRemotePenalty)},
    {SCMP_DRAM(dram.timing.rowHit)}, {SCMP_DRAM(dram.timing.rowMiss)},
    {SCMP_DRAM(dram.timing.rowConflict)}, {SCMP_DRAM(dram.timing.burst)},
    {SCMP_WEAK(consistency.model), .spellings = models,
     .flag = "consistency", .axis = "consistency"},
    {SCMP_WEAK(consistency.storeBufferEntries), .flag = "sb-entries",
     .atLeast = 1, .unit = "store-buffer entry"},
    {SCMP_TM(tm.mode), .spellings = tmModes, .flag = "tm", .axis = "tm"},
    {SCMP_TM(tm.setEntries), .flag = "tm-set-entries",
     .axis = "tmEntries", .atLeast = 1, .unit = "TM set entry"},
    {SCMP_TM(tm.maxAborts), .flag = "tm-max-aborts", .atLeast = 1,
     .unit = "TM abort before the fallback lock"},
    {SCMP_TM(tm.backoffBase)}, {SCMP_TM(tm.beginCost)},
    {SCMP_TM(tm.commitCost)}, {SCMP_TM(tm.abortCost)},
    {SCMP_SEC(scc.sec.mode), .spellings = isolations,
     .flag = "isolation", .axis = "isolation"},
    {SCMP_SEC(scc.sec.domains), .flag = "isolation-domains",
     .axis = "isolationDomains", .atLeast = 2,
     .unit = "security domain"},
    {SCMP_RAND(scc.sec.rekeyFills), .flag = "rekey-fills"},
    {SCMP_RAND(scc.sec.key)},
    {SCMP_FIELD(icache.enabled), .flag = "icache"},
    {SCMP_FIELD(icache.sizeBytes)}, {SCMP_FIELD(icache.lineBytes)},
    {SCMP_FIELD(icache.bytesPerInstr)},
    {SCMP_FIELD(engine.slackWindow)}, {SCMP_FIELD(engine.yieldLatency)},
    {SCMP_FIELD(engine.stackBytes)}, {SCMP_FIELD(engine.barrierOverhead)},
    {SCMP_FIELD(engine.contextSwitchCost)},
    {SCMP_FIELD(arenaBytes), .atLeast = 1, .unit = "arena byte"},
    {SCMP_FIELD(checkCoherence), .flag = "check", .observational = true},
    {SCMP_FIELD(checkWalkInterval), .observational = true},
    {.name = "obs", .observational = true},
    {.name = "refTap", .observational = true},
};

/// @name Completeness: every struct member has a schema entry.
/// @{
/** Converts to any member type, to count aggregate initializers. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** Members of aggregate T: the longest brace list T accepts. */
template <class T, class... Members>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

/** Distinct direct members the table names under @p prefix. */
constexpr std::size_t
schemaMembers(std::string_view prefix)
{
    // "sizeBytes" of "scc.sizeBytes" under "scc."; "" if outside.
    auto child = [&](std::string_view name) {
        if (!name.starts_with(prefix))
            return std::string_view{};
        name.remove_prefix(prefix.size());
        return name.substr(0, name.find('.'));
    };
    std::size_t count = 0;
    for (std::size_t i = 0; i < std::size(fields); ++i) {
        bool seen = child(fields[i].name).empty();
        for (std::size_t j = 0; j < i && !seen; ++j)
            seen = child(fields[j].name) == child(fields[i].name);
        count += !seen;
    }
    return count;
}

template <class T>
constexpr bool
covered(std::string_view prefix)
{
    return memberCount<T>() == schemaMembers(prefix);
}
static_assert(covered<MachineConfig>("") && covered<SccParams>("scc.") &&
              covered<SecParams>("scc.sec.") && covered<BusParams>("bus.") &&
              covered<NetParams>("net.") && covered<DramParams>("dram.") &&
              covered<DramTiming>("dram.timing.") &&
              covered<ConsistencyParams>("consistency.") &&
              covered<TmParams>("tm.") && covered<ICacheParams>("icache.") &&
              covered<EngineOptions>("engine."),
              "a MachineConfig field has no schema entry");
/// @}

/** "'a', 'b' or 'c'": the listed spellings, for messages. */
std::string
spellingChoices(std::span<const Spelling> spellings)
{
    std::string text;
    for (const Spelling &s : spellings) {
        bool last = &s + 1 == spellings.data() + spellings.size() ||
                    (&s)[1].alias;
        if (!s.alias)
            text += (text.empty() ? "'" : last ? " or '" : ", '") +
                    std::string(s.name) + "'";
    }
    return text;
}

/** One flag's value, range-checked against the field's type. */
std::uint64_t
readFlag(const Config &flags, const ConfigField &field)
{
    const std::string flag = field.flag;
    std::string text = flags.getString(flag);
    switch (field.kind) {
      case FieldKind::Bool:
        return flags.getBool(flag);
      case FieldKind::Enum: {
        std::uint64_t value = 0;
        fatal_if(!parseSpelling(field.spellings, text, &value), "--",
                 flag, " must be ", spellingChoices(field.spellings),
                 " (got '", text, "'); see --list");
        return value;
      }
      default:
        break;
    }
    fatal_if(text.find('-') != std::string::npos, "--", flag,
             " must not be negative (got '", text, "')");
    std::uint64_t value = field.bytes ? flags.getSize(flag)
                                      : (std::uint64_t)flags.getInt(flag);
    fatal_if(value > field.maxValue, "--", flag, " must be at most ",
             field.maxValue, " (got '", text, "')");
    return value;
}

} // namespace

std::span<const Spelling>
enumSpellings(const std::type_info &type)
{
    for (const ConfigField &field : fields) {
        if (field.type && *field.type == type && !field.spellings.empty())
            return field.spellings;
    }
    panic("no configuration field has enum type ", type.name());
}

const char *
spellingName(std::span<const Spelling> spellings, std::uint64_t value)
{
    for (const Spelling &s : spellings) {
        if (s.value == value)
            return s.name;
    }
    return "?";
}

bool
parseSpelling(std::span<const Spelling> spellings, std::string_view text,
              std::uint64_t *value)
{
    for (const Spelling &s : spellings) {
        if (text == s.name) {
            *value = s.value;
            return true;
        }
    }
    return false;
}

std::span<const ConfigField>
configSchema()
{
    return fields;
}

const ConfigField *
findField(const char *ConfigField::*tag, std::string_view name)
{
    for (const ConfigField &field : fields) {
        if (field.*tag && name == field.*tag)
            return &field;
    }
    return nullptr;
}

void
applyFlags(const Config &flags, MachineConfig &config)
{
    for (const ConfigField &field : fields) {
        if (field.flag && flags.has(field.flag))
            field.set(config, readFlag(flags, field));
    }
}

std::string
fieldText(const ConfigField &field, const MachineConfig &config)
{
    std::uint64_t value = field.get(config);
    if (field.kind == FieldKind::Enum)
        return spellingName(field.spellings, value);
    if (field.kind == FieldKind::Signed)
        return std::to_string((std::int64_t)value);
    return std::to_string(value);
}

void
MachineConfig::check() const
{
    for (const ConfigField &field : fields) {
        if (!field.atLeast && !field.powerOf2)
            continue;
        std::uint64_t value = field.get(*this);
        bool low = field.kind == FieldKind::Signed
                       ? (std::int64_t)value < (std::int64_t)field.atLeast
                       : value < field.atLeast;
        if (!low && (!field.powerOf2 || isPowerOf2(value)))
            continue;
        std::string name = field.name;
        if (field.flag)
            name += std::string(" (--") + field.flag + ")";
        name += " is " + fieldText(field, *this) + ": ";
        fatal_if(low, name, "need at least ",
                 field.atLeast == 1 ? "one " : "two ", field.unit,
                 field.atLeast == 1 ? "" : "s");
        fatal(name, field.unit, " must be a power of two");
    }

    // Cross-field rules, each gated on the feature it constrains.
    fatal_if(tm.mode != TmMode::Off &&
                 consistency.model != ConsistencyModel::Sc,
             "--tm requires sequential consistency: commit "
             "publication provides its own ordering and does not "
             "compose with per-CPU store buffers");
    std::uint64_t sets = scc.sizeBytes / scc.lineBytes / scc.assoc;
    std::uint64_t domains = (std::uint64_t)scc.sec.domains;
    fatal_if(scc.sec.mode != IsolationMode::None &&
                 organization != ClusterOrganization::SharedCache,
             "--isolation partitions the shared cluster cache; "
             "private-cache organizations have no cross-domain "
             "channel to close");
    fatal_if(scc.sec.mode == IsolationMode::WayPart &&
                 scc.assoc % domains != 0,
             "--isolation=waypart needs --assoc (", scc.assoc,
             ") divisible by --isolation-domains (", domains, ")");
    fatal_if(scc.sec.mode == IsolationMode::Color &&
                 (!isPowerOf2(domains) || domains > sets),
             "--isolation=color needs a power-of-two "
             "--isolation-domains dividing the SCC's ", sets, " sets");
    fatal_if(dram.kind == MemBackendKind::Banked &&
                 dram.rowBytes < scc.lineBytes,
             "DRAM rows must cover at least one cache line");
}

} // namespace scmp
