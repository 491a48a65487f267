#include "result_store.hh"

#include <unistd.h>

#include <limits>
#include <mutex>
#include <set>
#include <type_traits>

#include "core/config_schema.hh"
#include "sim/logging.hh"
#include "sweep/json.hh"
#include "sweep/point_key.hh"

namespace scmp::sweep
{

namespace
{

/** Schema version; bump when the record layout changes. */
constexpr std::uint64_t storeVersion = 1;

/**
 * The RunResult metrics a record carries, in record order. Exactly
 * one of count/real is set. Core metrics come first, then the
 * "verified" flag, then the feature metrics: serialize() writes a
 * feature's fields only when its gate holds, so records of runs
 * without the feature stay byte-identical, and deserialize() reads
 * absent ones back as zero.
 */
struct MetricField
{
    const char *name;
    std::uint64_t RunResult::*count = nullptr;
    double RunResult::*real = nullptr;
    bool (*gate)(const RunResult &) = nullptr;
};

bool hasDram(const RunResult &r) { return r.dramFills != 0; }
bool hasTm(const RunResult &r) { return r.tmCommits || r.tmAborts; }
/**
 * Record that this process opens @p path. @return true the first
 * time: a run's first sweep starts the store afresh, and every later
 * sweep of the run (a bench sweeps once per workload) appends to it.
 */
bool
firstOpenInProcess(const std::string &path)
{
    static std::mutex mutex;
    static std::set<std::string> opened;
    std::lock_guard<std::mutex> lock(mutex);
    return opened.insert(path).second;
}

bool hasServer(const RunResult &r) { return r.requests != 0; }
bool hasSec(const RunResult &r) { return r.secEpochs != 0; }

const MetricField coreMetrics[] = {
    {"cycles", &RunResult::cycles},
    {"instructions", &RunResult::instructions},
    {"references", &RunResult::references},
    {"readMissRate", nullptr, &RunResult::readMissRate},
    {"missRate", nullptr, &RunResult::missRate},
    {"invalidations", &RunResult::invalidations},
    {"busTransactions", &RunResult::busTransactions},
    {"busUtilization", nullptr, &RunResult::busUtilization},
};

const MetricField featureMetrics[] = {
    {"dramFills", &RunResult::dramFills, nullptr, hasDram},
    {"dramRowHitRate", nullptr, &RunResult::dramRowHitRate, hasDram},
    {"tmCommits", &RunResult::tmCommits, nullptr, hasTm},
    {"tmAborts", &RunResult::tmAborts, nullptr, hasTm},
    {"tmFallbacks", &RunResult::tmFallbacks, nullptr, hasTm},
    {"tmAbortRate", nullptr, &RunResult::tmAbortRate, hasTm},
    {"requests", &RunResult::requests, nullptr, hasServer},
    {"latencyP50", nullptr, &RunResult::latencyP50, hasServer},
    {"latencyP95", nullptr, &RunResult::latencyP95, hasServer},
    {"latencyP99", nullptr, &RunResult::latencyP99, hasServer},
    {"throughput", nullptr, &RunResult::throughput, hasServer},
    {"secEpochs", &RunResult::secEpochs, nullptr, hasSec},
    {"probeAccuracy", nullptr, &RunResult::secProbeAccuracy, hasSec},
    {"chanceAccuracy", nullptr, &RunResult::secChanceAccuracy, hasSec},
    {"leakBitsPerEpoch", nullptr, &RunResult::leakBitsPerEpoch,
     hasSec},
};

/** `,"name":value` for one metric of @p r. */
std::string
metricJson(const MetricField &field, const RunResult &r)
{
    return std::string(",\"") + field.name + "\":" +
           (field.count ? std::to_string(r.*field.count)
                        : jsonNumber(r.*field.real));
}

/**
 * Checked reads of one JSON object's fields. Json's as*() readers
 * panic on a type mismatch; read() instead returns false with a
 * one-line "field 'X' is ..." diagnostic for a missing required
 * field, a wrongly typed value or an integer out of the slot's
 * range, so a hand-edited or corrupt store is reported rather than
 * aborting the process. An absent optional field keeps its slot.
 */
class FieldReader
{
  public:
    FieldReader(const Json &object, std::string *error)
        : _object(object), _error(error)
    {
    }

    template <typename T>
    bool
    read(const char *name, T &slot, bool required = true)
    {
        const Json *value = _object.find(name);
        if (!value)
            return !required || fail(name, "is missing");
        Json::Type type = value->type();
        if constexpr (std::is_same_v<T, std::string>) {
            if (type != Json::Type::String)
                return fail(name, "is not a string");
            slot = value->asString();
        } else if constexpr (std::is_same_v<T, bool>) {
            if (type != Json::Type::Bool)
                return fail(name, "is not a boolean");
            slot = value->asBool();
        } else if constexpr (std::is_same_v<T, double>) {
            // serialize() writes non-finite doubles as null.
            if (type == Json::Type::Null)
                slot = std::numeric_limits<double>::quiet_NaN();
            else if (type == Json::Type::Number ||
                     type == Json::Type::Unsigned)
                slot = value->asDouble();
            else
                return fail(name, "is not a number");
        } else {
            if (type != Json::Type::Unsigned)
                return fail(name, "is not an unsigned integer");
            if (value->asU64() > (std::uint64_t)std::numeric_limits<
                                     T>::max())
                return fail(name, "is out of range");
            slot = (T)value->asU64();
        }
        return true;
    }

    bool
    read(const MetricField &field, RunResult &r, bool required)
    {
        return field.count ? read(field.name, r.*field.count, required)
                           : read(field.name, r.*field.real, required);
    }

    bool
    fail(const char *name, const char *what)
    {
        if (_error)
            *_error = std::string("field '") + name + "' " + what;
        return false;
    }

  private:
    const Json &_object;
    std::string *_error;
};

} // namespace

ResultStore::~ResultStore()
{
    close();
}

std::string
ResultStore::serialize(const StoredPoint &point)
{
    // Hand-assembled so field order is stable and human-scannable:
    // identity first, then the result payload.
    std::string out = "{\"v\":" + std::to_string(storeVersion);
    out += ",\"key\":" + jsonQuote(keyHex(point.key));
    out += ",\"workload\":" + jsonQuote(point.workload);
    out += ",\"scale\":" + jsonQuote(point.scale);
    out += ",\"procs\":" + std::to_string(point.cpusPerCluster);
    out += ",\"scc\":" + std::to_string(point.sccBytes);
    out += serializeAxes(point.axes);
    if (!point.model.empty())
        out += ",\"model\":" + jsonQuote(point.model);
    if (point.jobs)
        out += ",\"jobs\":" + std::to_string(point.jobs);
    out += ",\"wallMs\":" + jsonNumber(point.wallMs);

    const RunResult &r = point.result;
    std::string metrics;
    for (const MetricField &field : coreMetrics)
        metrics += metricJson(field, r);
    metrics += std::string(",\"verified\":") +
               (r.verified ? "true" : "false");
    for (const MetricField &field : featureMetrics) {
        if (field.gate(r))
            metrics += metricJson(field, r);
    }
    out += ",\"result\":{" + metrics.substr(1) + "}";

    if (!point.statsJson.empty())
        out += ",\"stats\":" + point.statsJson;
    if (!point.series.empty())
        out += ",\"series\":" + point.series;
    out += "}";
    return out;
}

std::string
ResultStore::serializeAxes(const AxisTags &axes)
{
    std::string out;
    for (const AxisTag &axis : axes) {
        const ConfigField *field =
            findField(&ConfigField::axis, axis.name);
        panic_if(!field, "unknown axis '", axis.name, "'");
        out += ",\"" + axis.name + "\":" +
               (field->kind == FieldKind::Enum ? jsonQuote(axis.value)
                                               : axis.value);
    }
    return out;
}

bool
ResultStore::deserialize(const std::string &line, StoredPoint &point,
                         std::string *error)
{
    Json doc;
    if (!Json::parse(line, doc, error))
        return false;

    point = StoredPoint{};
    FieldReader record(doc, error);
    std::uint64_t version = 0;
    if (!record.read("v", version))
        return false;
    if (version != storeVersion) {
        if (error)
            *error = "unsupported record version " +
                     std::to_string(version);
        return false;
    }

    std::string keyText;
    if (!record.read("key", keyText))
        return false;
    if (!parseKeyHex(keyText, point.key)) {
        if (error)
            *error = "malformed key '" + keyText + "'";
        return false;
    }

    if (!record.read("workload", point.workload) ||
        !record.read("scale", point.scale) ||
        !record.read("procs", point.cpusPerCluster) ||
        !record.read("scc", point.sccBytes) ||
        !record.read("model", point.model, false) ||
        !record.read("jobs", point.jobs, false) ||
        !record.read("wallMs", point.wallMs))
        return false;
    // Axis columns follow the schema's order, so each study's list
    // comes back in the order it was written.
    for (const ConfigField &field : configSchema()) {
        if (!field.axis || !doc.find(field.axis))
            continue;
        AxisTag axis{field.axis, ""};
        if (field.kind != FieldKind::Enum) {
            int value = 0;
            if (!record.read(field.axis, value))
                return false;
            axis.value = std::to_string(value);
        } else if (!record.read(field.axis, axis.value)) {
            return false;
        }
        point.axes.push_back(std::move(axis));
    }

    const Json *result = doc.find("result");
    if (!result)
        return record.fail("result", "is missing");
    if (result->type() != Json::Type::Object)
        return record.fail("result", "is not an object");
    FieldReader fields(*result, error);
    for (const MetricField &field : coreMetrics) {
        if (!fields.read(field, point.result, true))
            return false;
    }
    if (!fields.read("verified", point.result.verified))
        return false;
    for (const MetricField &field : featureMetrics) {
        if (!fields.read(field, point.result, false))
            return false;
    }

    const Json *stats = doc.find("stats");
    point.statsJson = stats ? stats->dump() : "";
    const Json *series = doc.find("series");
    point.series = series ? series->dump() : "";
    return true;
}

void
ResultStore::open(const std::string &path, bool loadExisting)
{
    panic_if(_file, "result store is already open");
    _path = path;
    bool first = firstOpenInProcess(path);

    long keepBytes = 0;
    if (loadExisting) {
        if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
            std::string line;
            std::size_t lineNo = 0;
            for (;;) {
                int c = std::fgetc(in);
                if (c != EOF && c != '\n') {
                    line.push_back((char)c);
                    continue;
                }
                bool atEof = (c == EOF);
                ++lineNo;
                if (line.empty()) {
                    // Blank line (or clean end of file).
                    keepBytes = std::ftell(in);
                    if (atEof)
                        break;
                    line.clear();
                    continue;
                }
                StoredPoint point;
                std::string error;
                if (deserialize(line, point, &error)) {
                    _records[point.key] = std::move(point);
                    keepBytes = std::ftell(in);
                    if (atEof)
                        break;
                } else if (atEof) {
                    // A newline-less partial final line is what a
                    // killed run leaves behind: drop it and let the
                    // sweep recompute that point.
                    warn("results file '", path, "': discarding ",
                         "partial final record (line ", lineNo,
                         ", ", error, ")");
                    break;
                } else {
                    fatal("results file '", path, "' is corrupt ",
                          "at line ", lineNo, ": ", error,
                          " — refusing to resume from it");
                }
                line.clear();
            }
            std::fclose(in);
            // Trim any discarded partial tail so appended records
            // start on a fresh line.
            if (::truncate(path.c_str(), keepBytes) != 0) {
                fatal("cannot truncate partial record from '", path,
                      "'");
            }
        }
        _file = std::fopen(path.c_str(), "ab");
    } else {
        _file = std::fopen(path.c_str(), first ? "wb" : "ab");
    }
    fatal_if(!_file, "cannot open results file '", path,
             "' for writing");
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _records.size();
}

const StoredPoint *
ResultStore::find(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _records.find(key);
    return it == _records.end() ? nullptr : &it->second;
}

void
ResultStore::append(const StoredPoint &point)
{
    std::string line = serialize(point) + "\n";
    std::lock_guard<std::mutex> lock(_mutex);
    _records[point.key] = point;
    if (!_file)
        return;
    panic_if(std::fwrite(line.data(), 1, line.size(), _file) !=
                 line.size(),
             "short write to results file '", _path,
             "' (disk full?)");
    panic_if(std::fflush(_file) != 0,
             "cannot flush results file '", _path, "'");
}

void
ResultStore::close()
{
    if (!_file)
        return;
    panic_if(std::fclose(_file) != 0,
             "cannot close results file '", _path, "'");
    _file = nullptr;
}

} // namespace scmp::sweep
