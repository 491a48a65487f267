/**
 * @file
 * One declarative table describing every MachineConfig field.
 *
 * Each entry names a field by its dotted path and gives its scmp
 * flag, result-store axis tag, enum spellings, lower bound, when it
 * is inert, and whether it only observes the run. The CLI parser,
 * --list, the sweep point key, MachineConfig::check's per-field
 * bounds and the store's axis columns all walk this table, so a new
 * field is one new entry (the build fails until it has one).
 *
 * Table order is point-key order and store axis order: reordering
 * entries changes every key and orphans every stored record.
 */

#ifndef SCMP_CORE_CONFIG_SCHEMA_HH
#define SCMP_CORE_CONFIG_SCHEMA_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <typeinfo>

#include "core/machine.hh"

namespace scmp
{

class Config;

/** One spelling of an enum value. */
struct Spelling
{
    const char *name;
    std::uint64_t value;
    const char *help = nullptr;  //!< --list text, '\n'-separated lines
    bool alias = false;          //!< parses, never listed or printed
};

/** A field's value type, as the parser and messages see it. */
enum class FieldKind : std::uint8_t { Unsigned, Signed, Bool, Enum };

/** One MachineConfig field; obs and refTap have no accessor. */
struct ConfigField
{
    const char *name;  //!< dotted path, e.g. "scc.sec.mode"
    /** The value as the point key mixes it. */
    std::uint64_t (*get)(const MachineConfig &) = nullptr;
    void (*set)(MachineConfig &, std::uint64_t) = nullptr;
    const std::type_info *type = nullptr;
    std::uint64_t maxValue = 0;  //!< largest value a number type holds
    FieldKind kind = FieldKind::Unsigned;

    /**
     * Inert unless live() holds (null: always live). An inert field
     * does not affect the simulation and stays out of the point key,
     * so keys captured before its feature existed still resolve.
     */
    bool (*live)(const MachineConfig &) = nullptr;

    /** Enum fields: canonical spellings in value order, then aliases. */
    std::span<const Spelling> spellings = {};
    const char *flag = nullptr;  //!< scmp flag without "--"
    bool bytes = false;          //!< the flag takes K/M/G suffixes
    const char *axis = nullptr;  //!< result-store axis tag

    std::uint64_t atLeast = 0;   //!< smallest accepted value
    bool powerOf2 = false;
    const char *unit = nullptr;  //!< what the bound counts, for messages
    /** Observes the run without changing any simulated result. */
    bool observational = false;
};

/** Every MachineConfig field, in point-key order. */
std::span<const ConfigField> configSchema();

/** The field whose @p tag (&ConfigField::flag or ::axis) is @p name. */
const ConfigField *findField(const char *ConfigField::*tag,
                             std::string_view name);

/** Set each field whose flag @p flags carries; fatal on a bad value. */
void applyFlags(const Config &flags, MachineConfig &config);

/** @p field's value in @p config: its spelling, or the decimal. */
std::string fieldText(const ConfigField &field,
                      const MachineConfig &config);

/// @name Names and parsers for every enum-valued field.
/// @{
const char *spellingName(std::span<const Spelling> spellings,
                         std::uint64_t value);
bool parseSpelling(std::span<const Spelling> spellings,
                   std::string_view text, std::uint64_t *value);
/** The spellings of the field whose enum type is @p type. */
std::span<const Spelling> enumSpellings(const std::type_info &type);

template <class E>
const char *
enumName(E value)
{
    return spellingName(enumSpellings(typeid(E)), (std::uint64_t)value);
}

/** Parse any spelling of @p text; false (and *out kept) if unknown. */
template <class E>
bool
parseEnum(std::string_view text, E *out)
{
    std::uint64_t value = 0;
    bool ok = parseSpelling(enumSpellings(typeid(E)), text, &value);
    if (ok)
        *out = (E)value;
    return ok;
}
/// @}

} // namespace scmp

#endif // SCMP_CORE_CONFIG_SCHEMA_HH
