/**
 * @file
 * The one command-line parser of the tpcp tool and of every bench
 * harness. A command declares each flag once, as a FlagSpec with a
 * value kind and a line of help. tryParse() checks every value
 * against its kind while it parses, so an unknown flag, a signed,
 * out-of-range or trailing-garbage number, or a missing value is an
 * error naming the flag. Nothing is silently ignored or wrapped, and
 * the typed getters of a parsed command line cannot fail.
 */

#ifndef TPCP_COMMON_CLI_HH
#define TPCP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tpcp::cli
{

/** What a flag's value must be. */
enum class Kind
{
    Flag, ///< no value: --name
    Text, ///< a non-empty string
    U32,  ///< a decimal integer that fits `unsigned`
    U64,  ///< a decimal integer that fits std::uint64_t
    Real, ///< a finite, non-negative decimal number
};

/** One accepted flag. */
struct FlagSpec
{
    /** Flag name without the leading "--". */
    std::string name;
    Kind kind = Kind::Text;
    /** One-line description shown by --help and on errors. */
    std::string help;
};

/** A command line that passed tryParse(). Ask each flag with the
 * getter of its declared kind. */
struct ParsedArgs
{
    /** Checked values by flag name ("" for a Kind::Flag). */
    std::map<std::string, std::string> values;
    /** Bare arguments, in order (workload names, file paths). */
    std::vector<std::string> positional;

    bool has(const std::string &name) const;
    std::string get(const std::string &name,
                    const std::string &dflt) const;
    unsigned getU32(const std::string &name, unsigned dflt) const;
    std::uint64_t getU64(const std::string &name,
                         std::uint64_t dflt) const;
    double getDouble(const std::string &name, double dflt) const;

    /** --jobs: worker threads, 0 (the default) = one per hardware
     * thread, 1 = serial. */
    unsigned jobs() const { return getU32("jobs", 0); }
};

/** @p text as an integer no larger than @p max: digits only, so
 * signs, spaces and trailing garbage are rejected. */
std::optional<std::uint64_t> parseUnsigned(std::string_view text,
                                           std::uint64_t max);

/** @p text as a finite, non-negative decimal number. */
std::optional<double> parseReal(std::string_view text);

/** The valid-options listing printed by --help and on errors. */
std::string optionHelp(const std::vector<FlagSpec> &flags);

/**
 * Parses @p argv (program and command names already stripped)
 * against @p flags, in --flag=value or --flag value form. A
 * Kind::Flag never takes a value, so the next argument stays
 * positional. Bare arguments are collected when @p positional is
 * set and are errors otherwise. Returns nullopt with the message,
 * followed by the valid options, in @p error.
 */
std::optional<ParsedArgs> tryParse(const std::vector<std::string> &argv,
                                   const std::vector<FlagSpec> &flags,
                                   bool positional, std::string &error);

/**
 * tryParse() for a process: --help or -h prints "usage: @p usage"
 * and the options, then exits 0; a parse error prints
 * "error: ..." to stderr and exits 2.
 */
ParsedArgs parseOrExit(const std::vector<std::string> &argv,
                       const std::vector<FlagSpec> &flags,
                       bool positional, const std::string &usage);

/** The shared --jobs flag. */
FlagSpec jobsFlag();

} // namespace tpcp::cli

#endif // TPCP_COMMON_CLI_HH
