#include "common/cli.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

namespace tpcp::cli
{

namespace
{

const char *
valueSuffix(Kind kind)
{
    switch (kind) {
      case Kind::Flag:
        return "";
      case Kind::U32:
      case Kind::U64:
        return "=N";
      case Kind::Real:
        return "=X";
      case Kind::Text:
      default:
        return "=V";
    }
}

/** The largest value of an integer @p kind. */
std::uint64_t
maxOf(Kind kind)
{
    return kind == Kind::U32 ? std::numeric_limits<unsigned>::max()
                             : std::numeric_limits<std::uint64_t>::max();
}

/** Whether @p value is a valid value of @p kind. */
bool
valid(Kind kind, const std::string &value)
{
    switch (kind) {
      case Kind::U32:
      case Kind::U64:
        return parseUnsigned(value, maxOf(kind)).has_value();
      case Kind::Real:
        return parseReal(value).has_value();
      default:
        return !value.empty();
    }
}

/** What a value of @p kind must look like, for error messages. */
std::string
expected(Kind kind)
{
    switch (kind) {
      case Kind::U32:
      case Kind::U64:
        return "a non-negative integer up to " +
               std::to_string(maxOf(kind));
      case Kind::Real:
        return "a finite non-negative number";
      default:
        return "a value";
    }
}

} // namespace

bool
ParsedArgs::has(const std::string &name) const
{
    return values.count(name) != 0;
}

std::string
ParsedArgs::get(const std::string &name, const std::string &dflt) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
}

unsigned
ParsedArgs::getU32(const std::string &name, unsigned dflt) const
{
    auto it = values.find(name);
    return it == values.end()
               ? dflt
               : static_cast<unsigned>(
                     parseUnsigned(it->second, maxOf(Kind::U32))
                         .value());
}

std::uint64_t
ParsedArgs::getU64(const std::string &name, std::uint64_t dflt) const
{
    auto it = values.find(name);
    return it == values.end()
               ? dflt
               : parseUnsigned(it->second, maxOf(Kind::U64)).value();
}

double
ParsedArgs::getDouble(const std::string &name, double dflt) const
{
    auto it = values.find(name);
    return it == values.end() ? dflt : parseReal(it->second).value();
}

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string_view::npos)
        return std::nullopt;
    std::uint64_t v = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseReal(std::string_view text)
{
    // Digits first rules out signs, spaces, "nan" and "inf"; the
    // character set rules out hex floats.
    if (text.empty() ||
        text.find_first_not_of("0123456789.eE+-") !=
            std::string_view::npos ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.'))
        return std::nullopt;
    double v = 0.0;
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
optionHelp(const std::vector<FlagSpec> &flags)
{
    if (flags.empty())
        return "  (none)\n";
    std::string out;
    for (const FlagSpec &f : flags)
        out += "  --" + f.name + valueSuffix(f.kind) + "  " + f.help +
               "\n";
    return out;
}

std::optional<ParsedArgs>
tryParse(const std::vector<std::string> &argv,
         const std::vector<FlagSpec> &flags, bool positional,
         std::string &error)
{
    auto fail = [&](const std::string &msg) {
        error = msg + "\nvalid options:\n" + optionHelp(flags);
        return std::nullopt;
    };
    ParsedArgs out;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!positional)
                return fail("unknown argument '" + arg + "'");
            out.positional.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name =
            arg.substr(2, eq == std::string::npos ? eq : eq - 2);
        const FlagSpec *spec = nullptr;
        for (const FlagSpec &f : flags)
            if (f.name == name)
                spec = &f;
        if (!spec)
            return fail("unknown argument '" + arg + "'");

        std::string value;
        if (spec->kind == Kind::Flag) {
            if (eq != std::string::npos)
                return fail("--" + name + " takes no value");
        } else if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (i + 1 < argv.size() &&
                   argv[i + 1].rfind("--", 0) != 0) {
            value = argv[++i];
        } else {
            return fail("--" + name + " expects a value");
        }
        if (spec->kind != Kind::Flag && !valid(spec->kind, value))
            return fail("--" + name + " expects " +
                        expected(spec->kind) + ", got '" + value +
                        "'");
        out.values[name] = std::move(value);
    }
    return out;
}

ParsedArgs
parseOrExit(const std::vector<std::string> &argv,
            const std::vector<FlagSpec> &flags, bool positional,
            const std::string &usage)
{
    for (const std::string &arg : argv) {
        if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << usage << "\noptions:\n"
                      << optionHelp(flags);
            std::exit(0);
        }
    }
    std::string error;
    std::optional<ParsedArgs> args =
        tryParse(argv, flags, positional, error);
    if (!args) {
        std::cerr << "error: " << error;
        std::exit(2);
    }
    return *args;
}

FlagSpec
jobsFlag()
{
    return {"jobs", Kind::U32,
            "worker threads (0 = one per hardware thread, "
            "1 = serial)"};
}

} // namespace tpcp::cli
