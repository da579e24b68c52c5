/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: loads (or
 * builds and caches) the interval profiles of all 11 workloads and
 * provides small aggregation helpers. Every fig*_ binary prints the
 * rows/series of one paper figure.
 *
 * All harnesses accept `--jobs=N` (or `--jobs N`): profile loading
 * and the experiment grid fan out over N threads (0 or omitted = one
 * per hardware thread, 1 = the plain serial loop). Output is
 * bit-identical for every job count — results come back in grid
 * order and each cell is a pure function of its inputs.
 */

#ifndef TPCP_BENCH_BENCH_COMMON_HH
#define TPCP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/status.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

namespace tpcp::bench
{

/** Every harness's flags: the shared --jobs, then @p extras. */
inline std::vector<cli::FlagSpec>
harnessFlags(const std::vector<cli::FlagSpec> &extras)
{
    std::vector<cli::FlagSpec> flags = {cli::jobsFlag()};
    flags.insert(flags.end(), extras.begin(), extras.end());
    return flags;
}

/**
 * Parses harness arguments: the shared --jobs plus @p extras.
 * Harnesses take no positional arguments. Returns std::nullopt with
 * the message in @p error for unknown or malformed flags — a typo
 * like --job=4 must fail loudly, not silently run the full serial
 * sweep.
 */
inline std::optional<cli::ParsedArgs>
tryParseArgs(const std::vector<std::string> &argv,
             const std::vector<cli::FlagSpec> &extras,
             std::string &error)
{
    return cli::tryParse(argv, harnessFlags(extras), false, error);
}

/** tryParseArgs() for a harness process: --help prints the valid
 * options and exits 0, an error exits 2. */
inline cli::ParsedArgs
parseArgs(int argc, char **argv,
          const std::vector<cli::FlagSpec> &extras = {})
{
    return cli::parseOrExit({argv + 1, argv + argc},
                            harnessFlags(extras), false,
                            std::string(argv[0]) + " [options]");
}

/** The shared `--trace=` flag: every profile-replaying harness
 * accepts ingested `.tpcptrace` files in place of the synthetic
 * workload set. */
inline cli::FlagSpec
traceFlag()
{
    return {"trace", cli::Kind::Text,
            "comma-separated .tpcptrace files to analyze instead "
            "of the 11 synthetic workloads"};
}

/** Splits @p csv on commas, skipping empty fields. */
inline std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::string field;
    for (char ch : csv) {
        if (ch == ',') {
            if (!field.empty())
                out.push_back(std::move(field));
            field.clear();
        } else {
            field += ch;
        }
    }
    if (!field.empty())
        out.push_back(std::move(field));
    return out;
}

/**
 * The comma-separated fields of --@p name (default @p dflt), each
 * converted by @p parse (a cli::parseReal-like function returning
 * std::optional). Exits 2 naming the flag when there is no field or
 * @p parse rejects one; @p what describes the valid fields.
 */
template <typename Parse>
auto
csvValues(const cli::ParsedArgs &args, const std::string &name,
          const std::string &dflt, const std::string &what, Parse parse)
{
    const std::string csv = args.get(name, dflt);
    const std::vector<std::string> fields = splitCsv(csv);
    std::vector<typename decltype(parse(""))::value_type> out;
    for (const std::string &field : fields)
        if (auto v = parse(field))
            out.push_back(*v);
    if (fields.empty() || out.size() != fields.size()) {
        std::cerr << "error: --" << name << " expects comma-separated "
                  << what << ", got '" << csv << "'\n";
        std::exit(2);
    }
    return out;
}

/**
 * (workload name, profile) for every benchmark, in paper order.
 * Profiles are loaded (or simulated and cached) on @p jobs threads;
 * the result order never depends on the job count.
 */
inline std::vector<std::pair<std::string, trace::IntervalProfile>>
loadAllProfiles(const trace::ProfileOptions &opts = {},
                unsigned jobs = 1)
{
    const std::vector<std::string> &names =
        workload::workloadNames();
    std::cerr << "[profile] loading " << names.size()
              << " workload profiles ("
              << analysis::effectiveJobs(jobs, names.size())
              << " jobs) ...\n";
    auto loaded = analysis::runIndexed(
        names.size(), jobs, [&](std::size_t i) {
            return trace::getProfileByName(names[i], opts);
        });
    std::vector<std::pair<std::string, trace::IntervalProfile>> out;
    out.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::cerr << "[profile] " << names[i] << " ... "
                  << loaded[i].numIntervals() << " intervals\n";
        out.emplace_back(names[i], std::move(loaded[i]));
    }
    return out;
}

/**
 * Workload set for a parsed harness invocation: the trace files
 * named by `--trace=` when given (ingested via the content-hashed
 * trace cache, named by their embedded workload names), the full
 * synthetic benchmark set otherwise.
 */
inline std::vector<std::pair<std::string, trace::IntervalProfile>>
loadAllProfiles(const cli::ParsedArgs &args,
                const trace::ProfileOptions &opts = {})
{
    if (args.has("trace")) {
        std::vector<std::string> paths =
            splitCsv(args.get("trace", ""));
        if (paths.empty()) {
            std::cerr << "error: --trace expects at least one "
                         ".tpcptrace path\n";
            std::exit(2);
        }
        std::vector<std::pair<std::string, trace::IntervalProfile>>
            out;
        out.reserve(paths.size());
        for (const std::string &path : paths) {
            trace::IntervalProfile p = trace::getTraceProfile(path);
            std::cerr << "[trace] " << path << " -> "
                      << p.workload() << " ... "
                      << p.numIntervals() << " intervals\n";
            std::string name = p.workload();
            out.emplace_back(std::move(name), std::move(p));
        }
        return out;
    }
    return loadAllProfiles(opts, args.jobs());
}

/** json::writeFile() for a harness with no Error handler of its
 * own: false after printing "error: cannot write PATH". */
inline bool
writeJson(const std::string &path, std::string_view text)
{
    try {
        json::writeFile(path, text);
        return true;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return false;
    }
}

/**
 * A floors file: `name value...` lines with @p columns values each,
 * blank and `#` lines skipped. Raises on an unreadable file or a
 * malformed line; @p want spells out a line for that message.
 */
inline std::map<std::string, std::vector<double>>
loadFloors(const std::string &path, std::size_t columns,
           const std::string &want)
{
    std::ifstream in(path);
    if (!in)
        tpcp_raise("cannot read floors file ", path);
    std::map<std::string, std::vector<double>> floors;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        std::vector<double> values(columns);
        ls >> name;
        for (double &v : values)
            ls >> v;
        if (!ls)
            tpcp_raise("floors file ", path, ": malformed line '",
                       line, "' (want: ", want, ")");
        floors[name] = values;
    }
    return floors;
}

/** Arithmetic mean of a vector (0 when empty). */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Prints the standard harness banner. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::cout
        << "=====================================================\n"
        << figure << ": " << what << "\n"
        << "(Lau, Schoenmackers, Calder - Transition Phase\n"
        << " Classification and Prediction, HPCA 2005)\n"
        << "=====================================================\n\n";
}

} // namespace tpcp::bench

#endif // TPCP_BENCH_BENCH_COMMON_HH
