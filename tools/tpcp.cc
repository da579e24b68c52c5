/**
 * @file
 * tpcp - command-line front end to the library.
 *
 * Each command declares its operands and flags once, in the command
 * table at the end of this file. `tpcp` alone lists the commands,
 * `tpcp <command> --help` one command's options. Flags go through
 * the strict common/cli.hh parser, shared with the bench harnesses:
 * an unknown flag or a malformed value exits 2 and lists the valid
 * options.
 *
 * Exit codes: 0 success, 1 runtime failure or tripped CI limit,
 * 2 usage error, 3 `profile all` with some (not all) workloads
 * failed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adapt/report.hh"
#include "analysis/experiment.hh"
#include "analysis/parallel_runner.hh"
#include "fault/resilience.hh"
#include "common/ascii_table.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/running_stats.hh"
#include "common/status.hh"
#include "pred/eval.hh"
#include "sample/report.hh"
#include "common/state_io.hh"
#include "serve/packet.hh"
#include "serve/service.hh"
#include "trace/profile_cache.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"
#include "workload/adversarial.hh"
#include "uarch/machine_config.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/simulator.hh"
#include "uarch/stats_report.hh"
#include "workload/workload.hh"

using namespace tpcp;
using cli::FlagSpec;
using cli::Kind;
using cli::ParsedArgs;

namespace
{

using Flags = std::vector<FlagSpec>;

/** Concatenates flag groups into one command's flag list. */
Flags
join(std::initializer_list<Flags> groups)
{
    Flags out;
    for (const Flags &g : groups)
        out.insert(out.end(), g.begin(), g.end());
    return out;
}

/** "a | b | c" for a flag's help line. */
std::string
oneOf(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : " | ") + n;
    return out;
}

/** How a workload's profile is built or loaded. */
Flags
profileFlags()
{
    return {{"interval", Kind::U64,
             "instructions per interval (default 100000)"},
            {"core", Kind::Text,
             "timing core: ooo | simple (default ooo; adapt: simple)"},
            {"require-cache", Kind::Flag,
             "fail a workload instead of re-simulating when its "
             "cache file is missing, corrupt or mismatched"}};
}

/** The online classifier's parameters. */
Flags
classifierFlags()
{
    return {{"threshold", Kind::Real,
             "similarity threshold (default 0.25)"},
            {"min", Kind::U32, "transition min count (default 8)"},
            {"entries", Kind::U32,
             "signature table entries (default 32)"},
            {"dims", Kind::U32, "accumulator counters (default 16)"},
            {"static-thresh", Kind::Flag,
             "disable adaptive thresholds"}};
}

/** --trace: ingested .tpcptrace input in place of named workloads;
 * @p several when the command takes a comma-separated list. */
FlagSpec
traceFlag(bool several)
{
    return {"trace", Kind::Text,
            several ? "comma-separated .tpcptrace files to analyze "
                      "instead of named workloads"
                    : "a .tpcptrace file to analyze instead of a "
                      "named workload"};
}

/** --json: where a command writes its machine-readable report. */
FlagSpec
jsonFlag(const std::string &what)
{
    return {"json", Kind::Text,
            "write " + what + " as JSON ('-' disables)"};
}

/** False, after printing the error, unless @p name is a built-in
 * workload. */
bool
knownWorkload(const std::string &name)
{
    if (workload::isWorkloadName(name))
        return true;
    std::cerr << "error: unknown workload '" << name
              << "'; run 'tpcp workloads'\n";
    return false;
}

/** The single operand of a command that takes exactly one (@p what
 * names it); nullopt, after printing the error, otherwise. */
std::optional<std::string>
oneOperand(const ParsedArgs &args, const std::string &what)
{
    if (args.positional.empty()) {
        std::cerr << "error: " << what << " is required\n";
        return std::nullopt;
    }
    if (args.positional.size() > 1) {
        std::cerr << "error: unexpected argument '"
                  << args.positional[1] << "'\n";
        return std::nullopt;
    }
    return args.positional.front();
}

std::optional<std::string>
requireWorkload(const ParsedArgs &args)
{
    auto name = oneOperand(args, "a workload name");
    if (name && !knownWorkload(*name))
        return std::nullopt;
    return name;
}

trace::ProfileOptions
profileOptions(const ParsedArgs &args)
{
    trace::ProfileOptions opts;
    opts.intervalLen = args.getU64("interval", 100'000);
    opts.coreName = args.get("core", "ooo");
    opts.requireCache = args.has("require-cache");
    return opts;
}

/**
 * The profile a single-workload command operates on: the ingested
 * trace named by --trace when given (a trace is a first-class
 * workload), the cached/simulated profile of the named workload
 * otherwise. nullopt (after printing the error) on bad usage.
 */
std::optional<trace::IntervalProfile>
inputProfile(const ParsedArgs &args)
{
    if (args.has("trace")) {
        if (!args.positional.empty()) {
            std::cerr << "error: --trace and a workload name are "
                         "mutually exclusive\n";
            return std::nullopt;
        }
        return trace::getTraceProfile(args.get("trace", ""));
    }
    auto name = requireWorkload(args);
    if (!name)
        return std::nullopt;
    return trace::getProfileByName(*name, profileOptions(args));
}

/**
 * The inputs of a multi-workload command: every --trace file
 * (name, profile) in argument order when --trace is given, else the
 * named workloads, else — when @p all_by_default — all 11. False
 * (after printing the error) on an unknown workload name or --trace
 * combined with names.
 */
bool
workloadInputs(const ParsedArgs &args, bool all_by_default,
               std::vector<std::string> &names,
               std::vector<trace::IntervalProfile> &traced)
{
    names = args.positional;
    if (args.has("trace")) {
        if (!names.empty()) {
            std::cerr << "error: --trace and workload names are "
                         "mutually exclusive\n";
            return false;
        }
        for (auto &[name, profile] :
             trace::loadTraceProfiles(args.get("trace", ""))) {
            names.push_back(name);
            traced.push_back(std::move(profile));
        }
        if (names.empty()) {
            std::cerr << "error: --trace expects at least one "
                         ".tpcptrace path\n";
            return false;
        }
        return true;
    }
    for (const std::string &name : names)
        if (!knownWorkload(name))
            return false;
    if (names.empty() && all_by_default)
        names = workload::workloadNames();
    return true;
}

/** Writes @p reports to --json unless the flag is absent or '-'. */
template <typename Report>
void
writeJsonReports(const ParsedArgs &args,
                 const std::vector<Report> &reports)
{
    const std::string path = args.get("json", "");
    if (path.empty() || path == "-")
        return;
    json::writeFile(path, json::lines(reports));
    std::cout << "wrote " << reports.size() << " reports to " << path
              << "\n";
}

/**
 * The CI tripwire behind --@p flag, when given: checks @p value, the
 * run's @p what, against the flag's limit (an upper bound for a
 * --max-* flag, a lower bound otherwise), prints the verdict and
 * returns the exit code, 1 when tripped. Both numbers print times
 * @p scale followed by @p unit.
 */
int
tripwire(const ParsedArgs &args, const std::string &flag,
         const std::string &what, double value, double scale,
         const std::string &unit)
{
    if (!args.has(flag))
        return 0;
    const double limit = args.getDouble(flag, 0.0);
    const bool upper = flag.rfind("max-", 0) == 0;
    const bool ok = upper ? value <= limit : value >= limit;
    const char *verdict = ok ? (upper ? "within" : "meets")
                             : (upper ? "exceeds" : "below");
    (ok ? std::cout : std::cerr)
        << (ok ? "" : "error: ") << what << " " << value * scale
        << unit << " " << verdict << " --" << flag << " "
        << limit * scale << unit << "\n";
    return ok ? 0 : 1;
}

/** Exits 2 with "error: --@p flag @p problem": a value the parser
 * accepts that the command cannot run with. */
[[noreturn]] void
badFlag(const std::string &flag, const std::string &problem)
{
    std::cerr << "error: --" << flag << " " << problem << "\n";
    std::exit(2);
}

/** Largest --entries: a bounded table reserves all of its entries up
 * front (0, unbounded, grows on demand). */
constexpr unsigned kMaxTableEntries = 1u << 16;

/** The classifier flags of every command that takes them, checked
 * here once so that no value can reach a library assertion. */
phase::ClassifierConfig
classifierConfig(const ParsedArgs &args)
{
    phase::ClassifierConfig cfg =
        phase::ClassifierConfig::paperDefault();
    cfg.similarityThreshold = args.getDouble("threshold", 0.25);
    if (cfg.similarityThreshold <= 0.0 || cfg.similarityThreshold > 1.0)
        badFlag("threshold", "must be in (0, 1]");
    cfg.minCountThreshold = args.getU32("min", 8);
    cfg.tableEntries = args.getU32("entries", 32);
    if (cfg.tableEntries > kMaxTableEntries)
        badFlag("entries", "must be at most " +
                               std::to_string(kMaxTableEntries) +
                               " (0 = unbounded)");
    // Bounded by what one serve packet carries, for every command.
    cfg.numCounters = args.getU32("dims", 16);
    if (cfg.numCounters == 0 ||
        cfg.numCounters > serve::kMaxPacketCounters)
        badFlag("dims", "must be between 1 and " +
                            std::to_string(serve::kMaxPacketCounters));
    if (args.has("static-thresh"))
        cfg.adaptiveThreshold = false;
    return cfg;
}

int
cmdWorkloads(const ParsedArgs &)
{
    AsciiTable table({"name", "regions", "insts(M)", "description"});
    for (const auto &name : workload::workloadNames()) {
        workload::Workload w = workload::makeWorkload(name);
        table.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(
                w.program.regions.size()))
            .cell(static_cast<std::uint64_t>(w.totalInsts() /
                                             1'000'000))
            .cell(w.description);
    }
    table.print(std::cout);
    return 0;
}

int
cmdMachine(const ParsedArgs &)
{
    std::cout << uarch::MachineConfig::table1().toString();
    return 0;
}

/** `profile all`: builds or loads every workload profile (in
 * parallel with --jobs) and prints one summary line per workload;
 * use it to warm a shared $TPCP_PROFILE_DIR before a figure-suite
 * run. */
int
cmdProfileAll(const ParsedArgs &args)
{
    const unsigned jobs = args.jobs();
    trace::ProfileOptions opts = profileOptions(args);
    const std::vector<std::string> &names =
        workload::workloadNames();
    std::cerr << "building/loading " << names.size()
              << " profiles ("
              << analysis::effectiveJobs(jobs, names.size())
              << " jobs) ...\n";
    // Graceful degradation: one bad workload (corrupt cache file
    // under --require-cache, unknown core, ...) is skipped and
    // reported at the end instead of aborting the whole batch. Each
    // task writes only its own error slot, so the vector needs no
    // lock.
    std::vector<std::string> errors(names.size());
    auto profiles = analysis::runIndexed(
        names.size(), jobs,
        [&](std::size_t i) -> std::optional<trace::IntervalProfile> {
            try {
                return trace::getProfileByName(names[i], opts);
            } catch (const Error &e) {
                errors[i] = e.what();
                return std::nullopt;
            }
        });
    AsciiTable table(
        {"workload", "intervals", "avg CPI", "CoV"});
    std::size_t failed = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!profiles[i]) {
            ++failed;
            table.row().cell(names[i]).cell("-").cell("-").cell(
                "FAILED");
            continue;
        }
        RunningStats cpi;
        for (const auto &rec : profiles[i]->intervals())
            cpi.push(rec.cpi);
        table.row()
            .cell(names[i])
            .cell(static_cast<std::uint64_t>(
                profiles[i]->numIntervals()))
            .cell(cpi.mean(), 3)
            .percentCell(cpi.cov());
    }
    table.print(std::cout);
    trace::ProfileCacheStats stats = trace::profileCacheStats();
    std::cout << "cache: " << stats.hits << " hits, " << stats.builds
              << " builds, " << stats.rejects << " rejects\n";
    if (failed != 0) {
        std::cerr << "error: " << failed << " of " << names.size()
                  << " workloads failed:\n";
        for (std::size_t i = 0; i < names.size(); ++i)
            if (!errors[i].empty())
                std::cerr << "  " << names[i] << ": " << errors[i]
                          << "\n";
        // 3 = partial failure: some profiles were still produced.
        return failed == names.size() ? 1 : 3;
    }
    return 0;
}

int
cmdProfile(const ParsedArgs &args)
{
    if (args.positional == std::vector<std::string>{"all"})
        return cmdProfileAll(args);
    auto loaded = inputProfile(args);
    if (!loaded)
        return 2;
    trace::IntervalProfile profile = std::move(*loaded);
    RunningStats cpi;
    for (const auto &rec : profile.intervals())
        cpi.push(rec.cpi);
    AsciiTable table({"metric", "value"});
    table.row().cell("workload").cell(profile.workload());
    table.row().cell("core").cell(profile.coreName());
    table.row()
        .cell("interval length")
        .cell(static_cast<std::uint64_t>(profile.intervalLength()));
    table.row()
        .cell("intervals")
        .cell(static_cast<std::uint64_t>(profile.numIntervals()));
    table.row().cell("avg CPI").cell(cpi.mean(), 3);
    table.row().cell("min / max CPI").cell(
        std::to_string(cpi.min()).substr(0, 5) + " / " +
        std::to_string(cpi.max()).substr(0, 5));
    table.row().cell("whole-program CoV").percentCell(cpi.cov());
    table.print(std::cout);
    return 0;
}

char
phaseChar(PhaseId id)
{
    if (id == transitionPhaseId)
        return '.';
    static const char glyphs[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    return glyphs[(id - 1) % (sizeof(glyphs) - 1)];
}

/** The input profile, classified under the command's classifier
 * flags (checked before the profile loads); nullopt after a usage
 * error was printed. */
std::optional<analysis::ClassificationResult>
classifyInput(const ParsedArgs &args)
{
    const phase::ClassifierConfig cfg = classifierConfig(args);
    auto profile = inputProfile(args);
    if (!profile)
        return std::nullopt;
    return analysis::classifyProfile(*profile, cfg);
}

int
cmdClassify(const ParsedArgs &args)
{
    auto res = classifyInput(args);
    if (!res)
        return 2;

    if (args.has("timeline")) {
        for (std::size_t i = 0; i < res->trace.size(); ++i) {
            std::cout << phaseChar(res->trace.phases[i]);
            if ((i + 1) % 80 == 0)
                std::cout << '\n';
        }
        std::cout << "\n\n";
    }

    AsciiTable table({"metric", "value"});
    table.row().cell("stable phases").cell(
        static_cast<std::uint64_t>(res->numPhases));
    table.row().cell("per-phase CPI CoV").percentCell(res->covCpi);
    table.row()
        .cell("whole-program CoV")
        .percentCell(res->wholeProgramCov);
    table.row()
        .cell("transition time")
        .percentCell(res->transitionFraction);
    table.row()
        .cell("avg stable run")
        .cell(res->runLengths.stableAvg, 1);
    table.row()
        .cell("avg transition run")
        .cell(res->runLengths.transitionAvg, 1);
    table.row()
        .cell("threshold halvings")
        .cell(res->classifierStats.thresholdHalvings);
    table.print(std::cout);
    return 0;
}

int
cmdPredict(const ParsedArgs &args)
{
    auto res = classifyInput(args);
    if (!res)
        return 2;

    std::string pname = args.get("predictor", "rle2");
    std::optional<pred::PredictorSpec> spec =
        pred::predictorSpecByName(pname);
    pred::NextPhaseStats next =
        spec ? pred::evalNextPhase(res->trace.phases, *spec)
             : pred::evalNextPhase(res->trace.phases, std::nullopt);

    AsciiTable table({"metric", "value"});
    table.row().cell("predictor").cell(
        spec ? spec->displayName() : "Last Value");
    table.row().cell("next-phase accuracy").percentCell(
        next.accuracy());
    table.row()
        .cell("confident accuracy")
        .percentCell(next.confidentAccuracy());
    table.row()
        .cell("confident coverage")
        .percentCell(next.confidentCoverage());
    table.row().cell("interval change rate").percentCell(
        next.total ? static_cast<double>(next.phaseChanges) /
                         static_cast<double>(next.total)
                   : 0.0);
    if (spec) {
        pred::ChangeOutcomeStats ch =
            pred::evalChangeOutcome(res->trace.phases, *spec);
        table.row()
            .cell("phase changes predicted")
            .percentCell(ch.correctRate());
        table.row()
            .cell("change tag-miss rate")
            .percentCell(ch.changes
                             ? static_cast<double>(ch.tagMiss) /
                                   static_cast<double>(ch.changes)
                             : 0.0);
    }
    pred::RunLengthStats rl = pred::evalRunLength(res->trace.phases);
    table.row()
        .cell("length-class mispredict")
        .percentCell(rl.mispredictRate());
    table.print(std::cout);
    return 0;
}

int
cmdExport(const ParsedArgs &args)
{
    auto res = classifyInput(args);
    if (!res)
        return 2;

    std::ofstream file;
    std::ostream *out = &std::cout;
    std::string path = args.get("out", "");
    if (!path.empty()) {
        file.open(path);
        if (!file) {
            std::cerr << "error: cannot open " << path << "\n";
            return 1;
        }
        out = &file;
    }
    *out << "interval,cpi,phase,is_transition\n";
    for (std::size_t i = 0; i < res->trace.size(); ++i) {
        *out << i << ',' << res->trace.cpis[i] << ','
             << res->trace.phases[i] << ','
             << (res->trace.phases[i] == transitionPhaseId ? 1 : 0)
             << '\n';
    }
    if (!path.empty())
        std::cout << "wrote " << res->trace.size()
                  << " intervals to " << path << "\n";
    return 0;
}

int
cmdSimStats(const ParsedArgs &args)
{
    auto name = requireWorkload(args);
    if (!name)
        return 2;
    workload::Workload w = workload::makeWorkload(*name);
    auto schedule = w.makeSchedule();

    std::string core_name = args.get("core", "ooo");
    std::unique_ptr<uarch::TimingCore> core;
    uarch::MachineConfig machine = uarch::MachineConfig::table1();
    if (core_name == "ooo") {
        core = std::make_unique<uarch::OooCore>(machine);
    } else if (core_name == "simple") {
        core = std::make_unique<uarch::SimpleCore>(machine);
    } else {
        std::cerr << "error: unknown core '" << core_name << "'\n";
        return 2;
    }

    uarch::Simulator sim(w.program, *schedule, *core,
                         w.seed ^ 0xabcdef12345ULL);
    InstCount max_insts = args.getU64("max-insts", 0);
    std::cerr << "simulating " << *name << " on the '" << core_name
              << "' core...\n";
    sim.run(max_insts);
    std::cout << uarch::formatCoreStats(*core);
    return 0;
}

int
cmdSample(const ParsedArgs &args)
{
    std::vector<std::string> names;
    std::vector<trace::IntervalProfile> traced;
    if (!workloadInputs(args, true, names, traced))
        return 2;
    auto budget =
        static_cast<std::size_t>(args.getU64("budget", 16));
    if (budget == 0)
        badFlag("budget", "must be positive");
    std::string selector = args.get("selector", "stratified");
    sample::PhaseSource source = sample::phaseSourceByName(
        args.get("phase-source", "online"));
    const unsigned jobs = args.jobs();
    trace::ProfileOptions opts = profileOptions(args);

    std::cerr << "[sample] " << names.size() << " workloads, "
              << "selector=" << selector << ", budget=" << budget
              << " (" << analysis::effectiveJobs(jobs, names.size())
              << " jobs)\n";
    std::vector<sample::SampleReport> reports =
        analysis::runIndexed(
            names.size(), jobs, [&](std::size_t i) {
                trace::IntervalProfile profile =
                    traced.empty()
                        ? trace::getProfileByName(names[i], opts)
                        : traced[i];
                return sample::runSampledSimulation(
                    profile, selector, source, budget);
            });

    AsciiTable table({"workload", "phases", "sampled", "true CPI",
                      "est CPI", "error", "pred err", "speedup"});
    double worst = 0.0;
    for (const sample::SampleReport &r : reports) {
        table.row()
            .cell(r.workload)
            .cell(std::to_string(r.phasesCovered) + "/" +
                  std::to_string(r.phasesTotal))
            .cell(std::to_string(r.sampled) + "/" +
                  std::to_string(r.totalIntervals))
            .cell(r.trueCpi, 3)
            .cell(r.estimatedCpi, 3)
            .percentCell(r.relError)
            .percentCell(r.predictedRelError)
            .cell(r.speedupEquivalent(), 1);
        worst = std::max(worst, r.relError);
    }
    table.print(std::cout);

    writeJsonReports(args, reports);
    return tripwire(args, "max-error", "worst CPI error", worst, 100.0,
                    "%");
}

int
cmdAdapt(const ParsedArgs &args)
{
    std::vector<std::string> names;
    std::vector<trace::IntervalProfile> traced;
    if (!workloadInputs(args, true, names, traced))
        return 2;
    adapt::PolicyPreset preset =
        adapt::policyPresetByName(args.get("policy", "greedy"));
    adapt::ConfigLattice lattice = adapt::ConfigLattice::byName(
        args.get("lattice", "standard"));
    const unsigned jobs = args.jobs();
    trace::ProfileOptions opts = profileOptions(args);
    if (!args.has("core"))
        opts.coreName = "simple";

    std::cerr << "[adapt] " << names.size() << " workloads, "
              << "policy=" << preset.name
              << ", lattice=" << lattice.size() << " configs ("
              << analysis::effectiveJobs(jobs, names.size())
              << " jobs)\n";
    std::vector<adapt::AdaptReport> reports = analysis::runIndexed(
        names.size(), jobs, [&](std::size_t i) {
            // Traces replay in recorded-CPI mode (energy-only
            // lattice; see adapt/report.hh).
            if (!traced.empty())
                return adapt::runTraceAdaptation(traced[i], preset,
                                                 lattice);
            return adapt::runAdaptation(names[i], preset, lattice,
                                        opts);
        });

    AsciiTable table({"workload", "phases", "switches", "penalty(K)",
                      "policy", "static", "oracle", "of oracle",
                      "slowdown"});
    double worst_fraction = 1.0;
    for (const adapt::AdaptReport &r : reports) {
        table.row()
            .cell(r.workload)
            .cell(static_cast<std::uint64_t>(r.numPhases))
            .cell(r.switches.total())
            .cell(static_cast<double>(r.switches.penaltyCycles) /
                      1000.0,
                  1)
            .percentCell(r.edpSavings(r.policyTotals))
            .percentCell(r.edpSavings(r.staticBest))
            .percentCell(r.edpSavings(r.oracle))
            .percentCell(r.oracleFraction())
            .percentCell(r.slowdown());
        worst_fraction = std::min(worst_fraction,
                                  r.oracleFraction());
    }
    table.print(std::cout);

    writeJsonReports(args, reports);
    return tripwire(args, "min-oracle", "worst oracle fraction",
                    worst_fraction, 100.0, "%");
}

int
cmdFaults(const ParsedArgs &args)
{
    std::vector<std::string> names;
    std::vector<trace::IntervalProfile> traced;
    if (!workloadInputs(args, true, names, traced))
        return 2;

    fault::ResilienceOptions ropts;
    ropts.injector.target =
        fault::targetByName(args.get("target", "all"));
    {
        // Which change predictor rides under fault; "lastvalue"
        // (no table at all) is not meaningful here.
        std::string pname = args.get("predictor", "rle2");
        auto spec = pred::predictorSpecByName(pname);
        if (!spec) {
            std::cerr << "error: faults needs a table-backed "
                         "predictor, not '" << pname << "'\n";
            return 2;
        }
        ropts.changePredictor = *spec;
    }
    ropts.injector.ratePerInterval = args.getDouble("rate", 0.01);
    ropts.injector.mitigated = args.has("mitigated");
    ropts.injector.seed = args.getU64("seed", 0x5eedfa17);
    ropts.scrubEvery = args.getU32("scrub-every", 1);
    ropts.withAdapt = args.has("adapt");
    ropts.adaptLattice = args.get("lattice", "small");
    ropts.checkpointPath = args.get("checkpoint", "");
    ropts.checkpointAt = args.getU64("checkpoint-at", 0);
    ropts.resume = args.has("resume");
    if ((ropts.checkpointAt != 0 || ropts.resume) &&
        (ropts.checkpointPath.empty() || names.size() != 1)) {
        std::cerr << "error: --checkpoint-at/--resume need "
                     "--checkpoint PATH and exactly one workload\n";
        return 2;
    }

    const unsigned jobs = args.jobs();
    trace::ProfileOptions opts = profileOptions(args);

    std::cerr << "[faults] " << names.size() << " workloads, target="
              << fault::targetName(ropts.injector.target)
              << ", rate=" << ropts.injector.ratePerInterval
              << (ropts.injector.mitigated ? ", mitigated"
                                           : ", unmitigated")
              << " ("
              << analysis::effectiveJobs(jobs, names.size())
              << " jobs)\n";
    std::vector<fault::ResilienceReport> reports =
        analysis::runIndexed(
            names.size(), jobs, [&](std::size_t i) {
                trace::IntervalProfile profile =
                    traced.empty()
                        ? trace::getProfileByName(names[i], opts)
                        : traced[i];
                return fault::runResilience(profile, ropts);
            });

    AsciiTable table({"workload", "faults", "agreement",
                      "next-phase", "change", "length",
                      "ecc", "repairs", "quar"});
    double worst = 1.0;
    for (const fault::ResilienceReport &r : reports) {
        auto pair = [](double base, double faulty) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1f>%.1f",
                          base * 100.0, faulty * 100.0);
            return std::string(buf);
        };
        table.row()
            .cell(r.workload)
            .cell(r.faults.total())
            .percentCell(r.agreement())
            .cell(pair(r.nextPhaseAccBase, r.nextPhaseAccFaulty))
            .cell(pair(r.changeAccBase, r.changeAccFaulty))
            .cell(pair(r.lengthAccBase, r.lengthAccFaulty))
            .cell(r.eccCorrections)
            .cell(r.repairs)
            .cell(r.quarantines);
        worst = std::min(worst, r.agreement());
    }
    table.print(std::cout);

    writeJsonReports(args, reports);
    return tripwire(args, "min-agreement", "worst phase-ID agreement",
                    worst, 100.0, "%");
}

int
cmdServe(const ParsedArgs &args)
{
    std::vector<std::string> names;
    std::vector<trace::IntervalProfile> traced;
    if (!workloadInputs(args, false, names, traced))
        return 2;
    // Every value is checked before a stream is encoded or a thread
    // starts.
    const unsigned tenants = args.getU32("tenants", 8);
    if (tenants == 0)
        badFlag("tenants", "must be >= 1");
    const unsigned producers = args.getU32("producers", 1);
    if (producers == 0)
        badFlag("producers", "must be >= 1");
    const unsigned num_streams = args.getU32("streams", 4);
    if (num_streams == 0)
        badFlag("streams", "must be >= 1");
    const std::uint64_t packets = args.getU64("packets", 2000);
    phase::ClassifierConfig ccfg = classifierConfig(args);
    pred::PhaseTrackerConfig tcfg;
    tcfg.classifier = ccfg;
    const std::uint64_t drr_quantum = args.getU64("drr-quantum", 16);
    if (drr_quantum == 0)
        badFlag("drr-quantum", "must be >= 1");
    const std::uint64_t backoff = args.getU64("quarantine-backoff", 256);
    if (backoff == 0)
        badFlag("quarantine-backoff", "must be >= 1");
    const std::uint64_t ring_bytes = args.getU64("ring-bytes", 1u << 20);
    const std::size_t frame_bytes =
        serve::packetBytes(ccfg.numCounters) +
        serve::SpscRing::kFrameOverhead;
    const std::uint64_t max_ring_bytes = std::uint64_t{1} << 30;
    if (ring_bytes < frame_bytes || ring_bytes > max_ring_bytes)
        badFlag("ring-bytes", "must be between one " +
                                  std::to_string(frame_bytes) +
                                  "-byte frame and " +
                                  std::to_string(max_ring_bytes));

    // Shared streams: tenant t replays stream t % S, so a tenant's
    // input depends only on its id — never on the producer layout.
    std::vector<serve::EncodedStream> streams;
    if (!traced.empty()) {
        for (const trace::IntervalProfile &profile : traced)
            streams.push_back(serve::encodeProfileStream(
                profile, ccfg.numCounters, packets));
    } else if (names.empty()) {
        const std::uint64_t len = packets == 0 ? 2000 : packets;
        for (unsigned k = 0; k < num_streams; ++k)
            streams.push_back(serve::encodeSyntheticStream(
                k, len, ccfg.numCounters));
    } else {
        trace::ProfileOptions popts = profileOptions(args);
        for (const std::string &name : names)
            streams.push_back(serve::encodeProfileStream(
                trace::getProfileByName(name, popts),
                ccfg.numCounters, packets));
    }
    auto streamOf =
        [&](std::uint64_t t) -> const serve::EncodedStream & {
        return streams[t % streams.size()];
    };

    const std::string phase_out = args.get("phase-out", "");
    if (args.has("batch")) {
        // Reference mode: the offline batch path, one fresh tracker
        // per tenant. CI diffs these files against the service's.
        if (phase_out.empty()) {
            std::cerr << "error: --batch needs --phase-out DIR\n";
            return 2;
        }
        for (std::uint64_t t = 0; t < tenants; ++t)
            serve::writePhaseStream(
                phase_out, t, serve::batchPhaseStream(streamOf(t), tcfg));
        std::cout << "wrote " << tenants
                  << " batch phase streams to " << phase_out
                  << "\n";
        return 0;
    }

    serve::ServeOptions sopts;
    sopts.registry.tracker = tcfg;
    sopts.producers = producers;
    sopts.jobs = args.jobs();
    sopts.ringBytes = ring_bytes;
    sopts.fairness.ratePerCycle = args.getU64("rate-limit", 0);
    sopts.fairness.burst = args.getU64("burst", 0);
    sopts.fairness.drrQuantum = drr_quantum;
    sopts.fairness.maxBacklog = args.getU64("max-backlog", 0);
    sopts.fairness.cycleBudget = args.getU64("cycle-budget", 0);
    sopts.registry.quarantine.offenseThreshold =
        args.getU64("quarantine-threshold", 0);
    sopts.registry.quarantine.offenseWindow =
        args.getU64("quarantine-window", 1024);
    sopts.registry.quarantine.backoffBase = backoff;
    sopts.registry.quarantine.backoffCap =
        args.getU64("quarantine-backoff-cap", 1u << 20);
    // Tenant t is fed by producer t % producers; a tenant never
    // spans rings, so its packet order is total.
    const unsigned per_part = (tenants + producers - 1) / producers;
    const unsigned resident = args.getU32("resident", 0);
    sopts.registry.maxResident =
        resident == 0 ? std::max(1u, per_part) : resident;
    sopts.registry.evictAfter = args.getU64("evict-after", 0);
    sopts.registry.checkpointDir =
        args.get("checkpoint-dir", "serve_ckpt");
    sopts.registry.recordPhases = !phase_out.empty();
    std::filesystem::create_directories(
        sopts.registry.checkpointDir);

    serve::ServiceLoop loop(sopts);
    if (args.has("migrate-in")) {
        try {
            const std::size_t adopted =
                loop.migrateIn(args.get("migrate-in", ""));
            std::cout << "migrated " << adopted << " tenants in "
                      << "from " << args.get("migrate-in", "")
                      << "\n";
        } catch (const Error &e) {
            std::cerr << "error: migrate-in rejected bundle: "
                      << e.what() << "\n";
            return 1;
        }
    }
    std::vector<serve::ProducerTask> tasks(producers);
    for (unsigned p = 0; p < producers; ++p) {
        tasks[p].ring = &loop.ring(p);
        tasks[p].policy = args.has("drop")
                              ? serve::BackpressurePolicy::Drop
                              : serve::BackpressurePolicy::Park;
        tasks[p].parkRetryLimit = args.getU64("park-retries", 0);
        tasks[p].startStep = args.getU64("packet-base", 0);
    }
    for (std::uint64_t t = 0; t < tenants; ++t) {
        serve::ProducerTask &task = tasks[t % producers];
        task.tenants.push_back(t);
        task.streams.push_back(&streamOf(t));
    }

    std::vector<serve::ProducerCounters> pcs(producers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            pcs[p] = serve::runProducer(tasks[p]);
            loop.producerDone(p);
        });
    loop.run();
    for (std::thread &th : threads)
        th.join();
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // Attribute producer-side backpressure (parks, drops) to the
    // tenants that suffered it, now that the threads joined.
    for (unsigned p = 0; p < producers; ++p)
        for (std::size_t i = 0; i < tasks[p].tenants.size(); ++i)
            loop.noteProducerStats(p, tasks[p].tenants[i],
                                   pcs[p].tenantParks[i],
                                   pcs[p].tenantDropped[i]);

    serve::ServeReport rep;
    rep.tenants = tenants;
    rep.producers = producers;
    rep.jobs = loop.numWorkers();
    for (const serve::ProducerCounters &c : pcs) {
        rep.packetsProduced += c.pushed;
        rep.packetsDropped += c.dropped;
        rep.parkEvents += c.parkEvents;
    }
    rep.service = loop.counters();
    rep.elapsedSec = elapsed;
    rep.packetsPerSec =
        elapsed > 0.0
            ? static_cast<double>(rep.service.packets) / elapsed
            : 0.0;
    if (!phase_out.empty() || tenants <= 64)
        for (std::uint64_t id : loop.allTenantIds())
            rep.perTenant.push_back({id, loop.tenantCounters(id)});

    AsciiTable table({"metric", "value"});
    auto row = [&](const char *k, std::uint64_t v) {
        table.row().cell(k).cell(v);
    };
    row("tenants", rep.service.tenants);
    row("producers", producers);
    row("workers", rep.jobs);
    row("packets produced", rep.packetsProduced);
    row("packets delivered", rep.service.packets);
    row("packets dropped", rep.packetsDropped);
    row("park events", rep.parkEvents);
    row("malformed", rep.service.malformedPackets);
    row("rejected", rep.service.rejectedPackets);
    row("shed", rep.service.shedPackets);
    row("evictions", rep.service.evictions);
    row("resumes", rep.service.resumes);
    row("phase switches", rep.service.phaseSwitches);
    row("lost upstream", rep.service.lostUpstream);
    row("quarantines", rep.service.quarantines);
    row("quarantine drops", rep.service.quarantineDrops);
    row("readmissions", rep.service.readmissions);
    row("resume failures", rep.service.resumeFailures);
    row("drain cycles", rep.service.drainCycles);
    table.row().cell("packets/s").cell(rep.packetsPerSec, 0);
    table.print(std::cout);

    // Every packet a producer pushed must be accounted for at the
    // consumer: delivered, malformed, visibly rejected, shed by the
    // flow scheduler, or dropped in quarantine. Anything else is
    // silent loss, which is a bug, not a statistic.
    const std::uint64_t accounted = rep.service.packets +
                                    rep.service.malformedPackets +
                                    rep.service.rejectedPackets +
                                    rep.service.shedPackets +
                                    rep.service.quarantineDrops;
    if (accounted != rep.packetsProduced) {
        std::cerr << "error: silent packet loss: "
                  << rep.packetsProduced << " pushed but only "
                  << accounted << " accounted for\n";
        return 1;
    }

    if (args.has("migrate-out")) {
        try {
            loop.migrateOut(args.get("migrate-out", ""));
            std::cout << "migrated " << rep.service.tenants
                      << " tenants out to "
                      << args.get("migrate-out", "") << "\n";
        } catch (const Error &e) {
            std::cerr << "error: migrate-out failed: " << e.what()
                      << "\n";
            return 1;
        }
    }

    if (!phase_out.empty()) {
        loop.writePhaseStreams(phase_out);
        std::cout << "wrote " << loop.allTenantIds().size()
                  << " phase streams to " << phase_out << "\n";
    }
    const std::string json_path = args.get("json", "");
    if (!json_path.empty() && json_path != "-") {
        json::writeFile(json_path, serve::toJson(rep));
        std::cout << "wrote report to " << json_path << "\n";
    }
    return tripwire(args, "min-rate", "ingest rate", rep.packetsPerSec,
                    1.0, " packets/s");
}

int
cmdTraceExport(const ParsedArgs &args)
{
    std::string out = args.get("out", "");
    if (out.empty()) {
        std::cerr << "error: trace export needs --out=PATH\n";
        return 2;
    }
    if (args.has("trace")) {
        if (!args.positional.empty()) {
            std::cerr << "error: --trace and a workload name are "
                         "mutually exclusive\n";
            return 2;
        }
        // Re-export an ingested trace: a parse -> encode round trip
        // is byte-identical (the CI ingest job cmp's the two files).
        trace::TraceData data =
            trace::readTrace(args.get("trace", ""));
        trace::writeTrace(out, data.profile, data.source);
        std::cout << "re-exported " << data.profile.numIntervals()
                  << " intervals to " << out << "\n";
        return 0;
    }
    auto name = requireWorkload(args);
    if (!name)
        return 2;
    trace::IntervalProfile profile =
        trace::getProfileByName(*name, profileOptions(args));
    std::string source =
        args.get("source", "tpcp trace export " + *name);
    trace::writeTrace(out, profile, source);
    std::cout << "exported " << profile.numIntervals()
              << " intervals of " << *name << " to " << out << "\n";
    return 0;
}

int
cmdTraceInfo(const ParsedArgs &args)
{
    auto path = oneOperand(args, "a trace file path");
    if (!path)
        return 2;
    trace::TraceData data = trace::readTrace(*path);
    std::string dims;
    for (unsigned d : data.profile.dims())
        dims += (dims.empty() ? "" : ",") + std::to_string(d);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      data.contentHash));
    AsciiTable table({"field", "value"});
    table.row().cell("workload").cell(data.profile.workload());
    table.row().cell("core").cell(data.profile.coreName());
    table.row().cell("interval length")
        .cell(static_cast<std::uint64_t>(
            data.profile.intervalLength()));
    table.row().cell("intervals").cell(
        static_cast<std::uint64_t>(data.profile.numIntervals()));
    table.row().cell("dims").cell(dims);
    table.row().cell("machine hash").cell(
        data.profile.machineHash());
    table.row().cell("source").cell(
        data.source.empty() ? "-" : data.source);
    table.row().cell("content hash").cell(std::string(hash));
    table.print(std::cout);
    return 0;
}

int
cmdTraceGen(const ParsedArgs &args)
{
    workload::AdversarialSpec spec;
    spec.family = args.get("family", "phase-alias");
    if (spec.family == "help") {
        for (const std::string &f :
             workload::adversarialFamilies())
            std::cout << f << "\n";
        return 0;
    }
    spec.seed = args.getU64("seed", 1);
    spec.intervals = args.getU64("intervals", 600);
    spec.intervalLen = args.getU64("interval", 100'000);
    std::string out = args.get("out", "");
    if (out.empty()) {
        std::cerr << "error: trace gen needs --out=PATH\n";
        return 2;
    }
    workload::AdversarialTrace adv =
        workload::makeAdversarial(spec);
    std::string source = "adversarial family=" + spec.family +
                         " seed=" + std::to_string(spec.seed);
    trace::writeTrace(out, adv.profile, source);
    std::cout << "generated " << adv.profile.numIntervals()
              << " intervals (" << adv.numBehaviors
              << " behaviors) of " << spec.family << " to " << out
              << "\n";
    return 0;
}

/**
 * Writes the deterministic corruption corpus: a small valid seed
 * trace plus one file per corruption class, with a MANIFEST mapping
 * each file to the loader outcome it must produce. The CI
 * trace-hardening job and tests/trace replay it; both also regenerate
 * it and diff, so the checked-in corpus can never drift from the
 * writer.
 */
int
cmdTraceCorpus(const ParsedArgs &args)
{
    auto operand = oneOperand(args, "an output directory");
    if (!operand)
        return 2;
    const std::string dir = *operand;
    std::filesystem::create_directories(dir);

    workload::AdversarialSpec spec;
    spec.family = "phase-alias";
    spec.seed = 7;
    spec.intervals = 40;
    const std::vector<std::uint8_t> good = trace::encodeTrace(
        workload::makeAdversarial(spec).profile,
        "corruption-corpus seed");

    // Offsets of the pieces we corrupt (format: trace_file.hh).
    std::uint32_t header_len;
    std::memcpy(&header_len, good.data() + 8, 4);
    const std::size_t header_start = 12;
    const std::size_t crc_at = header_start + header_len;
    const std::size_t records_at = crc_at + 4;

    std::vector<
        std::pair<std::string, std::vector<std::uint8_t>>>
        files;
    files.emplace_back("seed.tpcptrace", good);
    files.emplace_back("empty.tpcptrace",
                       std::vector<std::uint8_t>{});

    auto variant = [&](const std::string &name, auto &&mutate) {
        std::vector<std::uint8_t> bytes = good;
        mutate(bytes);
        files.emplace_back(name, std::move(bytes));
    };
    variant("bad-magic.tpcptrace",
            [](auto &b) { b[0] ^= 0xff; });
    variant("bad-version.tpcptrace",
            [](auto &b) { b[4] = 0x7f; });
    variant("truncated-header.tpcptrace", [&](auto &b) {
        b.resize(header_start + header_len / 2);
    });
    variant("truncated-record.tpcptrace",
            [](auto &b) { b.resize(b.size() - 7); });
    variant("trailing-garbage.tpcptrace", [](auto &b) {
        b.insert(b.end(), {0xde, 0xad, 0xbe, 0xef, 0x00});
    });
    variant("flipped-header.tpcptrace", [&](auto &b) {
        b[header_start + 2] ^= 0x10; // CRC must catch it
    });
    variant("forged-count.tpcptrace", [&](auto &b) {
        // Claim 1000 extra records *with a valid header CRC*: only
        // the count-vs-remaining-bytes bound can reject this one.
        std::uint64_t count;
        std::memcpy(&count, b.data() + crc_at - 8, 8);
        count += 1000;
        std::memcpy(b.data() + crc_at - 8, &count, 8);
        std::uint32_t crc =
            crc32(b.data() + header_start, header_len);
        std::memcpy(b.data() + crc_at, &crc, 4);
    });
    variant("bad-record-len.tpcptrace", [&](auto &b) {
        std::uint32_t len;
        std::memcpy(&len, b.data() + records_at, 4);
        len += 4;
        std::memcpy(b.data() + records_at, &len, 4);
    });
    variant("flipped-payload.tpcptrace", [&](auto &b) {
        b[records_at + 4 + 10] ^= 0x01; // record CRC must catch it
    });
    variant("flipped-crc.tpcptrace", [&](auto &b) {
        b[b.size() - 1] ^= 0x80; // last record's CRC field
    });

    std::string manifest =
        "# file -> required loader outcome (ok | fail)\n";
    for (const auto &[name, bytes] : files) {
        json::writeFile(dir + "/" + name,
                        {reinterpret_cast<const char *>(bytes.data()),
                         bytes.size()});
        manifest += name;
        manifest += name == "seed.tpcptrace" ? " ok\n" : " fail\n";
    }
    json::writeFile(dir + "/MANIFEST", manifest);
    std::cout << "wrote " << files.size()
              << " corpus files + MANIFEST to " << dir << "\n";
    return 0;
}

/** One tpcp command: its operands, flags and entry point. */
struct Command
{
    /** "classify", or "trace <verb>" for the trace tooling. */
    std::string name;
    /** Operand synopsis; empty when the command takes none. */
    std::string operands;
    /** One-line description for the command list. */
    std::string what;
    Flags flags;
    int (*run)(const ParsedArgs &);
};

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"workloads", "", "list the built-in workloads", {},
         cmdWorkloads},
        {"machine", "", "print the Table-1 machine model", {},
         cmdMachine},
        {"profile", "<workload>|all",
         "simulate or load a profile and summarize it; 'all' "
         "builds every profile",
         join({profileFlags(), {traceFlag(false), cli::jobsFlag()}}),
         cmdProfile},
        {"classify", "<workload>",
         "classify and print phase metrics",
         join({profileFlags(), classifierFlags(),
               {traceFlag(false),
                {"timeline", Kind::Flag,
                 "print the phase timeline"}}}),
         cmdClassify},
        {"predict", "<workload>",
         "next-phase and phase-change prediction",
         join({profileFlags(), classifierFlags(),
               {traceFlag(false),
                {"predictor", Kind::Text,
                 oneOf(pred::predictorSpecNames()) +
                     " (default rle2)"}}}),
         cmdPredict},
        {"export", "<workload>", "per-interval CSV for plotting",
         join({profileFlags(), classifierFlags(),
               {traceFlag(false),
                {"out", Kind::Text,
                 "output CSV file (default stdout)"}}}),
         cmdExport},
        {"simstats", "<workload>",
         "run the simulator and dump uarch stats",
         {{"core", Kind::Text, "timing core: ooo | simple (default ooo)"},
          {"max-insts", Kind::U64,
           "stop after N instructions (default: full run)"}},
         cmdSimStats},
        {"sample", "[workload...]",
         "phase-guided sampled simulation (no workloads = all 11)",
         join({profileFlags(),
               {traceFlag(true), cli::jobsFlag(),
                {"budget", Kind::U64,
                 "detailed intervals per workload (default 16)"},
                {"selector", Kind::Text,
                 oneOf(sample::selectorNames()) +
                     " (default stratified)"},
                {"phase-source", Kind::Text,
                 "online | offline (default online)"},
                jsonFlag("the SampleReports"),
                {"max-error", Kind::Real,
                 "exit 1 if any CPI estimate is off by more than "
                 "this fraction (CI tripwire)"}}}),
         cmdSample},
        {"adapt", "[workload...]",
         "phase-guided dynamic reconfiguration (no workloads = all "
         "11; traces replay recorded CPI, so only energy varies)",
         join({profileFlags(),
               {traceFlag(true), cli::jobsFlag(),
                {"policy", Kind::Text,
                 oneOf(adapt::policyPresetNames()) +
                     " (default greedy)"},
                {"lattice", Kind::Text,
                 "standard | small (default standard)"},
                jsonFlag("the AdaptReports"),
                {"min-oracle", Kind::Real,
                 "exit 1 if any workload's policy reaches less than "
                 "this fraction of the oracle's EDP savings (CI "
                 "tripwire)"}}}),
         cmdAdapt},
        {"faults", "[workload...]",
         "soft-error resilience measurement (no workloads = all 11)",
         join({profileFlags(),
               {traceFlag(true), cli::jobsFlag(),
                {"target", Kind::Text,
                 oneOf(fault::targetNames()) + " (default all)"},
                {"predictor", Kind::Text,
                 "change predictor under fault, as for predict "
                 "except lastvalue (default rle2)"},
                {"rate", Kind::Real,
                 "per-interval fault probability (default 0.01)"},
                {"mitigated", Kind::Flag,
                 "enable the hardening model: parity-protected "
                 "signature table with scrub and repair, ECC "
                 "predictor tables, CPI plausibility gate"},
                {"seed", Kind::U64, "fault campaign seed"},
                {"scrub-every", Kind::U32,
                 "mitigated scrub period in intervals (default 1)"},
                {"adapt", Kind::Flag,
                 "also measure the adapt-layer oracle-fraction "
                 "delta (simulates the lattice; prefer --core "
                 "simple)"},
                {"lattice", Kind::Text,
                 "lattice for --adapt: standard | small (default "
                 "small)"},
                jsonFlag("the ResilienceReports"),
                {"min-agreement", Kind::Real,
                 "exit 1 if any workload's phase-ID agreement falls "
                 "below this fraction (CI tripwire)"},
                {"checkpoint", Kind::Text,
                 "checkpoint file (single workload only)"},
                {"checkpoint-at", Kind::U64,
                 "save the checkpoint and stop after K intervals"},
                {"resume", Kind::Flag,
                 "resume the faulty run from --checkpoint"}}}),
         cmdFaults},
        {"serve", "[workload...]",
         "streaming multi-tenant phase service (workloads become the "
         "replayed streams; none = synthetic)",
         join({profileFlags(), classifierFlags(),
               {traceFlag(true), cli::jobsFlag(),
                {"tenants", Kind::U32,
                 "concurrent tenants (default 8)"},
                {"producers", Kind::U32,
                 "producer rings/threads (default 1)"},
                {"packets", Kind::U64,
                 "packets per tenant stream: cap for profile "
                 "streams, length for synthetic (default 2000; 0 = "
                 "full profile)"},
                {"streams", Kind::U32,
                 "distinct synthetic streams (default 4)"},
                {"resident", Kind::U32,
                 "resident tenants per partition (default 0 = fit "
                 "all)"},
                {"evict-after", Kind::U64,
                 "evict a tenant idle for N delivered packets "
                 "(default 0 = never)"},
                {"checkpoint-dir", Kind::Text,
                 "eviction checkpoint directory (default "
                 "serve_ckpt)"},
                {"ring-bytes", Kind::U64,
                 "per-producer ring capacity, one frame to 1 GiB "
                 "(default 1 MiB)"},
                {"drop", Kind::Flag,
                 "drop packets on a full ring (counted) instead of "
                 "parking"},
                {"park-retries", Kind::U64,
                 "park retries per push before a counted drop "
                 "(default 0 = park forever)"},
                {"rate-limit", Kind::U64,
                 "per-tenant token refill, packets per drain cycle "
                 "(default 0 = unlimited)"},
                {"burst", Kind::U64,
                 "token-bucket capacity (default 0 = rate-limit)"},
                {"drr-quantum", Kind::U64,
                 "deficit-round-robin quantum, packets (default 16)"},
                {"max-backlog", Kind::U64,
                 "staged frames per tenant before arrivals are shed "
                 "(default 0 = unbounded)"},
                {"cycle-budget", Kind::U64,
                 "frames delivered per partition per drain cycle "
                 "(default 0 = drain batch)"},
                {"quarantine-threshold", Kind::U64,
                 "offenses within one window that quarantine a "
                 "tenant (default 0 = disabled)"},
                {"quarantine-window", Kind::U64,
                 "offense window, packets seen (default 1024)"},
                {"quarantine-backoff", Kind::U64,
                 "first quarantine length, packets seen; doubles "
                 "per re-quarantine (default 256)"},
                {"quarantine-backoff-cap", Kind::U64,
                 "backoff ceiling (default 1 Mi)"},
                {"migrate-out", Kind::Text,
                 "after the run, evict every tenant into this "
                 "migration bundle directory"},
                {"migrate-in", Kind::Text,
                 "before the run, validate this bundle and adopt "
                 "its tenants (a damaged bundle exits 1)"},
                {"packet-base", Kind::U64,
                 "start replaying each stream at interval K "
                 "(sequence numbers stay absolute)"},
                {"phase-out", Kind::Text,
                 "write one tenant_<id>.phases stream per tenant to "
                 "this directory"},
                {"batch", Kind::Flag,
                 "with --phase-out: write the batch-reference "
                 "streams instead of running the service"},
                jsonFlag("the ServeReport"),
                {"min-rate", Kind::Real,
                 "exit 1 if delivered packets/s fall below this (CI "
                 "tripwire)"}}}),
         cmdServe},
        {"trace export", "<workload>",
         "export a profile as a .tpcptrace (with --trace: re-export "
         "the ingested trace byte-identically)",
         join({profileFlags(),
               {traceFlag(false),
                {"out", Kind::Text, "output .tpcptrace path"},
                {"source", Kind::Text,
                 "provenance note stored in the header"}}}),
         cmdTraceExport},
        {"trace info", "<file>",
         "print the validated trace header and content hash", {},
         cmdTraceInfo},
        {"trace gen", "",
         "generate an adversarial stressor stream",
         {{"out", Kind::Text, "output .tpcptrace path"},
          {"family", Kind::Text,
           oneOf(workload::adversarialFamilies()) +
               " (default phase-alias; 'help' lists them)"},
          {"seed", Kind::U64, "generator seed (default 1)"},
          {"intervals", Kind::U64, "intervals (default 600)"},
          {"interval", Kind::U64,
           "instructions per interval (default 100000)"}},
         cmdTraceGen},
        {"trace corpus", "<dir>",
         "write the deterministic corruption corpus and MANIFEST",
         {}, cmdTraceCorpus},
    };
    return table;
}

/** Lists the commands whose names start with @p prefix. */
void
listCommands(std::ostream &os, const std::string &prefix)
{
    os << "usage: tpcp " << prefix
       << (prefix.empty() ? "<command>" : "<verb>")
       << " [operands] [options]\n";
    for (const Command &c : commands()) {
        if (c.name.rfind(prefix, 0) != 0)
            continue;
        os << "  " << std::left << std::setw(30)
           << (c.operands.empty() ? c.name : c.name + " " + c.operands)
           << c.what << "\n";
    }
    os << "run 'tpcp <command> --help' for a command's options\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "";
    int first = 2;
    if (name == "trace") {
        // The trace tooling is a command group: `trace <verb>`.
        if (argc < 3 || argv[2][0] == '-') {
            const bool help = argc > 2 &&
                              (std::strcmp(argv[2], "--help") == 0 ||
                               std::strcmp(argv[2], "-h") == 0);
            listCommands(help ? std::cout : std::cerr, "trace ");
            return help ? 0 : 2;
        }
        name += std::string(" ") + argv[2];
        first = 3;
    }
    const Command *cmd = nullptr;
    for (const Command &c : commands())
        if (c.name == name)
            cmd = &c;
    if (!cmd) {
        if (!name.empty())
            std::cerr << "error: unknown command '" << name << "'\n";
        listCommands(std::cerr, first == 3 ? "trace " : "");
        return 2;
    }
    const ParsedArgs args = cli::parseOrExit(
        {argv + first, argv + argc}, cmd->flags,
        !cmd->operands.empty(),
        "tpcp " + cmd->name +
            (cmd->operands.empty() ? "" : " " + cmd->operands) +
            " [options]");

    // The library raises recoverable tpcp::Error instead of exiting;
    // the tool is the process boundary that turns an unhandled one
    // into exit code 1.
    try {
        return cmd->run(args);
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
