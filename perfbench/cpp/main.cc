/**
 * @file
 * The benchmark driver binary.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR --profile-dir DIR
 *             [--digests FILE] [--spans FILE]
 *   perfbench --prepare-profiles DIR [--jobs N]
 *
 * Untraced (--trace 0): runs workload W once for S seconds and
 * prints the end-to-end metrics. Traced (--trace 1): runs W untraced
 * for 40% of S and traced for the rest (the tracing overhead is the
 * difference), then a short traced pass of each other workload so
 * that every per-layer metric is reported; prints the per-layer
 * metrics, W's unattributed share and the tracing overhead. Either
 * way the last line of stdout is the JSON result, the digests the
 * run produced go to --digests for comparison against recorded
 * values, and the exit code is 1 on any failed check.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace/profile_cache.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace perfbench
{

void
note(const std::string &line)
{
    std::cout << line << "\n";
}

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

void
collectSpans(const PassConfig &cfg, const char *pass, PassResult &r)
{
    r.spans = Tracer::summary();
    if (!cfg.spanLog.empty() && !Tracer::appendLog(cfg.spanLog, pass))
        r.errors.push_back("cannot write the span log " + cfg.spanLog);
}

void
addSetupMetric(PassResult &r, const std::vector<double> &setup_seconds)
{
    r.metrics.push_back({"setup_s", median(setup_seconds), "s"});
    const auto [lo, hi] =
        std::minmax_element(setup_seconds.begin(), setup_seconds.end());
    note("set-up: median " + fullDouble(median(setup_seconds)) +
         " s of " + std::to_string(setup_seconds.size()) +
         " repetitions (" + fullDouble(*lo) + " to " + fullDouble(*hi) +
         " s, driver-thread CPU time)");
}

void
addRequestMetrics(PassResult &r, const std::vector<Request> &requests,
                  const std::string &what, bool with_rate)
{
    const WindowedSummary s = summarizeWindows(requests, kTailLevel);
    if (with_rate)
        r.metrics.push_back({"work_per_s", s.rate, "1/s"});
    r.metrics.push_back({"latency_p50_us", s.p50, "us"});
    r.metrics.push_back({"latency_tail_us", s.tailValue, "us"});
    note("latency of one " + what + ": p50 " + fullDouble(s.p50) +
         " us, p" + fullDouble(s.tail.q * 100) + " " +
         fullDouble(s.tailValue) + " us, rate " + fullDouble(s.rate) +
         " 1/s (" + std::to_string(s.samples) + " requests in " +
         std::to_string(s.windows) + " windows, " +
         std::to_string(s.tail.beyond) +
         " beyond the tail in each; medians over the windows)");
}

bool
prepareProfiles(const std::string &dir, unsigned jobs)
{
    const std::vector<std::string> &names = tpcp::workload::workloadNames();
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (unsigned j = 0; j < std::max(1u, jobs); ++j)
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < names.size(); i = next++) {
                try {
                    tpcp::trace::ProfileOptions opts;
                    opts.cacheDir = dir;
                    tpcp::trace::getProfileByName(names[i], opts);
                } catch (const std::exception &e) {
                    std::cerr << "error: profile " << names[i] << ": "
                              << e.what() << "\n";
                    ok = false;
                }
            }
        });
    for (std::thread &t : threads)
        t.join();
    return ok;
}

} // namespace perfbench

namespace
{

using namespace perfbench;

using Runner = PassResult (*)(const PassConfig &);

const std::vector<std::pair<std::string, Runner>> &
workloads()
{
    static const std::vector<std::pair<std::string, Runner>> w = {
        {"sim_cold", runSimCold},
        {"replay_sweep", runReplaySweep},
        {"serve_steady", runServeSteady},
        {"serve_churn", runServeChurn},
    };
    return w;
}

/** Length of each other workload's traced pass in a traced run. */
constexpr double kShortPassSeconds = 1.0;
/** Share of a traced run spent on the untraced reference pass. */
constexpr double kUntracedShare = 0.4;

double
peakRssMb()
{
    // VmHWM is this program's own high-water mark. getrusage's
    // ru_maxrss would not do: Linux carries it across execve, so it
    // reports the launching process's peak when that was larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "error: " << why
              << "\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --profile-dir DIR "
                 "[--digests FILE] [--spans FILE]\n"
                 "       perfbench --prepare-profiles DIR [--jobs N]\n";
    std::exit(2);
}

void
writeDigests(const std::string &path,
             const std::map<std::string, std::string> &digests)
{
    std::ofstream out(path);
    out << "{";
    bool first = true;
    for (const auto &[k, v] : digests) {
        out << (first ? "\n  \"" : ",\n  \"") << k << "\": \"" << v
            << "\"";
        first = false;
    }
    out << "\n}\n";
    if (!out)
        usage("cannot write " + path);
}

/** Layer self-time shares of a traced pass, largest first (the
 * benchmark's own "bench." spans are the unattributed part). */
void
noteBreakdown(const std::string &workload, const PassResult &r)
{
    std::vector<std::pair<double, std::string>> layers;
    double total = 0.0;
    for (const auto &[layer, ns] : selfByLayer(r.spans)) {
        if (layer.rfind("bench.", 0) == 0)
            continue;
        layers.push_back({ns, layer});
        total += ns;
    }
    std::sort(layers.rbegin(), layers.rend());
    std::string line = workload + " self time by layer:";
    for (const auto &[ns, layer] : layers) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.1f%%", layer.c_str(),
                      total > 0 ? 100.0 * ns / total : 0.0);
        line += buf;
    }
    note(line);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("bad argument '" + key + "'");
        args[key.substr(2)] = argv[++i];
    }
    auto get = [&](const std::string &k) {
        auto it = args.find(k);
        if (it == args.end())
            usage("missing --" + k);
        return it->second;
    };

    try {
        if (args.count("prepare-profiles")) {
            const unsigned jobs = args.count("jobs")
                                      ? std::stoul(args["jobs"])
                                      : 1;
            return prepareProfiles(args["prepare-profiles"], jobs) ? 0
                                                                   : 1;
        }

        const std::string workload = get("workload");
        PassConfig cfg;
        cfg.seed = std::stoull(get("seed"));
        cfg.seconds = std::stod(get("seconds"));
        const std::string trace = get("trace");
        if (trace != "0" && trace != "1")
            usage("--trace takes 0 or 1");
        cfg.workDir = get("work-dir");
        cfg.profileDir = get("profile-dir");
        std::filesystem::create_directories(cfg.workDir);

        Runner home = nullptr;
        for (const auto &[name, fn] : workloads())
            if (name == workload)
                home = fn;
        if (home == nullptr)
            usage("unknown workload '" + workload + "'");

        std::vector<Metric> metrics;
        OpTally ops;
        std::vector<std::string> errors;
        std::map<std::string, std::string> digests;
        auto absorb = [&](const std::string &name, PassResult &r,
                          bool keep_metrics) {
            ops.add(r.ops);
            for (const std::string &e : r.errors)
                errors.push_back(e);
            for (const auto &[k, v] : r.digests)
                digests[name + "." + k] = v;
            if (keep_metrics)
                metrics.insert(metrics.end(), r.metrics.begin(),
                               r.metrics.end());
        };

        if (trace == "0") {
            PassResult r = home(cfg);
            absorb(workload, r, true);
            metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        } else {
            PassConfig untraced = cfg;
            untraced.seconds = cfg.seconds * kUntracedShare;
            PassResult u = home(untraced);
            absorb(workload, u, false);
            PassConfig traced = cfg;
            traced.traced = true;
            if (args.count("spans")) {
                traced.spanLog = args["spans"];
                std::filesystem::remove(traced.spanLog);
            }
            traced.seconds = cfg.seconds - untraced.seconds;
            PassResult t = home(traced);
            absorb(workload, t, true);
            noteBreakdown(workload, t);
            metrics.push_back(
                {"bench.unattributed_frac", t.unattributedFrac, "fraction"});
            metrics.push_back({"bench.trace_overhead_frac",
                               u.workPerSec / t.workPerSec - 1.0,
                               "fraction"});
            note(workload + ": unattributed " +
                 fullDouble(100.0 * t.unattributedFrac) +
                 "% of the traced region; tracing overhead " +
                 fullDouble(100.0 * (u.workPerSec / t.workPerSec - 1.0)) +
                 "% (untraced " + fullDouble(u.workPerSec) +
                 " vs traced " + fullDouble(t.workPerSec) + " work/s)");
            for (const auto &[name, fn] : workloads()) {
                if (name == workload)
                    continue;
                PassConfig other = traced;
                other.seconds = kShortPassSeconds;
                PassResult o = fn(other);
                absorb(name, o, true);
            }
        }

        if (args.count("digests"))
            writeDigests(args["digests"], digests);
        for (const std::string &e : errors)
            std::cerr << "CHECK FAILED: " << e << "\n";
        note("op_fail_frac " + fullDouble(ops.failFraction()) + " (" +
             std::to_string(ops.failed) + " of " +
             std::to_string(ops.attempted) + " operations)");
        std::cout << resultJson(errors.empty(), ops, metrics)
                  << std::endl;
        return errors.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
