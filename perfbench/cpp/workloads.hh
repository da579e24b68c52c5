/**
 * @file
 * The four benchmark workloads. Each runs one pass: set-up (repeated
 * and reported as a median), a timed region of about cfg.seconds,
 * and the output checks. An untraced pass drives the program's own
 * top-level entry points and reports the end-to-end metrics; a
 * traced pass drives the same work through the layers' public
 * functions one call at a time, each call wrapped in a span, and
 * reports the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hh"
#include "tracer.hh"

namespace perfbench
{

/** Inputs of one pass. */
struct PassConfig
{
    std::uint64_t seed = 1;
    /** Length of the timed region, seconds. */
    double seconds = 10.0;
    /** Drive the layers one call at a time under spans. */
    bool traced = false;
    /** Directory for the files the pass writes, under the build
     * directory (exists; may hold leftovers of an earlier run). */
    std::string workDir;
    /** Warm profile cache of the 11 ooo workloads (replay_sweep). */
    std::string profileDir;
    /** Where a traced pass appends its span log (empty = nowhere). */
    std::string spanLog;
};

/** What one pass measured and checked. */
struct PassResult
{
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    OpTally ops;
    /** Correctness failures; any entry fails the run. */
    std::vector<std::string> errors;
    /** Values checked against the recorded expectations (key ->
     * exact text). */
    std::map<std::string, std::string> digests;
    /** Work units per second of the timed region (both modes; the
     * traced run compares them to report tracing overhead). */
    double workPerSec = 0.0;
    /** Span aggregates of the traced timed region. */
    SpanSummary spans;
    /** Share of the timed region's thread time covered by no layer
     * span (traced passes only). */
    double unattributedFrac = 0.0;
};

PassResult runSimCold(const PassConfig &cfg);
PassResult runReplaySweep(const PassConfig &cfg);
PassResult runServeSteady(const PassConfig &cfg);
PassResult runServeChurn(const PassConfig &cfg);

/** Simulates the 11 workloads on "ooo" into @p dir with @p jobs
 * threads (the replay_sweep cache). Returns false on failure. */
bool prepareProfiles(const std::string &dir, unsigned jobs);

/**
 * Highest percentile latency_tail_us reports: the highest percentile
 * with at least ten samples beyond it, but no higher than p90. On
 * serve_churn p99 would be set by disk stalls in checkpoint writes,
 * which move it 2-5x between runs of the same code, so every workload
 * stops at p90 (serve_churn also reports its p99 as a per-layer
 * diagnostic).
 */
inline constexpr double kTailLevel = 0.90;

/** Appends latency_p50_us, latency_tail_us and, with @p with_rate,
 * work_per_s from the run's requests (summarizeWindows()), and notes
 * the sample size, the windows and the tail level. */
void addRequestMetrics(PassResult &r,
                       const std::vector<Request> &requests,
                       const std::string &what, bool with_rate);

/** How many times a pass repeats its set-up: several when it reports
 * setup_s (the median), once in a traced pass. */
inline int
setupRepeats(const PassConfig &cfg)
{
    return cfg.traced ? 1 : 51;
}

/**
 * Run seed of the batch workloads' untimed check pass. Its outputs
 * are recorded once (expected.json, "any_seed"), so a change to
 * simulated or classified results fails a run on any seed, not only
 * on the seeds whose own outputs are recorded.
 */
inline constexpr std::uint64_t kCheckSeed = 0;

/** Appends the set-up metric: the median of @p setup_seconds, each
 * the driver thread's CPU time (threadCpuSeconds()) for one set-up. */
void addSetupMetric(PassResult &r,
                    const std::vector<double> &setup_seconds);

/** Ends a traced timed region: stores the span aggregates in @p r
 * and appends the span log to cfg.spanLog under @p pass. */
void collectSpans(const PassConfig &cfg, const char *pass,
                  PassResult &r);

/** Removes and recreates @p dir. */
void freshDir(const std::string &dir);

/** Lines printed before the result (human-readable). */
void note(const std::string &line);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
