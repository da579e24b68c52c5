/**
 * @file
 * SampleReport: the result record of one sampled-simulation
 * experiment (workload x selector x phase source x budget), plus
 * JSON serialization so benchmark sweeps leave a machine-readable
 * trajectory next to their ASCII tables.
 */

#ifndef TPCP_SAMPLE_REPORT_HH
#define TPCP_SAMPLE_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sample/selector.hh"
#include "trace/interval_profile.hh"

namespace tpcp::sample
{

/** Everything one sampled-simulation run produced. */
struct SampleReport
{
    std::string workload;
    std::string selector;
    std::string phaseSource;
    std::size_t budget = 0;
    /** Intervals actually detailed-simulated (<= budget). */
    std::size_t sampled = 0;
    std::size_t totalIntervals = 0;
    std::size_t phasesTotal = 0;
    std::size_t phasesCovered = 0;
    double trueCpi = 0.0;
    double estimatedCpi = 0.0;
    /** |estimated - true| / true. */
    double relError = 0.0;
    double standardError = 0.0;
    double jackknifeSe = 0.0;
    double ciLow = 0.0;
    double ciHigh = 0.0;
    /** Planner's pilot-based 95% relative-error prediction; 0 for
     * selectors that do not plan. */
    double predictedRelError = 0.0;

    /** Fraction of intervals detailed-simulated. */
    double sampledFraction() const;

    /** Total intervals per simulated interval. */
    double speedupEquivalent() const;
};

/** One report as a JSON object (stable key order, no trailing
 * newline); json::lines() lays out a list of them. */
std::string toJson(const SampleReport &report);

/**
 * The end-to-end experiment: derive the phase-ID stream, select
 * @p budget intervals with @p selector, estimate whole-program CPI
 * and compare against ground truth. Deterministic per
 * (profile, selector, source, budget).
 */
SampleReport runSampledSimulation(
    const trace::IntervalProfile &profile,
    const std::string &selector, PhaseSource source,
    std::size_t budget);

/**
 * Same, reusing an already-computed phase stream (lets sweeps
 * classify once per workload instead of once per cell).
 */
SampleReport runSampledSimulation(
    const trace::IntervalProfile &profile,
    const std::vector<PhaseId> &phases,
    const std::string &selector, PhaseSource source,
    std::size_t budget);

} // namespace tpcp::sample

#endif // TPCP_SAMPLE_REPORT_HH
