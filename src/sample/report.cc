#include "sample/report.hh"

#include "common/bitops.hh"
#include "common/json.hh"
#include "sample/estimator.hh"
#include "sample/planner.hh"

namespace tpcp::sample
{

double
SampleReport::sampledFraction() const
{
    if (totalIntervals == 0)
        return 0.0;
    return static_cast<double>(sampled) /
           static_cast<double>(totalIntervals);
}

double
SampleReport::speedupEquivalent() const
{
    if (sampled == 0)
        return 0.0;
    return static_cast<double>(totalIntervals) /
           static_cast<double>(sampled);
}

std::string
toJson(const SampleReport &r)
{
    return json::Object()
        .field("workload", r.workload)
        .field("selector", r.selector)
        .field("phase_source", r.phaseSource)
        .field("budget", r.budget)
        .field("sampled", r.sampled)
        .field("total_intervals", r.totalIntervals)
        .field("phases_total", r.phasesTotal)
        .field("phases_covered", r.phasesCovered)
        .field("true_cpi", r.trueCpi)
        .field("estimated_cpi", r.estimatedCpi)
        .field("rel_error", r.relError)
        .field("standard_error", r.standardError)
        .field("jackknife_se", r.jackknifeSe)
        .field("ci_low", r.ciLow)
        .field("ci_high", r.ciHigh)
        .field("predicted_rel_error", r.predictedRelError)
        .field("sampled_fraction", r.sampledFraction())
        .field("speedup_equivalent", r.speedupEquivalent())
        .str();
}

SampleReport
runSampledSimulation(const trace::IntervalProfile &profile,
                     const std::string &selector,
                     PhaseSource source, std::size_t budget)
{
    std::vector<PhaseId> phases = phaseIdStream(profile, source);
    return runSampledSimulation(profile, phases, selector, source,
                                budget);
}

SampleReport
runSampledSimulation(const trace::IntervalProfile &profile,
                     const std::vector<PhaseId> &phases,
                     const std::string &selector,
                     PhaseSource source, std::size_t budget)
{
    SelectorContext ctx{profile, phases,
                        fnv1a64(profile.workload()), 16};
    std::unique_ptr<Selector> sel = makeSelector(selector);

    SampleReport r;
    r.workload = profile.workload();
    r.selector = sel->name();
    r.phaseSource = phaseSourceName(source);
    r.budget = budget;
    if (selector == "stratified") {
        Plan plan = planBudget(ctx, budget);
        r.predictedRelError = plan.predictedRelError;
    }

    Selection selection = sel->select(ctx, budget);
    Estimate est = estimateCpi(profile, phases, selection);
    r.sampled = est.sampled;
    r.totalIntervals = est.totalIntervals;
    r.phasesTotal = est.phasesTotal;
    r.phasesCovered = est.phasesCovered;
    r.trueCpi = est.trueCpi;
    r.estimatedCpi = est.estimatedCpi;
    r.relError = est.relError();
    r.standardError = est.standardError;
    r.jackknifeSe = est.jackknifeSe;
    r.ciLow = est.ciLow;
    r.ciHigh = est.ciHigh;
    return r;
}

} // namespace tpcp::sample
