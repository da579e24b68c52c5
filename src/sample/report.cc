#include "sample/report.hh"

#include <cstdio>
#include <fstream>

#include "common/bitops.hh"
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

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    // %.10g prints shortest-ish stable decimals; enough digits that
    // byte-identical runs produce byte-identical JSON without the
    // noise of full round-trip precision.
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += buf;
}

void
appendField(std::string &out, const char *key,
            const std::string &value, bool last = false)
{
    out += '"';
    out += key;
    out += "\": ";
    appendEscaped(out, value);
    if (!last)
        out += ", ";
}

void
appendField(std::string &out, const char *key, double value,
            bool last = false)
{
    out += '"';
    out += key;
    out += "\": ";
    appendNumber(out, value);
    if (!last)
        out += ", ";
}

void
appendField(std::string &out, const char *key, std::size_t value,
            bool last = false)
{
    out += '"';
    out += key;
    out += "\": ";
    out += std::to_string(value);
    if (!last)
        out += ", ";
}

} // namespace

std::string
toJson(const SampleReport &r)
{
    std::string out = "{";
    appendField(out, "workload", r.workload);
    appendField(out, "selector", r.selector);
    appendField(out, "phase_source", r.phaseSource);
    appendField(out, "budget", r.budget);
    appendField(out, "sampled", r.sampled);
    appendField(out, "total_intervals", r.totalIntervals);
    appendField(out, "phases_total", r.phasesTotal);
    appendField(out, "phases_covered", r.phasesCovered);
    appendField(out, "true_cpi", r.trueCpi);
    appendField(out, "estimated_cpi", r.estimatedCpi);
    appendField(out, "rel_error", r.relError);
    appendField(out, "standard_error", r.standardError);
    appendField(out, "jackknife_se", r.jackknifeSe);
    appendField(out, "ci_low", r.ciLow);
    appendField(out, "ci_high", r.ciHigh);
    appendField(out, "predicted_rel_error", r.predictedRelError);
    appendField(out, "sampled_fraction", r.sampledFraction());
    appendField(out, "speedup_equivalent", r.speedupEquivalent(),
                true);
    out += "}";
    return out;
}

std::string
toJson(const std::vector<SampleReport> &reports)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        out += "  ";
        out += toJson(reports[i]);
        if (i + 1 < reports.size())
            out += ',';
        out += '\n';
    }
    out += "]\n";
    return out;
}

bool
writeJson(const std::string &path,
          const std::vector<SampleReport> &reports)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson(reports);
    return static_cast<bool>(file.flush());
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
