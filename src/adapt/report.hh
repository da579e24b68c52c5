/**
 * @file
 * AdaptReport: the result record of one phase-guided reconfiguration
 * run (workload x policy preset x lattice), including the three
 * baselines every run is scored against, plus JSON serialization and
 * the end-to-end driver used by `tpcp adapt` and
 * `bench/adapt_policy`.
 *
 * Baselines (all switch-penalty-free):
 *  - always-big:  every interval runs the base (level-0) machine.
 *  - static-best: the single lattice configuration minimizing the
 *    whole-run interval-EDP sum, chosen with oracle knowledge — the
 *    best any non-adaptive design could do.
 *  - oracle:      per stable phase, the configuration minimizing
 *    that phase's interval-EDP sum (transition intervals run big
 *    when the policy pins them big); the per-phase upper bound an
 *    adaptive policy approaches.
 *
 * The scoring objective is the additive interval-EDP sum
 * (sum over intervals of energy_t x cycles_t), the same quantity
 * the greedy policy optimizes online.
 */

#ifndef TPCP_ADAPT_REPORT_HH
#define TPCP_ADAPT_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "adapt/controller.hh"
#include "trace/profile_cache.hh"

namespace tpcp::adapt
{

/** Named controller presets ("greedy", "greedy-nopred"). */
struct PolicyPreset
{
    std::string name;
    ControllerOptions options;
};

/** Builds a preset by name; fatal (user error) on unknown names. */
PolicyPreset policyPresetByName(const std::string &name);

/** The preset names accepted, in display order. */
const std::vector<std::string> &policyPresetNames();

/** Per-phase chosen configurations (for the report). */
struct PhaseChoice
{
    PhaseId phase = invalidPhaseId;
    std::size_t intervals = 0;
    /** The policy's final best config for the phase. */
    std::size_t policyConfig = 0;
    /** The oracle's best config for the phase. */
    std::size_t oracleConfig = 0;
};

/** Everything one adaptation run produced. */
struct AdaptReport
{
    std::string workload;
    std::string policy;
    std::string lattice;
    std::size_t numConfigs = 0;
    std::size_t intervals = 0;
    std::size_t numPhases = 0;

    SwitchStats switches;
    std::uint64_t phaseChanges = 0;
    std::uint64_t unanticipatedChanges = 0;
    std::uint64_t lengthGateSkips = 0;

    RunTotals policyTotals;
    RunTotals alwaysBig;
    RunTotals staticBest;
    std::string staticBestConfig;
    RunTotals oracle;

    std::vector<PhaseChoice> perPhase;

    /** Fractional interval-EDP saving of @p t vs always-big. */
    double edpSavings(const RunTotals &t) const;
    /** Policy savings as a fraction of oracle savings (1.0 == the
     * policy matched the oracle; 0 when the oracle saves nothing). */
    double oracleFraction() const;
    /** Policy slowdown vs always-big (cycles ratio - 1). */
    double slowdown() const;
};

/** One report as a JSON object (stable key order);
 * json::lines() lays out a list of them. */
std::string toJson(const AdaptReport &report);

/**
 * Loads (or simulates and caches) one interval profile per lattice
 * point for @p workload_name. @p base supplies everything but the
 * machine (core, interval length, cache directory); profiles come
 * back in lattice index order over an identical interval grid.
 */
std::vector<trace::IntervalProfile> buildLatticeProfiles(
    const std::string &workload_name, const ConfigLattice &lattice,
    const trace::ProfileOptions &base = {});

/**
 * The end-to-end experiment: classify the big profile (paper-default
 * classifier), run the controller, score the baselines.
 * Deterministic per (workload, preset, lattice, profile options).
 */
AdaptReport runAdaptation(
    const std::string &workload_name, const PolicyPreset &preset,
    const ConfigLattice &lattice,
    const trace::ProfileOptions &base = {});

/** Same, reusing already-built lattice profiles and phase stream. */
AdaptReport runAdaptation(
    const std::string &workload_name, const PolicyPreset &preset,
    const ConfigLattice &lattice,
    const std::vector<trace::IntervalProfile> &profiles,
    const std::vector<PhaseId> &phases);

/**
 * Recorded-CPI adaptation for an ingested trace: the trace cannot
 * be re-simulated at other lattice points, so every configuration
 * replays the recorded timing and the lattice differs in energy
 * only. Savings therefore bound what phase-guided *energy* scaling
 * buys on the recorded schedule; timing feedback (CPI changing with
 * the chosen config) needs a simulated workload.
 */
AdaptReport runTraceAdaptation(const trace::IntervalProfile &profile,
                               const PolicyPreset &preset,
                               const ConfigLattice &lattice);

} // namespace tpcp::adapt

#endif // TPCP_ADAPT_REPORT_HH
