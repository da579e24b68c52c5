/**
 * @file
 * Phase-guided adaptation sweep: policy x workload.
 *
 * The dynamic-reconfiguration payoff experiment the paper motivates
 * (sections 1 and 6.2): with phase IDs and change/length predictions
 * available online, how much of the per-phase-oracle energy-delay
 * saving does a realistic greedy policy capture, and what do the
 * paper's predictors add over last-value tracking
 * (greedy vs greedy-nopred)? Every run is scored against the three
 * baselines (always-big, static-best, per-phase oracle) under the
 * additive interval-EDP objective.
 *
 * Deterministic at any --jobs: each (workload) cell builds its
 * lattice profiles and runs every policy serially inside the cell.
 * Reports are also serialized to JSON (--json).
 */

#include <iostream>

#include "adapt/report.hh"
#include "analysis/parallel_runner.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "workload/workload.hh"

using namespace tpcp;

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"lattice", cli::Kind::Text,
          "config lattice: standard | small (default small)"},
         {"core", cli::Kind::Text,
          "profiling core: simple | ooo (default simple)"},
         {"min-oracle", cli::Kind::Real,
          "exit 1 if the best greedy oracle fraction across "
          "workloads stays below this (CI tripwire; default off)"},
         {"json", cli::Kind::Text,
          "write AdaptReport JSON (default adapt_policy.json; "
          "'-' disables)"},
         bench::traceFlag()});
    adapt::ConfigLattice lattice =
        adapt::ConfigLattice::byName(args.get("lattice", "small"));
    std::string json_path = args.get("json", "adapt_policy.json");

    trace::ProfileOptions opts;
    opts.coreName = args.get("core", "simple");

    bench::banner("Phase-guided adaptation",
                  "greedy reconfiguration vs static and oracle "
                  "baselines");
    const std::vector<std::string> &policies =
        adapt::policyPresetNames();

    // Ingested traces replay in recorded-CPI mode (energy-only
    // lattice; see adapt/report.hh) — the trace cannot be
    // re-simulated at other machine configurations.
    std::vector<std::pair<std::string, trace::IntervalProfile>>
        traced;
    std::vector<std::string> names;
    if (args.has("trace")) {
        traced = trace::loadTraceProfiles(args.get("trace", ""));
        for (const auto &[name, profile] : traced)
            names.push_back(name);
    } else {
        names = workload::workloadNames();
    }

    // One parallel cell per workload: simulate/load the lattice
    // profiles once, then run every policy serially inside the
    // cell (profiles dominate the cost; policies replay in
    // microseconds).
    auto per_workload = analysis::runIndexed(
        names.size(), args.jobs(), [&](std::size_t w) {
            std::vector<adapt::AdaptReport> reports;
            for (const std::string &policy : policies) {
                if (args.has("trace"))
                    reports.push_back(adapt::runTraceAdaptation(
                        traced[w].second,
                        adapt::policyPresetByName(policy),
                        lattice));
                else
                    reports.push_back(adapt::runAdaptation(
                        names[w], adapt::policyPresetByName(policy),
                        lattice, opts));
            }
            return reports;
        });

    std::vector<adapt::AdaptReport> all;
    for (const auto &reports : per_workload)
        all.insert(all.end(), reports.begin(), reports.end());

    // One table per policy preset.
    for (std::size_t p = 0; p < policies.size(); ++p) {
        AsciiTable table({"workload", "phases", "switches",
                          "policy", "static", "oracle",
                          "of oracle", "slowdown"});
        for (std::size_t w = 0; w < names.size(); ++w) {
            const adapt::AdaptReport &r = per_workload[w][p];
            table.row()
                .cell(r.workload)
                .cell(static_cast<std::uint64_t>(r.numPhases))
                .cell(r.switches.total())
                .percentCell(r.edpSavings(r.policyTotals))
                .percentCell(r.edpSavings(r.staticBest))
                .percentCell(r.edpSavings(r.oracle))
                .percentCell(r.oracleFraction())
                .percentCell(r.slowdown());
        }
        std::cout << "Policy " << policies[p] << " ("
                  << lattice.size() << "-config lattice):\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    // Summary: what the predictors buy (greedy vs greedy-nopred)
    // and how both policies place against the baselines.
    AsciiTable summary({"policy", "avg savings", "avg of oracle",
                        "beats static", ">=90% of oracle"});
    double best_fraction = 0.0;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::vector<double> savings, fractions;
        unsigned beats = 0, near_oracle = 0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const adapt::AdaptReport &r = per_workload[w][p];
            savings.push_back(r.edpSavings(r.policyTotals));
            fractions.push_back(r.oracleFraction());
            if (r.policyTotals.edp < r.staticBest.edp)
                ++beats;
            if (r.oracleFraction() >= 0.90)
                ++near_oracle;
            if (policies[p] == "greedy")
                best_fraction =
                    std::max(best_fraction, r.oracleFraction());
        }
        summary.row()
            .cell(policies[p])
            .percentCell(bench::mean(savings))
            .percentCell(bench::mean(fractions))
            .cell(std::to_string(beats) + "/" +
                  std::to_string(names.size()))
            .cell(std::to_string(near_oracle) + "/" +
                  std::to_string(names.size()));
    }
    summary.print(std::cout);

    if (json_path != "-") {
        if (!bench::writeJson(json_path, json::lines(all)))
            return 1;
        std::cout << "\nwrote " << all.size() << " reports to "
                  << json_path << "\n";
    }

    if (args.has("min-oracle")) {
        double limit = args.getDouble("min-oracle", 0.0);
        if (best_fraction < limit) {
            std::cerr << "error: best greedy oracle fraction "
                      << best_fraction * 100.0
                      << "% below --min-oracle " << limit * 100.0
                      << "%\n";
            return 1;
        }
        std::cout << "best greedy oracle fraction "
                  << best_fraction * 100.0
                  << "% meets --min-oracle " << limit * 100.0
                  << "%\n";
    }
    return 0;
}
