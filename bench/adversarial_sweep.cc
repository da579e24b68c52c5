/**
 * @file
 * Adversarial-corpus sweep: scores the classifier, the change
 * predictors and the fault mitigations on the four hostile stressor
 * families (workload/adversarial.hh) next to a synthetic-workload
 * baseline, so regressions against deliberately hard inputs are as
 * visible as regressions on the paper's benchmarks.
 *
 * Per row (one adversarial variant or one synthetic workload):
 *  - classification stability: fraction of intervals in stable
 *    phases, phase count, and fragmentation (phases per underlying
 *    behavior — adversarial rows know their ground truth);
 *  - purity: over stable intervals, the truth-label agreement of the
 *    majority behavior of each phase (adversarial rows only);
 *  - change-prediction correct rate at actual phase changes for the
 *    paper's RLE-2 and the TAGE family;
 *  - phase-ID agreement of a faulted run vs the fault-free run
 *    (signature-target campaign), mitigated and unmitigated.
 *
 * Deterministic at any --jobs: each row is a pure function of its
 * inputs, results return in grid order. `--floors=FILE` turns the
 * sweep into a CI tripwire: every adversarial row's purity and
 * mitigated agreement must meet its family's checked-in floor.
 *
 * Options (beyond the shared --jobs):
 *   --families=CSV  stressor families (default: all four)
 *   --seeds=CSV     generator seeds per family (default 1)
 *   --intervals=N   intervals per adversarial stream (default 600)
 *   --baseline=CSV  synthetic baseline workloads
 *                   (default ammp,gcc/s,gzip/p,mcf; 'none' disables)
 *   --floors=FILE   floor file: `family min_purity min_mit_agree`
 *                   per line; exit 1 on any violation
 *   --json=PATH     row dump (default adversarial_sweep.json;
 *                   '-' disables)
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/parallel_runner.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "common/status.hh"
#include "fault/resilience.hh"
#include "pred/eval.hh"
#include "pred/predictor_spec.hh"
#include "workload/adversarial.hh"

using namespace tpcp;

namespace
{

/** One sweep row: an adversarial variant or a baseline workload. */
struct RowSpec
{
    bool adversarial = false;
    std::string family;     // adversarial rows
    std::uint64_t seed = 1; // adversarial rows
    std::string workload;   // baseline rows
};

struct RowResult
{
    std::string name;
    bool adversarial = false;
    std::string family;
    std::size_t intervals = 0;
    std::size_t behaviors = 0; // 0 = unknown (baseline rows)
    std::uint32_t phases = 0;
    double stableFraction = 0.0;
    double purity = -1.0; // -1 = no ground truth
    double rle2Correct = 0.0;
    double tageCorrect = 0.0;
    double mitAgree = 0.0;
    double unmitAgree = 0.0;
};

/**
 * Majority-truth purity over stable intervals: each stable phase
 * votes for its most common ground-truth behavior, and purity is the
 * fraction of stable intervals matching their phase's majority.
 * 1.0 = the phase partition refines the behavior partition.
 */
double
stablePurity(const std::vector<PhaseId> &phases,
             const std::vector<std::uint32_t> &truth)
{
    std::map<PhaseId, std::map<std::uint32_t, std::uint64_t>> votes;
    std::uint64_t stable = 0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (phases[i] == transitionPhaseId)
            continue;
        ++votes[phases[i]][truth[i]];
        ++stable;
    }
    if (stable == 0)
        return 0.0;
    std::uint64_t agree = 0;
    for (const auto &[phase, counts] : votes) {
        std::uint64_t best = 0;
        for (const auto &[behavior, n] : counts)
            best = std::max(best, n);
        agree += best;
    }
    return static_cast<double>(agree) /
           static_cast<double>(stable);
}

RowResult
runRow(const RowSpec &spec, std::size_t intervals)
{
    trace::IntervalProfile profile;
    std::vector<std::uint32_t> truth;
    RowResult r;
    r.adversarial = spec.adversarial;
    if (spec.adversarial) {
        workload::AdversarialSpec aspec;
        aspec.family = spec.family;
        aspec.seed = spec.seed;
        aspec.intervals = intervals;
        workload::AdversarialTrace adv =
            workload::makeAdversarial(aspec);
        profile = std::move(adv.profile);
        truth = std::move(adv.truth);
        r.behaviors = adv.numBehaviors;
        r.family = spec.family;
    } else {
        profile = trace::getProfileByName(spec.workload);
    }
    r.name = profile.workload();
    r.intervals = profile.numIntervals();

    analysis::ClassificationResult cls = analysis::classifyProfile(
        profile, phase::ClassifierConfig::paperDefault());
    r.phases = cls.numPhases;
    r.stableFraction = 1.0 - cls.transitionFraction;
    if (!truth.empty())
        r.purity = stablePurity(cls.trace.phases, truth);

    r.rle2Correct =
        pred::evalChangeOutcome(cls.trace.phases,
                                *pred::predictorSpecByName("rle2"))
            .correctRate();
    r.tageCorrect =
        pred::evalChangeOutcome(cls.trace.phases,
                                *pred::predictorSpecByName("tage"))
            .correctRate();

    fault::ResilienceOptions ropts;
    ropts.injector.target = fault::Target::SignatureRows;
    ropts.injector.ratePerInterval = 0.05;
    ropts.injector.mitigated = false;
    r.unmitAgree = fault::runResilience(profile, ropts).agreement();
    ropts.injector.mitigated = true;
    r.mitAgree = fault::runResilience(profile, ropts).agreement();
    return r;
}

std::string
toJson(const RowResult &r)
{
    json::Object row(json::Real::G6);
    row.field("name", r.name).field("adversarial", r.adversarial);
    if (r.adversarial)
        row.field("family", r.family);
    return row.field("intervals", r.intervals)
        .field("behaviors", r.behaviors)
        .field("phases", r.phases)
        .field("stable_fraction", r.stableFraction)
        .field("purity", r.purity)
        .field("rle2_correct", r.rle2Correct)
        .field("tage_correct", r.tageCorrect)
        .field("mit_agree", r.mitAgree)
        .field("unmit_agree", r.unmitAgree)
        .str();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"families", cli::Kind::Text,
          "stressor families to sweep (default: all four)"},
         {"seeds", cli::Kind::Text,
          "generator seeds per family (default 1)"},
         {"intervals", cli::Kind::U64,
          "intervals per adversarial stream (default 600)"},
         {"baseline", cli::Kind::Text,
          "synthetic baseline workloads (default "
          "ammp,gcc/s,gzip/p,mcf; 'none' disables)"},
         {"floors", cli::Kind::Text,
          "per-family floor file (family purity mit_agree); "
          "exit 1 on violation"},
         {"json", cli::Kind::Text,
          "write rows as JSON (default adversarial_sweep.json; "
          "'-' disables)"}});

    int rc = 0;
    try {
        std::vector<std::string> families = bench::splitCsv(
            args.get("families",
                     "phase-alias,oscillation,sig-collision,"
                     "drift-ramp"));
        for (const std::string &f : families)
            if (!workload::isAdversarialFamily(f))
                tpcp_raise("unknown adversarial family '", f, "'");
        std::vector<std::uint64_t> seeds = bench::csvValues(
            args, "seeds", "1", "non-negative integers",
            [](std::string_view s) {
                return cli::parseUnsigned(s, UINT64_MAX);
            });
        std::size_t intervals = args.getU64("intervals", 600);
        std::string baseline =
            args.get("baseline", "ammp,gcc/s,gzip/p,mcf");
        std::string json_path =
            args.get("json", "adversarial_sweep.json");

        bench::banner("Adversarial sweep",
                      "hostile stressor corpus vs the synthetic "
                      "baseline");

        std::vector<RowSpec> rows;
        if (baseline != "none")
            for (const std::string &w : bench::splitCsv(baseline)) {
                RowSpec spec;
                spec.workload = w;
                rows.push_back(spec);
            }
        for (const std::string &family : families)
            for (std::uint64_t seed : seeds) {
                RowSpec spec;
                spec.adversarial = true;
                spec.family = family;
                spec.seed = seed;
                rows.push_back(spec);
            }

        auto results = analysis::runIndexed(
            rows.size(), args.jobs(), [&](std::size_t i) {
                return runRow(rows[i], intervals);
            });

        AsciiTable table({"workload", "intervals", "behaviors",
                          "phases", "stable", "purity", "rle2",
                          "tage", "mit-agree", "unmit-agree"});
        for (const RowResult &r : results) {
            auto &row = table.row();
            row.cell(r.name)
                .cell(static_cast<std::uint64_t>(r.intervals));
            if (r.behaviors != 0)
                row.cell(static_cast<std::uint64_t>(r.behaviors));
            else
                row.cell(std::string("-"));
            row.cell(static_cast<std::uint64_t>(r.phases))
                .percentCell(r.stableFraction);
            if (r.purity >= 0.0)
                row.percentCell(r.purity);
            else
                row.cell(std::string("-"));
            row.percentCell(r.rle2Correct)
                .percentCell(r.tageCorrect)
                .percentCell(r.mitAgree)
                .percentCell(r.unmitAgree);
        }
        table.print(std::cout);

        if (json_path != "-") {
            json::writeFile(json_path, json::lines(results));
            std::cout << "\nwrote " << results.size()
                      << " rows to " << json_path << "\n";
        }

        if (args.has("floors")) {
            const auto floors = bench::loadFloors(
                args.get("floors", ""), 2, "family purity mit_agree");
            unsigned violations = 0;
            for (const RowResult &r : results) {
                if (!r.adversarial)
                    continue;
                auto it = floors.find(r.family);
                if (it == floors.end())
                    tpcp_raise("floors file has no entry for "
                               "family ", r.family);
                const double purity = it->second[0];
                const double mit_agree = it->second[1];
                if (r.purity < purity) {
                    std::cerr << "error: " << r.name << " purity "
                              << r.purity << " below floor " << purity
                              << "\n";
                    ++violations;
                }
                if (r.mitAgree < mit_agree) {
                    std::cerr << "error: " << r.name
                              << " mitigated agreement "
                              << r.mitAgree << " below floor "
                              << mit_agree << "\n";
                    ++violations;
                }
            }
            if (violations != 0) {
                std::cerr << "error: " << violations
                          << " floor violation(s)\n";
                rc = 1;
            } else {
                std::cout << "all adversarial rows meet their "
                             "family floors\n";
            }
        }
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        rc = 1;
    }
    return rc;
}
