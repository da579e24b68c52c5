/**
 * @file
 * Figure-8 extension sweep: the geometric-history (TAGE) predictor
 * against the paper's best table configs, per workload, plus a
 * confidence-gating coverage-vs-accuracy curve.
 *
 * Three products:
 *  - a per-workload table of phase-change prediction rates for the
 *    paper's best Markov/RLE configs, TAGE and the perfect-Markov-1
 *    upper bound, with the fraction of the remaining gap to perfect
 *    that TAGE closes;
 *  - a coverage-vs-accuracy curve swept over the TAGE confidence
 *    threshold (the confidence gate trades coverage for confident
 *    accuracy, Figure-8 style);
 *  - a JSON dump of all of the above (--json, default
 *    fig8_sweep.json).
 *
 * --check-improve is the CI tripwire: exit 1 unless TAGE's
 * aggregate correct rate beats the RLE-2 baseline.
 *
 * Deterministic at any --jobs: every cell is a pure function of one
 * (workload, predictor) pair and results merge in grid order.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "pred/eval.hh"

using namespace tpcp;
using pred::ChangeOutcomeStats;
using pred::PredictorSpec;

namespace
{

/** The compared predictors, in column order: the paper's strongest
 * table configs first, then TAGE. */
const std::vector<std::string> kSpecNames = {
    "markov1", "rle2", "top4markov1", "last4markov1", "tage",
};

/** One predictor's outcome counts. Rates are fixed-precision, so
 * the JSON is bit-identical at any --jobs. */
std::string
toJson(const ChangeOutcomeStats &s)
{
    return json::Object(json::Real::F6)
        .field("changes", s.changes)
        .field("correct_rate", s.correctRate())
        .field("conf_correct_rate", s.confidentCorrectRate())
        .field("conf_correct", s.confCorrect)
        .field("unconf_correct", s.unconfCorrect)
        .field("tag_miss", s.tagMiss)
        .field("unconf_incorrect", s.unconfIncorrect)
        .field("conf_incorrect", s.confIncorrect)
        .str();
}

/** Coverage of the confidence gate: confident fraction of changes.
 * Guarded for constant-phase traces with no changes at all. */
double
coverage(const ChangeOutcomeStats &s)
{
    return s.changes
               ? static_cast<double>(s.confCorrect +
                                     s.confIncorrect) /
                     static_cast<double>(s.changes)
               : 0.0;
}

/** Accuracy among confident predictions only (guarded: a fully
 * ungated or changeless trace has no confident predictions). */
double
confAccuracy(const ChangeOutcomeStats &s)
{
    std::uint64_t conf = s.confCorrect + s.confIncorrect;
    return conf ? static_cast<double>(s.confCorrect) /
                      static_cast<double>(conf)
                : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"json", cli::Kind::Text,
          "write the sweep as JSON (default fig8_sweep.json; "
          "'-' disables)"},
         {"check-improve", cli::Kind::Flag,
          "exit 1 unless TAGE's aggregate correct rate beats "
          "the RLE-2 baseline (CI tripwire)"},
         bench::traceFlag()});
    std::string json_path = args.get("json", "fig8_sweep.json");

    bench::banner("Figure 8 sweep",
                  "TAGE vs the paper's tables");
    auto profiles = bench::loadAllProfiles(args);

    phase::ClassifierConfig ccfg =
        phase::ClassifierConfig::paperDefault();
    auto classified =
        analysis::runGrid(profiles, {ccfg}, args.jobs());
    std::vector<std::string> names;
    std::vector<std::vector<PhaseId>> traces;
    for (analysis::ClassificationResult &res : classified) {
        names.push_back(res.workload);
        traces.push_back(std::move(res.trace.phases));
    }
    const std::size_t W = names.size(), P = kSpecNames.size();

    // One cell per (workload, predictor).
    auto cells = analysis::runIndexed(
        W * P, args.jobs(), [&](std::size_t i) {
            const auto spec =
                pred::predictorSpecByName(kSpecNames[i % P]);
            return pred::evalChangeOutcome(traces[i / P], *spec);
        });
    auto perfect = analysis::runIndexed(
        W, args.jobs(), [&](std::size_t w) {
            return pred::evalPerfectMarkov(traces[w], 1);
        });

    // Confidence sweep: TAGE entry-confidence threshold,
    // aggregated over all workloads per setting.
    const std::vector<unsigned> tageThresholds = {0, 1, 2, 3};
    auto tageSweep = analysis::runIndexed(
        tageThresholds.size(), args.jobs(), [&](std::size_t i) {
            pred::TagePredictorConfig tcfg;
            tcfg.confThreshold = tageThresholds[i];
            ChangeOutcomeStats agg;
            for (const auto &trace : traces)
                agg.merge(pred::evalChangeOutcome(
                    trace, PredictorSpec::tageSpec(tcfg)));
            return agg;
        });

    // Per-workload table. "best table" is the strongest paper
    // config on that workload; "gap closed" the fraction of its
    // remaining distance to perfect Markov-1 TAGE recovers.
    std::vector<std::string> headers = {"workload", "changes"};
    for (const std::string &n : kSpecNames)
        headers.push_back(n);
    headers.push_back("perfect M1");
    headers.push_back("gap closed");
    AsciiTable table(headers);
    ChangeOutcomeStats aggRle2, aggTage;
    for (std::size_t w = 0; w < W; ++w) {
        auto at = [&](const std::string &n) -> const
            ChangeOutcomeStats & {
                for (std::size_t p = 0; p < P; ++p)
                    if (kSpecNames[p] == n)
                        return cells[w * P + p];
                static const ChangeOutcomeStats none;
                return none;
            };
        aggRle2.merge(at("rle2"));
        aggTage.merge(at("tage"));
        double bestTable = 0.0;
        for (std::size_t p = 0; p < P; ++p)
            if (kSpecNames[p] != "tage")
                bestTable = std::max(
                    bestTable, cells[w * P + p].correctRate());
        double gap = perfect[w].coverage() - bestTable;
        double closed =
            gap > 0.0 ? (at("tage").correctRate() - bestTable) / gap
                      : 0.0;
        AsciiTable &row = table.row();
        row.cell(names[w]).cell(cells[w * P].changes);
        for (std::size_t p = 0; p < P; ++p)
            row.percentCell(cells[w * P + p].correctRate());
        row.percentCell(perfect[w].coverage());
        row.percentCell(closed);
    }
    table.print(std::cout);

    std::cout << "\nConfidence sweep (aggregate coverage vs "
                 "accuracy among confident):\n";
    AsciiTable sweep({"predictor", "setting", "coverage",
                      "conf accuracy", "correct"});
    for (std::size_t i = 0; i < tageThresholds.size(); ++i)
        sweep.row()
            .cell("tage")
            .cell(std::uint64_t(tageThresholds[i]))
            .percentCell(coverage(tageSweep[i]))
            .percentCell(confAccuracy(tageSweep[i]))
            .percentCell(tageSweep[i].correctRate());
    sweep.print(std::cout);

    if (json_path != "-") {
        auto workload = [&](std::size_t w) {
            json::Object preds;
            for (std::size_t p = 0; p < P; ++p)
                preds.raw(kSpecNames[p], toJson(cells[w * P + p]));
            return json::Object(json::Real::F6)
                .field("workload", names[w])
                .field("perfect_markov1", perfect[w].coverage())
                .raw("predictors", preds.str())
                .str();
        };
        auto setting = [&](std::size_t i) {
            return json::Object(json::Real::F6)
                .field("conf_threshold", tageThresholds[i])
                .field("coverage", coverage(tageSweep[i]))
                .field("conf_accuracy", confAccuracy(tageSweep[i]))
                .field("correct_rate", tageSweep[i].correctRate())
                .str();
        };
        const std::string sweep_json =
            json::Object()
                .wrap("\n    ")
                .raw("tage", json::array(tageThresholds.size(), setting))
                .str("\n  }");
        const std::string aggregate = json::Object()
                                          .raw("rle2", toJson(aggRle2))
                                          .raw("tage", toJson(aggTage))
                                          .str();
        if (!bench::writeJson(
                json_path,
                json::Object()
                    .wrap("\n  ")
                    .raw("workloads", json::array(W, workload, "    "))
                    .wrap("\n  ")
                    .raw("sweep", sweep_json)
                    .wrap("\n  ")
                    .raw("aggregate", aggregate)
                    .str("\n}\n")))
            return 1;
        std::cout << "\nwrote " << json_path << "\n";
    }

    std::printf("\naggregate: rle2 %.1f%%  tage %.1f%%\n",
                100.0 * aggRle2.correctRate(),
                100.0 * aggTage.correctRate());
    if (args.has("check-improve") &&
        aggTage.correctRate() <= aggRle2.correctRate()) {
        std::cerr << "FAIL: TAGE ("
                  << json::real(aggTage.correctRate(), json::Real::F6)
                  << ") does not beat RLE-2 ("
                  << json::real(aggRle2.correctRate(), json::Real::F6)
                  << ")\n";
        return 1;
    }
    return 0;
}
