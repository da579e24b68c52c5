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
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
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

/** Fixed-precision double for bit-identical JSON at any --jobs. */
std::string
jnum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

void
jsonStats(std::ostream &os, const ChangeOutcomeStats &s)
{
    os << "{\"changes\": " << s.changes
       << ", \"correct_rate\": " << jnum(s.correctRate())
       << ", \"conf_correct_rate\": "
       << jnum(s.confidentCorrectRate())
       << ", \"conf_correct\": " << s.confCorrect
       << ", \"unconf_correct\": " << s.unconfCorrect
       << ", \"tag_miss\": " << s.tagMiss
       << ", \"unconf_incorrect\": " << s.unconfIncorrect
       << ", \"conf_incorrect\": " << s.confIncorrect << "}";
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
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "error: cannot write " << json_path
                      << "\n";
            return 1;
        }
        os << "{\n  \"workloads\": [\n";
        for (std::size_t w = 0; w < W; ++w) {
            os << "    {\"workload\": \"" << names[w]
               << "\", \"perfect_markov1\": "
               << jnum(perfect[w].coverage())
               << ", \"predictors\": {";
            for (std::size_t p = 0; p < P; ++p) {
                os << (p ? ", " : "") << "\"" << kSpecNames[p]
                   << "\": ";
                jsonStats(os, cells[w * P + p]);
            }
            os << "}}" << (w + 1 < W ? "," : "") << "\n";
        }
        os << "  ],\n  \"sweep\": {\n    \"tage\": [";
        for (std::size_t i = 0; i < tageThresholds.size(); ++i)
            os << (i ? ", " : "") << "{\"conf_threshold\": "
               << tageThresholds[i] << ", \"coverage\": "
               << jnum(coverage(tageSweep[i]))
               << ", \"conf_accuracy\": "
               << jnum(confAccuracy(tageSweep[i]))
               << ", \"correct_rate\": "
               << jnum(tageSweep[i].correctRate()) << "}";
        os << "]\n  },\n  \"aggregate\": {\"rle2\": ";
        jsonStats(os, aggRle2);
        os << ", \"tage\": ";
        jsonStats(os, aggTage);
        os << "}\n}\n";
        std::cout << "\nwrote " << json_path << "\n";
    }

    std::printf("\naggregate: rle2 %.1f%%  tage %.1f%%\n",
                100.0 * aggRle2.correctRate(),
                100.0 * aggTage.correctRate());
    if (args.has("check-improve") &&
        aggTage.correctRate() <= aggRle2.correctRate()) {
        std::cerr << "FAIL: TAGE ("
                  << jnum(aggTage.correctRate())
                  << ") does not beat RLE-2 ("
                  << jnum(aggRle2.correctRate()) << ")\n";
        return 1;
    }
    return 0;
}
