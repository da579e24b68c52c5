/**
 * @file
 * replay_sweep: the warm design-space sweep behind every figure and
 * ablation harness.
 *
 * Set-up loads the 11 "ooo" profiles from the warm cache through
 * getProfile() and generates the seeded adversarial streams
 * (sig-collision, phase-alias). One request replays one stream
 * under one classifier configuration: classifyProfile(), then the
 * RLE-2, Markov-1 and TAGE change predictors and the run-length
 * predictor over the phase trace. A sweep is every stream under
 * every configuration of the grid; sweeps repeat until the time is
 * up and each must reproduce the first one's phase streams. A
 * request is timed in the driver thread's CPU time, as in sim_cold.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cov.hh"
#include "analysis/experiment.hh"
#include "analysis/run_lengths.hh"
#include "pred/eval.hh"
#include "trace/profile_cache.hh"
#include "workload/adversarial.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace tpcp;

struct Stream
{
    std::string name;
    bool adversarial = false;
    trace::IntervalProfile profile;
};

/** entries x dims x threshold x min-count. */
std::vector<phase::ClassifierConfig>
configGrid()
{
    std::vector<phase::ClassifierConfig> grid;
    for (unsigned entries : {16u, 32u, 64u})
        for (unsigned dims : {16u, 32u})
            for (double threshold : {0.125, 0.25})
                for (unsigned min_count : {0u, 8u}) {
                    phase::ClassifierConfig c =
                        phase::ClassifierConfig::paperDefault();
                    c.tableEntries = entries;
                    c.numCounters = dims;
                    c.similarityThreshold = threshold;
                    c.minCountThreshold = min_count;
                    grid.push_back(c);
                }
    return grid;
}

/** The seeded adversarial streams, appended to @p out. */
void
addAdversarial(std::uint64_t seed, std::vector<Stream> &out)
{
    for (const char *family : {"sig-collision", "phase-alias"}) {
        workload::AdversarialSpec spec;
        spec.family = family;
        spec.seed = seed;
        out.push_back({family, true,
                       workload::makeAdversarial(spec).profile});
    }
}

std::vector<Stream>
loadStreams(const PassConfig &cfg)
{
    std::vector<Stream> out;
    trace::ProfileOptions opts;
    opts.cacheDir = cfg.profileDir;
    opts.requireCache = true;
    for (const std::string &name : workload::workloadNames())
        out.push_back({name, false, trace::getProfileByName(name, opts)});
    addAdversarial(cfg.seed, out);
    return out;
}

/** What one request produced. */
struct Replay
{
    std::vector<PhaseId> phases;
    phase::ClassifierStats cstats;
    std::uint64_t predDigest = 0;
};

/** The body of analysis::classifyProfile(), one layer call at a
 * time under spans; its result must equal the real function's. */
analysis::ClassificationResult
tracedClassifyProfile(const trace::IntervalProfile &profile,
                      const phase::ClassifierConfig &cfg)
{
    Span span("analysis.classify_profile");
    analysis::ClassificationResult out;
    out.workload = profile.workload();
    phase::PhaseClassifier classifier(cfg);
    const std::size_t dim_idx = profile.dimIndex(cfg.numCounters);
    const auto &intervals = profile.intervals();
    std::vector<phase::RawInterval> views;
    views.reserve(intervals.size());
    for (const trace::IntervalRecord &rec : intervals)
        views.push_back({rec.accums[dim_idx].data(), rec.accumTotal,
                         rec.cpi});
    std::vector<phase::ClassifyResult> results(views.size());
    {
        Span s("phase.classify");
        classifier.classifyIntervals(views.data(), views.size(),
                                     results.data());
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        out.trace.push(results[i].phase, intervals[i].cpi);
    out.numPhases = classifier.numStablePhases();
    out.covCpi = analysis::weightedPhaseCov(out.trace.phases,
                                            out.trace.cpis);
    out.wholeProgramCov = analysis::wholeProgramCov(out.trace.cpis);
    out.transitionFraction = classifier.stats().transitionFraction();
    out.runLengths = analysis::summarizeRunLengths(out.trace.phases);
    out.classifierStats = classifier.stats();
    return out;
}

template <typename T>
std::uint64_t
mixStats(const T &s, std::uint64_t h)
{
    return fnv1a(&s, sizeof(s), h);
}

Replay
replayOne(const Stream &stream, const phase::ClassifierConfig &cfg,
          bool traced)
{
    Span root("bench.request", traced);
    const analysis::ClassificationResult res =
        traced ? tracedClassifyProfile(stream.profile, cfg)
               : analysis::classifyProfile(stream.profile, cfg);
    const std::vector<PhaseId> &trace = res.trace.phases;
    Replay r;
    pred::ChangeOutcomeStats rle, markov, tage;
    pred::RunLengthStats len;
    {
        Span s("pred.change", traced);
        rle = pred::evalChangeOutcome(
            trace, pred::ChangePredictorConfig::rle(2));
        markov = pred::evalChangeOutcome(
            trace, pred::ChangePredictorConfig::markov(1));
    }
    {
        Span s("pred.tage", traced);
        tage = pred::evalChangeOutcome(
            trace, pred::PredictorSpec::tageSpec());
    }
    {
        Span s("pred.length", traced);
        len = pred::evalRunLength(trace);
    }
    r.predDigest = mixStats(
        len, mixStats(tage, mixStats(markov, mixStats(rle, 0))));
    r.phases = trace;
    r.cstats = res.classifierStats;
    return r;
}

/** Per-stream-kind table counters summed over one sweep. */
struct TableTally
{
    std::uint64_t intervals = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t transitions = 0;

    void
    add(const phase::ClassifierStats &s)
    {
        intervals += s.intervals;
        inserts += s.insertions;
        evictions += s.evictions;
        transitions += s.transitionIntervals;
    }

    double
    perKilo(std::uint64_t n) const
    {
        return 1000.0 * static_cast<double>(n) /
               static_cast<double>(std::max<std::uint64_t>(intervals, 1));
    }
};

/** Probes outside the timed region: signature compression and the
 * raw profile load. */
void
runProbes(const std::vector<Stream> &streams, const PassConfig &cfg,
          PassResult &r)
{
    Tracer::reset();
    std::uint64_t sigs = 0;
    std::vector<std::uint8_t> out(64);
    std::uint64_t sink = 0;
    for (const Stream &s : streams)
        for (unsigned dims : {16u, 32u}) {
            const std::size_t d = s.profile.dimIndex(dims);
            Span span("phase.compress");
            for (const trace::IntervalRecord &rec :
                 s.profile.intervals())
                sink += phase::Signature::compressTo(
                    rec.accums[d].data(), rec.accums[d].size(),
                    rec.accumTotal, 6, phase::BitSelection::Dynamic, 14,
                    out.data());
            sigs += s.profile.numIntervals();
        }
    for (int rep = 0; rep < 3; ++rep)
        for (const std::string &name : workload::workloadNames()) {
            trace::ProfileOptions opts;
            opts.cacheDir = cfg.profileDir;
            trace::IntervalProfile p;
            Span span("trace.profile_load");
            if (!p.load(trace::profileCachePath(name, opts)))
                r.errors.push_back("replay_sweep: cannot load " + name);
        }
    const SpanSummary probes = Tracer::summary();
    r.metrics.push_back(
        {"phase.compress.ns_per_sig",
         spanOf(probes, "phase.compress").totalNs /
             static_cast<double>(std::max<std::uint64_t>(sigs, 1)),
         "ns"});
    // Loading all 11 profiles once, as set-up does.
    r.metrics.push_back(
        {"trace.profile_load_ms",
         spanOf(probes, "trace.profile_load").totalNs / 1e6 / 3.0,
         "ms"});
    if (sink == 0)
        r.errors.push_back("replay_sweep: empty signatures");
}

} // namespace

PassResult
runReplaySweep(const PassConfig &cfg)
{
    PassResult r;
    std::vector<Stream> streams;
    std::vector<double> setups;
    for (int rep = 0; rep < setupRepeats(cfg); ++rep) {
        const double t0 = threadCpuSeconds();
        streams = loadStreams(cfg);
        setups.push_back(threadCpuSeconds() - t0);
    }
    if (!cfg.traced)
        addSetupMetric(r, setups);

    const std::vector<phase::ClassifierConfig> grid = configGrid();
    std::vector<Replay> first;
    std::vector<Request> requests;
    std::uint64_t replayed = 0;
    std::size_t sweeps = 0;
    TableTally real, adv;

    if (cfg.traced)
        Tracer::reset();
    const auto start = Clock::now();
    do {
        std::vector<Replay> sweep;
        for (const phase::ClassifierConfig &c : grid)
            for (const Stream &s : streams) {
                const double t0 = threadCpuSeconds();
                Replay rep;
                try {
                    rep = replayOne(s, c, cfg.traced);
                } catch (const std::exception &e) {
                    ++r.ops.failed;
                    r.errors.push_back("replay_sweep: " + s.name +
                                       " raised: " + e.what());
                }
                requests.push_back(
                    {(threadCpuSeconds() - t0) * 1e6,
                     static_cast<double>(s.profile.numIntervals())});
                ++r.ops.attempted;
                replayed += s.profile.numIntervals();
                if (sweeps == 0)
                    (s.adversarial ? adv : real).add(rep.cstats);
                sweep.push_back(std::move(rep));
            }
        if (first.empty()) {
            first = std::move(sweep);
        } else {
            for (std::size_t i = 0; i < sweep.size(); ++i)
                if (sweep[i].phases != first[i].phases ||
                    sweep[i].predDigest != first[i].predDigest) {
                    r.errors.push_back("replay_sweep: sweep " +
                                       std::to_string(sweeps) +
                                       " replayed differently");
                    break;
                }
        }
        ++sweeps;
    } while (secondsBetween(start, Clock::now()) < cfg.seconds);
    const double wall = secondsBetween(start, Clock::now());
    r.workPerSec = static_cast<double>(replayed) / wall;

    // Per-config digests, split by stream kind (real profiles do not
    // depend on the seed; adversarial streams do).
    for (std::size_t c = 0; c < grid.size(); ++c) {
        std::uint64_t hr = 0, ha = 0, pr = 0, pa = 0;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const Replay &rep = first[c * streams.size() + s];
            std::uint64_t &h = streams[s].adversarial ? ha : hr;
            std::uint64_t &p = streams[s].adversarial ? pa : pr;
            h = fnv1a(rep.phases.data(),
                      rep.phases.size() * sizeof(PhaseId), h);
            p = fnv1a(&rep.predDigest, sizeof(rep.predDigest), p);
        }
        const std::string k = "cfg" + std::to_string(c);
        r.digests["phases.real." + k] = hex64(hr);
        r.digests["phases.adv." + k] = hex64(ha);
        r.digests["pred.real." + k] = hex64(pr);
        r.digests["pred.adv." + k] = hex64(pa);
    }
    // The adversarial streams of the check seed, replayed once
    // untimed: their digests are recorded for every run seed.
    std::vector<Stream> check;
    addAdversarial(kCheckSeed, check);
    for (std::size_t c = 0; c < grid.size(); ++c) {
        std::uint64_t h = 0, p = 0;
        for (const Stream &s : check) {
            const Replay rep = replayOne(s, grid[c], false);
            h = fnv1a(rep.phases.data(),
                      rep.phases.size() * sizeof(PhaseId), h);
            p = fnv1a(&rep.predDigest, sizeof(rep.predDigest), p);
        }
        const std::string k = "cfg" + std::to_string(c);
        r.digests["fixed.phases.adv." + k] = hex64(h);
        r.digests["fixed.pred.adv." + k] = hex64(p);
    }
    note("replay_sweep: " + std::to_string(sweeps) + " sweeps of " +
         std::to_string(streams.size()) + " streams x " +
         std::to_string(grid.size()) + " configs");
    note("replay_sweep: replay_intervals_per_s " +
         fullDouble(r.workPerSec) + " 1/s");

    if (!cfg.traced) {
        addRequestMetrics(r, requests, "stream x config replay", true);
        return r;
    }

    collectSpans(cfg, "replay_sweep", r);
    r.unattributedFrac = 1.0 - attributedNs(r.spans) / (wall * 1e9);
    const double per_interval =
        1.0 / static_cast<double>(std::max<std::uint64_t>(replayed, 1));
    r.metrics.push_back(
        {"phase.classify.ns_per_interval",
         spanOf(r.spans, "phase.classify").totalNs * per_interval, "ns"});
    r.metrics.push_back(
        {"analysis.summary.ns_per_interval",
         spanOf(r.spans, "analysis.classify_profile").selfNs *
             per_interval,
         "ns"});
    r.metrics.push_back(
        {"pred.change.ns_per_obs",
         spanOf(r.spans, "pred.change").totalNs * per_interval / 2.0,
         "ns"});
    r.metrics.push_back({"pred.tage.ns_per_obs",
                         spanOf(r.spans, "pred.tage").totalNs *
                             per_interval,
                         "ns"});
    r.metrics.push_back({"pred.length.ns_per_obs",
                         spanOf(r.spans, "pred.length").totalNs *
                             per_interval,
                         "ns"});
    for (auto [kind, t] : {std::pair<const char *, TableTally *>{"real", &real},
                           {"adv", &adv}}) {
        const std::string k = kind;
        r.metrics.push_back({"phase.table.inserts_per_kinterval." + k,
                             t->perKilo(t->inserts), "1/kinterval"});
        r.metrics.push_back({"phase.table.evictions_per_kinterval." + k,
                             t->perKilo(t->evictions), "1/kinterval"});
        r.metrics.push_back({"phase.transition_frac." + k,
                             t->perKilo(t->transitions) / 1000.0,
                             "fraction"});
    }
    runProbes(streams, cfg, r);
    return r;
}

} // namespace perfbench
