#include "fault/resilience.hh"

#include <algorithm>

#include "adapt/report.hh"
#include "common/json.hh"
#include "common/state_io.hh"
#include "common/status.hh"
#include "pred/phase_tracker.hh"

namespace tpcp::fault
{

namespace
{

/** Envelope tag of a harness checkpoint ("TPCF"). */
constexpr std::uint32_t harnessMagic = 0x46435054;
// v2: injector state grew the serve-layer fault counters.
constexpr std::uint32_t harnessVersion = 2;

/** Per-stream prediction bookkeeping. */
struct StreamStats
{
    std::vector<PhaseId> phases;
    std::uint64_t nextTotal = 0;
    std::uint64_t nextCorrect = 0;
    std::uint64_t changes = 0;
    std::uint64_t changeCorrect = 0;
    std::uint64_t lengthRuns = 0;
    std::uint64_t lengthCorrect = 0;
    bool havePrev = false;
    PhaseId prevPredicted = invalidPhaseId;

    double
    nextAcc() const
    {
        return nextTotal ? static_cast<double>(nextCorrect) /
                               static_cast<double>(nextTotal)
                         : 0.0;
    }

    double
    changeAcc() const
    {
        return changes ? static_cast<double>(changeCorrect) /
                             static_cast<double>(changes)
                       : 0.0;
    }

    double
    lengthAcc() const
    {
        return lengthRuns ? static_cast<double>(lengthCorrect) /
                                static_cast<double>(lengthRuns)
                          : 0.0;
    }
};

/** Feeds one interval and folds the output into the bookkeeping. */
void
step(pred::PhaseTracker &tracker,
     const std::vector<std::uint32_t> &raw, InstCount total,
     double cpi, StreamStats &s)
{
    pred::PhaseTrackerOutput out =
        tracker.onIntervalRaw(raw, total, cpi);
    PhaseId id = out.classification.phase;
    if (s.havePrev) {
        ++s.nextTotal;
        if (s.prevPredicted == id)
            ++s.nextCorrect;
    }
    s.prevPredicted = out.nextPhase.phase;
    s.havePrev = true;
    if (out.changeOutcome) {
        ++s.changes;
        if (out.changeOutcome->anyCorrect)
            ++s.changeCorrect;
    }
    if (out.completedRun) {
        ++s.lengthRuns;
        if (out.completedRun->correct())
            ++s.lengthCorrect;
    }
    s.phases.push_back(id);
}

/** Flushes the final open run into the length accounting. */
void
finishLengths(pred::PhaseTracker &tracker, StreamStats &s)
{
    if (auto rec = tracker.mutableLengthPredictor().finish()) {
        ++s.lengthRuns;
        if (rec->correct())
            ++s.lengthCorrect;
    }
}

pred::PhaseTrackerConfig
trackerConfig(const ResilienceOptions &opts)
{
    pred::PhaseTrackerConfig cfg;
    cfg.changeTable = opts.changePredictor;
    if (opts.injector.mitigated) {
        cfg.classifier.parityProtect = true;
        cfg.classifier.scrubEvery = opts.scrubEvery;
    }
    return cfg;
}

void
saveStats(StateWriter &w, const StreamStats &s)
{
    w.u64(s.phases.size());
    for (PhaseId p : s.phases)
        w.u32(p);
    w.u64(s.nextTotal);
    w.u64(s.nextCorrect);
    w.u64(s.changes);
    w.u64(s.changeCorrect);
    w.u64(s.lengthRuns);
    w.u64(s.lengthCorrect);
    w.b(s.havePrev);
    w.u32(s.prevPredicted);
}

void
loadStats(StateReader &r, StreamStats &s)
{
    std::uint64_t n = r.u64();
    if (n > (1ull << 32))
        tpcp_raise("resilience checkpoint: implausible phase-stream "
                   "length ",
                   n);
    s.phases.resize(n);
    for (std::uint64_t i = 0; i < n; ++i)
        s.phases[i] = r.u32();
    s.nextTotal = r.u64();
    s.nextCorrect = r.u64();
    s.changes = r.u64();
    s.changeCorrect = r.u64();
    s.lengthRuns = r.u64();
    s.lengthCorrect = r.u64();
    s.havePrev = r.b();
    s.prevPredicted = r.u32();
}

void
saveHarnessCheckpoint(const std::string &path,
                      const trace::IntervalProfile &profile,
                      const ResilienceOptions &opts,
                      const pred::PhaseTracker &tracker,
                      const Injector &injector,
                      const StreamStats &faulty)
{
    StateWriter w;
    w.str(profile.workload());
    w.str(targetName(opts.injector.target));
    w.f64(opts.injector.ratePerInterval);
    w.b(opts.injector.mitigated);
    w.u64(opts.injector.seed);
    w.u32(opts.dims);
    w.u32(opts.scrubEvery);
    tracker.saveState(w);
    injector.saveState(w);
    saveStats(w, faulty);
    if (!writeStateFile(path, harnessMagic, harnessVersion, w))
        tpcp_raise("cannot write resilience checkpoint ", path);
}

/** Restores tracker/injector/aggregates; returns the next interval
 * index. Raises when the checkpoint was taken under different
 * campaign options (resuming it would silently change the result). */
std::uint64_t
loadHarnessCheckpoint(const std::string &path,
                      const trace::IntervalProfile &profile,
                      const ResilienceOptions &opts,
                      pred::PhaseTracker &tracker, Injector &injector,
                      StreamStats &faulty)
{
    std::vector<std::uint8_t> payload =
        readStateFile(path, harnessMagic, harnessVersion);
    StateReader r(payload);
    std::string workload = r.str();
    std::string target = r.str();
    double rate = r.f64();
    bool mitigated = r.b();
    std::uint64_t seed = r.u64();
    std::uint32_t dims = r.u32();
    std::uint32_t scrub = r.u32();
    if (workload != profile.workload() ||
        target != targetName(opts.injector.target) ||
        rate != opts.injector.ratePerInterval ||
        mitigated != opts.injector.mitigated ||
        seed != opts.injector.seed || dims != opts.dims ||
        scrub != opts.scrubEvery)
        tpcp_raise("resilience checkpoint ", path,
                   " was taken under different campaign options "
                   "(workload '",
                   workload, "', target '", target, "', rate ", rate,
                   ")");
    tracker.loadState(r);
    injector.loadState(r);
    loadStats(r, faulty);
    if (!r.atEnd())
        tpcp_raise("resilience checkpoint ", path, ": ",
                   r.remaining(), " trailing payload bytes");
    return faulty.phases.size();
}

void
measureAdapt(const trace::IntervalProfile &profile,
             const ResilienceOptions &opts,
             const std::vector<PhaseId> &base_phases,
             const std::vector<PhaseId> &faulty_phases,
             ResilienceReport &report)
{
    adapt::ConfigLattice lattice =
        adapt::ConfigLattice::byName(opts.adaptLattice);
    adapt::PolicyPreset preset =
        adapt::policyPresetByName("greedy");
    trace::ProfileOptions base;
    base.intervalLen = profile.intervalLength();
    base.coreName = profile.coreName();
    std::vector<trace::IntervalProfile> lattice_profiles =
        adapt::buildLatticeProfiles(profile.workload(), lattice,
                                    base);
    adapt::AdaptReport clean = adapt::runAdaptation(
        profile.workload(), preset, lattice, lattice_profiles,
        base_phases);
    adapt::AdaptReport faulted = adapt::runAdaptation(
        profile.workload(), preset, lattice, lattice_profiles,
        faulty_phases);
    report.adaptMeasured = true;
    report.adaptOracleFracBase = clean.oracleFraction();
    report.adaptOracleFracFaulty = faulted.oracleFraction();
}

} // namespace

ResilienceReport
runResilience(const trace::IntervalProfile &profile,
              const ResilienceOptions &opts)
{
    bool have_dim = false;
    for (unsigned d : profile.dims())
        have_dim |= d == opts.dims;
    if (!have_dim)
        tpcp_raise("profile of '", profile.workload(),
                   "' was not recorded at ", opts.dims,
                   " accumulator counters");
    const std::size_t dim_idx = profile.dimIndex(opts.dims);
    const std::size_t n = profile.numIntervals();

    // Fault-free reference: cheap pure replay, recomputed on resume
    // instead of checkpointed.
    StreamStats base;
    {
        pred::PhaseTracker tracker(trackerConfig(opts));
        for (std::size_t i = 0; i < n; ++i) {
            const trace::IntervalRecord &rec = profile.interval(i);
            step(tracker, rec.accums[dim_idx], rec.accumTotal,
                 rec.cpi, base);
        }
        finishLengths(tracker, base);
    }

    // Faulty run, resumable from a harness checkpoint.
    pred::PhaseTracker tracker(trackerConfig(opts));
    Injector injector(opts.injector, profile.workload());
    StreamStats faulty;
    std::uint64_t start = 0;
    if (opts.resume) {
        if (opts.checkpointPath.empty())
            tpcp_raise("--resume needs a checkpoint path");
        start = loadHarnessCheckpoint(opts.checkpointPath, profile,
                                      opts, tracker, injector,
                                      faulty);
    }

    ResilienceReport report;
    report.workload = profile.workload();
    report.target = targetName(opts.injector.target);
    report.rate = opts.injector.ratePerInterval;
    report.mitigated = opts.injector.mitigated;

    std::vector<std::uint32_t> raw;
    for (std::uint64_t i = start; i < n; ++i) {
        const trace::IntervalRecord &rec = profile.interval(i);
        raw = rec.accums[dim_idx];
        double cpi = rec.cpi;
        injector.beforeInterval(tracker, raw, cpi);
        step(tracker, raw, rec.accumTotal, cpi, faulty);
        if (opts.checkpointAt != 0 && i + 1 == opts.checkpointAt &&
            i + 1 < n) {
            saveHarnessCheckpoint(opts.checkpointPath, profile, opts,
                                  tracker, injector, faulty);
            report.checkpointed = true;
            break;
        }
    }
    if (!report.checkpointed)
        finishLengths(tracker, faulty);

    report.intervals = faulty.phases.size();
    for (std::size_t i = 0; i < faulty.phases.size(); ++i)
        if (faulty.phases[i] == base.phases[i])
            ++report.agreeingIntervals;
    report.faults = injector.counts();
    report.nextPhaseAccBase = base.nextAcc();
    report.nextPhaseAccFaulty = faulty.nextAcc();
    report.changeAccBase = base.changeAcc();
    report.changeAccFaulty = faulty.changeAcc();
    report.lengthAccBase = base.lengthAcc();
    report.lengthAccFaulty = faulty.lengthAcc();

    const phase::ClassifierStats &cs =
        tracker.classifier().stats();
    report.repairs = cs.repairs;
    report.quarantines = cs.quarantines;
    report.eccCorrections =
        tracker.classifier().table().eccCorrections();
    report.rejectedCpiSamples = cs.rejectedCpiSamples;

    if (opts.withAdapt && !report.checkpointed)
        measureAdapt(profile, opts, base.phases, faulty.phases,
                     report);
    return report;
}

std::string
toJson(const ResilienceReport &r)
{
    return json::Object()
        .field("workload", r.workload)
        .field("target", r.target)
        .field("rate", r.rate)
        .field("mitigated", r.mitigated)
        .field("intervals", r.intervals)
        .field("faults_total", r.faults.total())
        .field("faults_accum", r.faults.accumFlips)
        .field("faults_signature", r.faults.signatureFlips)
        .field("faults_metadata", r.faults.metadataFaults)
        .field("faults_change_table", r.faults.changeTableFaults)
        .field("faults_length_table", r.faults.lengthTableFaults)
        .field("faults_input", r.faults.inputFaults)
        .field("agreeing_intervals", r.agreeingIntervals)
        .field("agreement", r.agreement())
        .field("next_phase_acc_base", r.nextPhaseAccBase)
        .field("next_phase_acc_faulty", r.nextPhaseAccFaulty)
        .field("next_phase_delta", r.nextPhaseDelta())
        .field("change_acc_base", r.changeAccBase)
        .field("change_acc_faulty", r.changeAccFaulty)
        .field("change_delta", r.changeDelta())
        .field("length_acc_base", r.lengthAccBase)
        .field("length_acc_faulty", r.lengthAccFaulty)
        .field("length_delta", r.lengthDelta())
        .field("repairs", r.repairs)
        .field("quarantines", r.quarantines)
        .field("ecc_corrections", r.eccCorrections)
        .field("rejected_cpi_samples", r.rejectedCpiSamples)
        .field("adapt_measured", r.adaptMeasured)
        .field("adapt_oracle_frac_base", r.adaptOracleFracBase)
        .field("adapt_oracle_frac_faulty", r.adaptOracleFracFaulty)
        .field("adapt_oracle_delta", r.adaptOracleDelta())
        .field("checkpointed", r.checkpointed)
        .str();
}

} // namespace tpcp::fault
