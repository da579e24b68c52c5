/**
 * @file
 * sim_cold: cold interval-profile builds, the simulator-bound cost
 * of `tpcp profile all`.
 *
 * One request is what getProfile() does on a cache miss — build the
 * timing core, expand the schedule, simulate with the interval
 * profiler attached, save the profile into an empty cache directory
 * — for one workload capped at kCapInsts instructions (getProfile
 * itself has no cap, so the request repeats its miss path
 * statement for statement). A pass is mcf, gcc/1 and perl/d on the
 * "ooo" core plus gzip/g and mcf on "simple"; passes repeat until
 * the time is up and every pass must reproduce the first one's
 * profiles exactly. Modelled caches start empty in every request, as
 * in the real pipeline. The pass has five requests, an odd number, so
 * the median request falls inside one workload's cluster of times
 * (gcc/1 on "ooo") instead of on the edge between two. A request is
 * timed in the driver thread's CPU time: it runs on that thread alone
 * and waits for nothing.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "trace/interval_profile.hh"
#include "trace/interval_profiler.hh"
#include "trace/profile_cache.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/simulator.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace tpcp;

/** Instructions simulated per request. */
constexpr InstCount kCapInsts = 500'000;
/** Commit window replayed by the per-instruction probes. */
constexpr std::size_t kWindowInsts = 300'000;

struct ProfileJob
{
    const char *workload;
    const char *core;
};

constexpr ProfileJob kJobs[] = {
    {"mcf", "ooo"},
    {"gcc/1", "ooo"},
    {"perl/d", "ooo"},
    {"gzip/g", "simple"},
    {"mcf", "simple"},
};

std::unique_ptr<uarch::TimingCore>
makeCore(const std::string &name)
{
    const uarch::MachineConfig m = uarch::MachineConfig::table1();
    if (name == "ooo")
        return std::make_unique<uarch::OooCore>(m);
    return std::make_unique<uarch::SimpleCore>(m);
}

/** Metric-name form of a workload on a core: "gcc/1" -> "gcc_1". */
std::string
tag(const ProfileJob &r)
{
    std::string s = r.workload;
    std::replace(s.begin(), s.end(), '/', '_');
    if (std::string(r.core) != "ooo")
        s += "_" + std::string(r.core);
    return s;
}

/** The simulator seed of @p wl under a run seed's mix. */
std::uint64_t
simSeed(const workload::Workload &wl, std::uint64_t seed_mix)
{
    return wl.seed ^ 0xabcdef12345ULL ^ seed_mix;
}

std::uint64_t
profileDigest(const trace::IntervalProfile &p)
{
    std::uint64_t h = fnv1a(p.workload().data(), p.workload().size());
    for (const trace::IntervalRecord &r : p.intervals()) {
        h = fnv1a(&r.cpi, sizeof(r.cpi), h);
        h = fnv1a(&r.insts, sizeof(r.insts), h);
        h = fnv1a(&r.accumTotal, sizeof(r.accumTotal), h);
        for (const auto &v : r.accums)
            h = fnv1a(v.data(), v.size() * sizeof(v[0]), h);
    }
    return h;
}

/** Simulated statistics of one request (exactly repeatable). */
struct SimStats
{
    std::uint64_t digest = 0;
    std::size_t intervals = 0;
    InstCount insts = 0;
    double cpi = 0.0;
    double bpredMpki = 0.0;
    double l1dMpki = 0.0;
    double l2Mpki = 0.0;

    bool
    operator==(const SimStats &o) const
    {
        return digest == o.digest && intervals == o.intervals &&
               insts == o.insts && cpi == o.cpi &&
               bpredMpki == o.bpredMpki && l1dMpki == o.l1dMpki &&
               l2Mpki == o.l2Mpki;
    }
};

SimStats
statsOf(const uarch::TimingCore &core,
        const trace::IntervalProfile &p)
{
    SimStats s;
    s.digest = profileDigest(p);
    s.intervals = p.numIntervals();
    s.insts = core.stats().insts;
    const double kinst = static_cast<double>(s.insts) / 1000.0;
    s.cpi = core.stats().cpi(core.cycles());
    if (const auto *bp = core.directionPredictor())
        s.bpredMpki = static_cast<double>(bp->stats().mispredicts) /
                      kinst;
    if (const auto *h = core.memoryHierarchy()) {
        s.l1dMpki =
            static_cast<double>(h->dcache().stats().misses) / kinst;
        s.l2Mpki =
            static_cast<double>(h->l2cache().stats().misses) / kinst;
    }
    return s;
}

/** Records @p s, the statistics of job @p i, under @p prefix. */
void
addDigests(PassResult &r, const std::string &prefix, std::size_t i,
           const SimStats &s)
{
    const std::string t = tag(kJobs[i]);
    r.digests[prefix + "profile." + t] = hex64(s.digest);
    r.digests[prefix + "cpi." + t] = fullDouble(s.cpi);
    r.digests[prefix + "bpred_mpki." + t] = fullDouble(s.bpredMpki);
    r.digests[prefix + "l1d_mpki." + t] = fullDouble(s.l1dMpki);
    r.digests[prefix + "l2_mpki." + t] = fullDouble(s.l2Mpki);
}

/** Where job @p i saves its profile in @p cache_dir. */
std::string
jobPath(const workload::Workload &wl, std::size_t i,
        const std::string &cache_dir)
{
    trace::ProfileOptions o;
    o.coreName = kJobs[i].core;
    o.cacheDir = cache_dir;
    return trace::profileCachePath(wl.name, o);
}

/** One cold profile build of @p wl into @p path. With @p traced,
 * every layer call is wrapped in a span. */
SimStats
coldRequest(const workload::Workload &wl, const std::string &core_name,
            std::uint64_t sim_seed, const std::string &path,
            bool traced, std::vector<std::string> &errors)
{
    const trace::ProfileOptions opts;
    Span root("bench.request", traced);
    std::unique_ptr<uarch::TimingCore> core;
    std::unique_ptr<workload::ExpandedSchedule> schedule;
    {
        Span s("uarch.core_init", traced);
        core = makeCore(core_name);
    }
    {
        Span s("workload.schedule", traced);
        schedule = wl.makeSchedule();
    }
    uarch::Simulator sim(wl.program, *schedule, *core, sim_seed);
    trace::IntervalProfiler profiler(*core, wl.name, opts.intervalLen,
                                     opts.dims);
    sim.addSink(&profiler);
    {
        Span s("uarch.sim_run", traced);
        sim.run(kCapInsts);
    }
    trace::IntervalProfile profile = profiler.takeProfile();
    profile.setMachineHash(uarch::configHash(opts.machine));
    bool saved = false;
    {
        Span s("trace.profile_save", traced);
        saved = profile.save(path);
    }
    if (!saved)
        errors.push_back("could not save profile " + path);
    return statsOf(*core, profile);
}

/** A timing core that accounts nothing: isolates the execution
 * engine in Simulator::run. */
class NullCore : public uarch::TimingCore
{
  public:
    void consume(const uarch::DynInst &) override {}
    Cycles cycles() const override { return 0; }
    void reset() override {}
    std::string name() const override { return "null"; }
};

/** Records the first kWindowInsts committed instructions. */
class WindowRecorder : public uarch::TraceSink
{
  public:
    void
    onCommit(const uarch::DynInst &inst) override
    {
        if (window.size() < kWindowInsts)
            window.push_back(inst);
    }
    std::vector<uarch::DynInst> window;
};

/** Per-instruction layer probes over the ooo workloads (spans in
 * their own summary, outside the timed region). */
void
runProbes(const std::vector<workload::Workload> &wls,
          std::uint64_t seed_mix, PassResult &r)
{
    Tracer::reset();
    std::uint64_t exec_insts = 0;
    std::uint64_t window_insts = 0;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        if (std::string(kJobs[i].core) != "ooo")
            continue;
        const workload::Workload &wl = wls[i];
        const std::uint64_t sim_seed = simSeed(wl, seed_mix);
        {
            NullCore core;
            auto schedule = wl.makeSchedule();
            uarch::Simulator sim(wl.program, *schedule, core,
                                 sim_seed);
            Span s("uarch.exec");
            exec_insts += sim.run(kCapInsts);
        }
        WindowRecorder rec;
        {
            NullCore core;
            auto schedule = wl.makeSchedule();
            uarch::Simulator sim(wl.program, *schedule, core,
                                 sim_seed);
            sim.addSink(&rec);
            sim.run(kWindowInsts);
        }
        window_insts += rec.window.size();
        uarch::OooCore ooo(uarch::MachineConfig::table1());
        {
            Span s("uarch.ooo_core");
            for (const uarch::DynInst &d : rec.window)
                ooo.consume(d);
        }
        uarch::SimpleCore simple(uarch::MachineConfig::table1());
        {
            Span s("uarch.simple_core");
            for (const uarch::DynInst &d : rec.window)
                simple.consume(d);
        }
        const trace::ProfileOptions opts;
        trace::IntervalProfiler profiler(ooo, wl.name, opts.intervalLen,
                                         opts.dims);
        {
            Span s("trace.profiler");
            for (const uarch::DynInst &d : rec.window)
                profiler.onCommit(d);
            profiler.onFinish();
        }
    }
    const SpanSummary probes = Tracer::summary();
    auto perInst = [&](const char *span, std::uint64_t insts) {
        return spanOf(probes, span).totalNs /
               static_cast<double>(std::max<std::uint64_t>(insts, 1));
    };
    r.metrics.push_back({"uarch.exec.ns_per_inst",
                         perInst("uarch.exec", exec_insts), "ns"});
    r.metrics.push_back({"uarch.ooo_core.ns_per_inst",
                         perInst("uarch.ooo_core", window_insts), "ns"});
    r.metrics.push_back({"uarch.simple_core.ns_per_inst",
                         perInst("uarch.simple_core", window_insts),
                         "ns"});
    r.metrics.push_back({"trace.profiler.ns_per_inst",
                         perInst("trace.profiler", window_insts), "ns"});
}

} // namespace

PassResult
runSimCold(const PassConfig &cfg)
{
    PassResult r;
    const std::uint64_t seed_mix = fnv1a(&cfg.seed, sizeof(cfg.seed));

    // Set-up: build the workload models (repeated; median reported).
    std::vector<workload::Workload> wls;
    std::vector<double> setups;
    for (int rep = 0; rep < setupRepeats(cfg); ++rep) {
        const double t0 = threadCpuSeconds();
        std::vector<workload::Workload> built;
        for (const ProfileJob &req : kJobs)
            built.push_back(workload::makeWorkload(req.workload));
        setups.push_back(threadCpuSeconds() - t0);
        wls = std::move(built);
    }
    if (!cfg.traced)
        addSetupMetric(r, setups);

    const std::string cache_dir = cfg.workDir + "/sim_cold_cache";
    std::vector<SimStats> first;
    std::vector<Request> requests;
    double ooo_sec = 0.0, simple_sec = 0.0;
    InstCount ooo_insts = 0, simple_insts = 0, total_insts = 0;
    std::size_t passes = 0;

    if (cfg.traced)
        Tracer::reset();
    const auto start = Clock::now();
    do {
        freshDir(cache_dir);
        std::vector<SimStats> pass;
        for (std::size_t i = 0; i < wls.size(); ++i) {
            const ProfileJob &req = kJobs[i];
            const double t0 = threadCpuSeconds();
            SimStats s = coldRequest(wls[i], req.core,
                                     simSeed(wls[i], seed_mix),
                                     jobPath(wls[i], i, cache_dir),
                                     cfg.traced, r.errors);
            const double sec = threadCpuSeconds() - t0;
            requests.push_back({sec * 1e6, static_cast<double>(s.insts)});
            ++r.ops.attempted;
            if (std::string(req.core) == "ooo") {
                ooo_sec += sec;
                ooo_insts += s.insts;
            } else {
                simple_sec += sec;
                simple_insts += s.insts;
            }
            total_insts += s.insts;
            pass.push_back(s);
        }
        if (first.empty()) {
            first = pass;
        } else if (pass != first) {
            r.errors.push_back("sim_cold: pass " +
                               std::to_string(passes) +
                               " simulated different profiles");
        }
        ++passes;
    } while (secondsBetween(start, Clock::now()) < cfg.seconds);
    const double wall = secondsBetween(start, Clock::now());
    r.workPerSec = static_cast<double>(total_insts) / wall;

    // The saved files must load back to the same profiles.
    for (std::size_t i = 0; i < wls.size(); ++i) {
        trace::IntervalProfile back;
        if (!back.load(jobPath(wls[i], i, cache_dir)) ||
            profileDigest(back) != first[i].digest)
            r.errors.push_back(std::string("sim_cold: saved profile of ") +
                               kJobs[i].workload +
                               " does not load back identically");
        if (first[i].intervals == 0 || first[i].insts != kCapInsts)
            r.errors.push_back(std::string("sim_cold: ") +
                               kJobs[i].workload +
                               " simulated no full intervals");
    }
    for (std::size_t i = 0; i < wls.size(); ++i)
        addDigests(r, "", i, first[i]);
    // One untimed pass at the check seed, whose outputs are recorded
    // for every run seed: a model change fails the run on any seed.
    const std::uint64_t check_mix = fnv1a(&kCheckSeed, sizeof(kCheckSeed));
    for (std::size_t i = 0; i < wls.size(); ++i)
        addDigests(r, "fixed.", i,
                   coldRequest(wls[i], kJobs[i].core,
                               simSeed(wls[i], check_mix),
                               jobPath(wls[i], i, cache_dir), false,
                               r.errors));
    note("sim_cold: " + std::to_string(passes) + " passes of " +
         std::to_string(wls.size()) + " cold profile builds, " +
         std::to_string(kCapInsts) + " instructions each");
    note("sim_cold: sim_minst_per_s " +
         fullDouble(static_cast<double>(ooo_insts) / ooo_sec / 1e6) +
         " Minst/s (ooo), sim_simple_minst_per_s " +
         fullDouble(static_cast<double>(simple_insts) / simple_sec /
                    1e6) +
         " Minst/s (simple)");

    if (!cfg.traced) {
        addRequestMetrics(r, requests, "cold profile build", true);
        return r;
    }

    collectSpans(cfg, "sim_cold", r);
    r.unattributedFrac = 1.0 - attributedNs(r.spans) / (wall * 1e9);
    const SpanAggregate save = spanOf(r.spans, "trace.profile_save");
    r.metrics.push_back({"trace.profile_save_ms",
                         save.totalNs / 1e6 /
                             static_cast<double>(std::max<std::uint64_t>(
                                 save.count, 1)),
                         "ms"});
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const std::string t = tag(kJobs[i]);
        r.metrics.push_back({"uarch.sim_cpi." + t, first[i].cpi, "cycles/inst"});
        r.metrics.push_back(
            {"uarch.bpred_mpki." + t, first[i].bpredMpki, "1/kinst"});
        r.metrics.push_back(
            {"uarch.l1d_mpki." + t, first[i].l1dMpki, "1/kinst"});
        r.metrics.push_back(
            {"uarch.l2_mpki." + t, first[i].l2Mpki, "1/kinst"});
    }
    runProbes(wls, seed_mix, r);
    return r;
}

} // namespace perfbench
