/**
 * @file
 * serve_churn: the open-loop service under tenant churn.
 *
 * A seeded generator offers kRate packets per second on a fixed
 * schedule (evenly spaced due times) to 512 tenants — 8x the 64
 * resident slots of the one partition — whose popularity is
 * Zipf-skewed (a 10 s run touches about 240 of them). Tenants idle
 * for kEvictAfter packets are evicted to checkpoints (state_io
 * writes) and resumed from them on their next packet (state_io
 * reads); about 5% of packets take that path. The share is kept
 * small on purpose: each checkpoint write is a file create and
 * rename whose cost is set by the disk, so with more of them the
 * latency percentiles would measure the disk, not the service (the
 * per-layer metrics time eviction and resume themselves). Fairness
 * is on (token bucket +
 * DRR, sized so nothing sheds at this rate), so every frame goes
 * through the FlowScheduler. The loop is single-threaded and
 * lockstep: push whatever is due, run one ServiceLoop::runCycle(),
 * match deliveries per tenant through tenantCounters(t).packets.
 * Each packet's latency runs from its due time to the end of the
 * cycle that delivered it, so a late generator or a slow cycle
 * counts against the packets behind it.
 *
 * Checks: the conservation identity, no lost or refused packet,
 * evictions and resumes both happened, and every tenant's phase-ID
 * stream is byte-identical to batchPhaseStream() over the packets it
 * was sent.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "serve/packet.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace tpcp;

constexpr unsigned kTenants = 512;
constexpr unsigned kResident = 64;
/** Idle tenants are evicted after this many packets without one for
 * them; with this skew no more than about 50 stay resident, so
 * eviction is idle-driven, never forced by a full registry. */
constexpr std::uint64_t kEvictAfter = 500;
constexpr double kZipfExponent = 1.8;
/** Skewed packets of the untimed warm-up, after one packet for every
 * tenant: enough for residency to settle, so the timed window starts
 * in the service's steady state (every tenant known, the idle ones
 * checkpointed). */
constexpr std::size_t kWarmupPackets = 2 * kEvictAfter;
/** Offered load, packets per second. */
constexpr double kRate = 1000.0;
constexpr unsigned kStreams = 8;
constexpr std::size_t kStreamLen = 4096;

serve::FairnessConfig
fairness()
{
    serve::FairnessConfig f;
    f.ratePerCycle = 4;
    f.burst = 64;
    f.drrQuantum = 16;
    f.maxBacklog = 4096;
    return f;
}

struct Inputs
{
    pred::PhaseTrackerConfig tracker;
    std::vector<serve::EncodedStream> streams;
    /** Tenants of the untimed warm-up packets, in push order. */
    std::vector<std::uint32_t> warmup;
    /** Tenant of each scheduled packet, in due order. */
    std::vector<std::uint32_t> schedule;
};

Inputs
makeInputs(std::uint64_t seed, double seconds)
{
    Inputs in;
    for (unsigned k = 0; k < kStreams; ++k)
        in.streams.push_back(serve::encodeSyntheticStream(
            (seed << 8) + k, kStreamLen,
            in.tracker.classifier.numCounters));
    // Zipf over a seeded permutation of the tenants.
    Rng rng(seed, 0xc4u);
    std::vector<std::uint32_t> rank(kTenants);
    for (unsigned i = 0; i < kTenants; ++i)
        rank[i] = i;
    for (unsigned i = kTenants - 1; i > 0; --i)
        std::swap(rank[i], rank[rng.nextBounded(i + 1)]);
    std::vector<double> cdf(kTenants);
    double sum = 0.0;
    for (unsigned i = 0; i < kTenants; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
        cdf[i] = sum;
    }
    auto draw = [&] {
        const double u = rng.nextDouble() * sum;
        const auto at = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return rank[std::min<std::size_t>(at, kTenants - 1)];
    };
    in.warmup = rank;
    for (std::size_t i = 0; i < kWarmupPackets; ++i)
        in.warmup.push_back(draw());
    const auto n = static_cast<std::size_t>(kRate * seconds);
    in.schedule.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        in.schedule.push_back(draw());
    return in;
}

const std::vector<std::uint8_t> &
frameOf(const Inputs &in, std::uint64_t tenant, std::uint64_t seq)
{
    return in.streams[tenant % kStreams][seq % kStreamLen];
}

serve::ServeOptions
serveOptions(const Inputs &in, const std::string &ckpt)
{
    serve::ServeOptions o;
    o.registry.tracker = in.tracker;
    o.registry.maxResident = kResident;
    o.registry.evictAfter = kEvictAfter;
    o.registry.checkpointDir = ckpt;
    o.registry.recordPhases = true;
    o.fairness = fairness();
    o.producers = 1;
    o.jobs = 1;
    return o;
}

/** ServiceLoop::runCycle() for one partition with fairness on,
 * mirrored from the layers' public functions under spans. */
class MirrorLoop
{
  public:
    explicit MirrorLoop(const serve::ServeOptions &o)
        : opts_(o), ring_(o.ringBytes), registry_(o.registry),
          sched_(o.fairness)
    {
    }

    serve::SpscRing &ring() { return ring_; }
    const serve::TenantRegistry &registry() const { return registry_; }

    std::size_t
    runCycle()
    {
        Span root("bench.cycle");
        std::size_t activity = 0;
        for (std::size_t n = 0; n < opts_.drainBatch; ++n) {
            bool popped;
            {
                Span s("serve.ring.pop");
                popped = ring_.tryPop(frame_);
            }
            if (!popped)
                break;
            ++activity;
            std::uint64_t tenant = 0;
            bool ok;
            {
                Span s("serve.packet.peek");
                ok = serve::peekPacketTenant(frame_.data(), frame_.size(),
                                             tenant);
            }
            if (!ok) {
                ++malformed;
                continue;
            }
            bool staged;
            {
                Span s("serve.flow_sched.stage");
                staged = sched_.stage(tenant, frame_.data(), frame_.size());
            }
            if (!staged)
                registry_.noteShed(tenant);
        }
        {
            Span s("serve.flow_sched.begin_cycle");
            sched_.beginCycle();
        }
        {
            Span s("serve.flow_sched.drain");
            activity += sched_.drain(
                opts_.drainBatch,
                [this](std::uint64_t tenant,
                       const std::vector<std::uint8_t> &f) {
                    deliver(tenant, f);
                });
        }
        const std::uint64_t before = registry_.counters().evictions;
        const auto t0 = Clock::now();
        {
            Span s("serve.registry.evict_idle");
            registry_.evictIdle();
        }
        const std::uint64_t evicted =
            registry_.counters().evictions - before;
        if (evicted != 0) {
            evictNs += std::chrono::duration<double, std::nano>(
                           Clock::now() - t0)
                           .count();
            evictions += evicted;
        }
        return activity;
    }

    /** Forgets the eviction and delivery times taken so far. */
    void
    clearTimes()
    {
        evictNs = 0.0;
        evictions = 0;
        plainDeliverNs.clear();
        resumeDeliverNs = 0.0;
        resumes = 0;
    }

    std::uint64_t malformed = 0;
    std::uint64_t rejected = 0;
    /** Time in evictIdle() calls that evicted, and their evictions. */
    double evictNs = 0.0;
    std::uint64_t evictions = 0;
    /** deliverPacket() times, split by whether the call resumed the
     * tenant from its checkpoint. */
    std::vector<double> plainDeliverNs;
    double resumeDeliverNs = 0.0;
    std::uint64_t resumes = 0;

  private:
    void
    deliver(std::uint64_t tenant, const std::vector<std::uint8_t> &f)
    {
        try {
            Span s("serve.packet.decode");
            serve::decodePacket(f.data(), f.size(), pkt_);
        } catch (const Error &) {
            ++malformed;
            registry_.noteMalformed(tenant);
            return;
        }
        const std::uint64_t before = registry_.counters().resumes;
        const auto t0 = Clock::now();
        try {
            Span s("serve.registry.deliver");
            registry_.deliverPacket(pkt_);
        } catch (const Error &) {
            ++rejected;
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        if (registry_.counters().resumes != before) {
            resumeDeliverNs += ns;
            ++resumes;
        } else {
            plainDeliverNs.push_back(ns);
        }
    }

    serve::ServeOptions opts_;
    serve::SpscRing ring_;
    serve::TenantRegistry registry_;
    serve::FlowScheduler sched_;
    std::vector<std::uint8_t> frame_;
    serve::IntervalPacket pkt_;
};

/** The real loop behind the interface the generator drives. */
struct RealLoop
{
    explicit RealLoop(const serve::ServeOptions &o) : loop(o) {}
    serve::SpscRing &ring() { return loop.ring(0); }
    const serve::TenantRegistry &registry() const
    {
        return loop.registry(0);
    }
    std::size_t runCycle() { return loop.runCycle(); }
    serve::ServiceLoop loop;
};

/** What the open loop observed. */
struct OpenLoopRun
{
    std::vector<double> latenciesUs;
    std::vector<double> genLagUs;
    std::uint64_t pushed = 0;
    std::uint64_t producerDrops = 0;
    std::size_t backlogEnd = 0;
    bool backlogGrew = false;
    /** Time inside runCycle() calls that did work, seconds. */
    double busySec = 0.0;
    double windowSec = 0.0;
    /** Packets delivered by the end of the window. */
    std::size_t windowDelivered = 0;
    /** Packets sent per tenant, warm-up included. */
    std::vector<std::uint64_t> sent;
    /** Of those, the warm-up's (all delivered before the window). */
    std::vector<std::uint64_t> warm;
};

/** Pushes one packet for @p tenant; false when the ring was full. */
template <typename Loop>
bool
push(const Inputs &in, Loop &loop, OpenLoopRun &run, std::uint64_t tenant)
{
    const std::uint64_t seq = run.sent[tenant]++;
    std::vector<std::uint8_t> frame = frameOf(in, tenant, seq);
    serve::restampPacket(frame.data(), tenant, seq);
    if (!loop.ring().tryPush(frame.data(),
                             static_cast<std::uint32_t>(frame.size()))) {
        ++run.producerDrops;
        return false;
    }
    ++run.pushed;
    return true;
}

/** The untimed warm-up: pushes in.warmup as fast as the service takes
 * it and drains it completely. */
template <typename Loop>
OpenLoopRun
warmUp(const Inputs &in, Loop &loop)
{
    OpenLoopRun run;
    run.sent.assign(kTenants, 0);
    for (std::uint32_t t : in.warmup)
        push(in, loop, run, t);
    while (loop.registry().counters().packets < run.pushed)
        loop.runCycle();
    run.warm = run.sent;
    return run;
}

/** The timed open loop, continuing @p run after the warm-up. */
template <typename Loop>
void
openLoop(const Inputs &in, Loop &loop, OpenLoopRun &run)
{
    DeliveryMatcher matcher;
    const std::size_t n = in.schedule.size();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kRate));
    std::vector<double> backlog_samples;
    const auto start = Clock::now();
    const auto due = [&](std::size_t i) {
        return start + period * static_cast<Clock::rep>(i);
    };
    const auto window_end = due(n);
    std::size_t next = 0;
    bool window_over = false;
    while (next < n || matcher.outstanding() > 0) {
        auto now = Clock::now();
        while (next < n && due(next) <= now) {
            const std::uint64_t t = in.schedule[next];
            if (push(in, loop, run, t))
                matcher.onDue(t, due(next));
            run.genLagUs.push_back(
                std::chrono::duration<double, std::micro>(now - due(next))
                    .count());
            ++next;
            if (next % (n / 8 + 1) == 0)
                backlog_samples.push_back(
                    static_cast<double>(matcher.outstanding()));
        }
        if (!window_over && now >= window_end) {
            window_over = true;
            run.backlogEnd = matcher.outstanding();
            run.windowSec = secondsBetween(start, now);
            run.windowDelivered = matcher.latenciesUs().size();
        }
        if (matcher.outstanding() == 0) {
            // Nothing in flight: wait for the next due time.
            continue;
        }
        const auto c0 = Clock::now();
        const std::size_t activity = loop.runCycle();
        const auto c1 = Clock::now();
        if (activity == 0)
            continue;
        run.busySec += secondsBetween(c0, c1);
        for (std::uint64_t t : matcher.pendingTenants())
            matcher.onDelivered(
                t, loop.registry().tenantCounters(t).packets - run.warm[t],
                c1);
    }
    if (!window_over) {
        run.windowSec = secondsBetween(start, Clock::now());
        run.windowDelivered = matcher.latenciesUs().size();
    }
    // A backlog that rises from the first eighth of the run to the
    // last marks an offered rate the service could not sustain.
    if (backlog_samples.size() >= 4)
        run.backlogGrew = backlog_samples.back() >
                          2.0 * backlog_samples.front() + 64.0;
    run.latenciesUs = matcher.latenciesUs();
}

void
checkService(const Inputs &in, const OpenLoopRun &run,
             const serve::TenantRegistry &reg, std::uint64_t malformed,
             std::uint64_t rejected, PassResult &r)
{
    const serve::RegistryCounters &rc = reg.counters();
    const ServeLosses losses{malformed, rejected, rc.shedPackets,
                             rc.quarantineDrops, run.producerDrops};
    const OpTally t = serveTally(run.pushed + run.producerDrops, losses);
    r.ops.add(t);
    if (t.attempted != in.warmup.size() + in.schedule.size() ||
        t.failed != 0 ||
        rc.packets + t.failed - run.producerDrops != run.pushed ||
        rc.lostUpstream != 0 || rc.resumeFailures != 0)
        r.errors.push_back("serve_churn: conservation violated: pushed " +
                           std::to_string(run.pushed) + ", delivered " +
                           std::to_string(rc.packets) + ", failed " +
                           std::to_string(t.failed));
    if (rc.evictions == 0 || rc.resumes == 0)
        r.errors.push_back("serve_churn: no eviction/resume happened");
    for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
        if (run.sent[tenant] == 0)
            continue;
        serve::EncodedStream sent;
        for (std::uint64_t seq = 0; seq < run.sent[tenant]; ++seq)
            sent.push_back(frameOf(in, tenant, seq));
        if (reg.phaseStream(tenant) !=
            serve::batchPhaseStream(sent, in.tracker)) {
            r.errors.push_back("serve_churn: tenant " +
                               std::to_string(tenant) +
                               " phase stream differs from the batch "
                               "path across evict/resume");
            break;
        }
    }
}

} // namespace

PassResult
runServeChurn(const PassConfig &cfg)
{
    PassResult r;
    const std::string ckpt = cfg.workDir + "/churn_checkpoints";
    Inputs in;
    std::vector<double> setups;
    for (int rep = 0; rep < setupRepeats(cfg); ++rep) {
        const double t0 = threadCpuSeconds();
        freshDir(ckpt);
        in = makeInputs(cfg.seed, cfg.seconds);
        setups.push_back(threadCpuSeconds() - t0);
    }
    if (!cfg.traced)
        addSetupMetric(r, setups);

    const serve::ServeOptions opts = serveOptions(in, ckpt);
    OpenLoopRun run;
    if (!cfg.traced) {
        RealLoop loop(opts);
        run = warmUp(in, loop);
        openLoop(in, loop, run);
        checkService(in, run, loop.registry(),
                     loop.loop.counters().malformedPackets,
                     loop.loop.counters().rejectedPackets, r);
    } else {
        MirrorLoop loop(opts);
        run = warmUp(in, loop);
        const serve::RegistryCounters warm = loop.registry().counters();
        loop.clearTimes();
        Tracer::reset();
        openLoop(in, loop, run);
        collectSpans(cfg, "serve_churn", r);
        checkService(in, run, loop.registry(), loop.malformed,
                     loop.rejected, r);
        const serve::RegistryCounters &rc = loop.registry().counters();
        const double frames = static_cast<double>(
            std::max<std::uint64_t>(rc.packets - warm.packets, 1));
        const double sched_ns =
            spanOf(r.spans, "serve.packet.peek").totalNs +
            spanOf(r.spans, "serve.flow_sched.stage").totalNs +
            spanOf(r.spans, "serve.flow_sched.begin_cycle").totalNs +
            spanOf(r.spans, "serve.flow_sched.drain").selfNs;
        r.metrics.push_back(
            {"serve.flow_sched.ns_per_frame", sched_ns / frames, "ns"});
        r.metrics.push_back(
            {"serve.registry.evict_us",
             loop.evictNs / 1e3 /
                 static_cast<double>(
                     std::max<std::uint64_t>(loop.evictions, 1)),
             "us"});
        const double plain = median(loop.plainDeliverNs);
        r.metrics.push_back(
            {"serve.registry.resume_us",
             (loop.resumeDeliverNs / static_cast<double>(std::max<
                                         std::uint64_t>(loop.resumes, 1)) -
              plain) /
                 1e3,
             "us"});
        r.metrics.push_back(
            {"serve.registry.evictions_per_kpkt",
             1000.0 * static_cast<double>(rc.evictions - warm.evictions) /
                 frames,
             "1/kpkt"});
        // Single thread: the busy cycles are the thread time.
        r.unattributedFrac =
            1.0 - attributedNs(r.spans) / (run.busySec * 1e9);
    }
    // Busy throughput (packets per second spent inside runCycle()),
    // the service-side rate traced and untraced passes compare.
    r.workPerSec = static_cast<double>(run.latenciesUs.size()) /
                   std::max(run.busySec, 1e-9);

    std::vector<double> lag = run.genLagUs;
    const LatencySummary lag_s = summarizeLatency(lag);
    note("serve_churn: " + std::to_string(in.schedule.size()) +
         " packets offered at " + fullDouble(kRate) +
         " 1/s to " + std::to_string(kTenants) + " tenants over " +
         fullDouble(run.windowSec) + " s; generator lag p" +
         fullDouble(lag_s.tail.q * 100) + " " +
         fullDouble(lag_s.tailValue) + " us; backlog at end " +
         std::to_string(run.backlogEnd));
    if (run.backlogGrew)
        note("serve_churn: WARNING backlog grew during the run: the "
             "offered rate is above what the service sustained");

    if (!cfg.traced) {
        // Open loop: what users see is the delivered rate, which
        // stays at the offered rate while the service keeps up.
        r.metrics.push_back({"work_per_s",
                             static_cast<double>(run.windowDelivered) /
                                 run.windowSec,
                             "1/s"});
        std::vector<Request> requests;
        for (double us : run.latenciesUs)
            requests.push_back({us, 1.0});
        addRequestMetrics(r, requests, "packet due-to-phase-ID", false);
        return r;
    }
    r.metrics.push_back(
        {"serve.churn.gen_lag_ms", lag_s.tailValue / 1e3, "ms"});
    std::vector<double> lat = run.latenciesUs;
    r.metrics.push_back(
        {"serve.churn.p99_us", summarizeLatency(lat).tailValue, "us"});
    r.metrics.push_back({"serve.churn.backlog_end",
                         static_cast<double>(run.backlogEnd), "count"});
    r.metrics.push_back({"serve.churn.backlog_grew",
                         run.backlogGrew ? 1.0 : 0.0, "count"});
    r.metrics.push_back({"serve.churn.busy_pkts_per_s", r.workPerSec,
                         "1/s"});
    return r;
}

} // namespace perfbench
