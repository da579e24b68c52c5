/**
 * @file
 * serve_steady: the closed-loop multi-tenant service.
 *
 * One request is a round: a fresh ServiceLoop with 2 partitions and
 * 2 pool workers, fed by 2 runProducer() threads (Park policy) that
 * replay kPacketsPerTenant seeded synthetic packets to each of 256
 * tenants, all resident, FIFO drain (zero FairnessConfig); the
 * round ends when ServiceLoop::run() has drained everything, and
 * the next round starts only then. Every round checks the packet
 * conservation identity and that every tenant's phase-ID stream is
 * byte-identical to batchPhaseStream() over the same packets.
 *
 * The traced pass runs a few real rounds for the service's own
 * counters (drain cycles, producer parks), then mirrors
 * ServiceLoop::run() and runProducer() from the layers' public
 * functions — SpscRing::tryPush/tryPop, decodePacket,
 * TenantRegistry::deliverPacket — with a span around each call.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "serve/packet.hh"
#include "serve/producer.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace tpcp;

constexpr unsigned kTenants = 256;
constexpr unsigned kProducers = 2;
constexpr unsigned kJobs = 2;
constexpr unsigned kStreams = 8;
constexpr std::size_t kPacketsPerTenant = 200;
/** Real rounds a traced pass runs for the service's counters. */
constexpr int kCounterRounds = 3;

struct Inputs
{
    pred::PhaseTrackerConfig tracker;
    std::vector<serve::EncodedStream> streams;
    std::vector<std::vector<PhaseId>> reference;
};

/** The tenant streams (the batch references are filled in later,
 * outside the set-up time: they are the checks' cost, not the
 * service's). */
Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    for (unsigned k = 0; k < kStreams; ++k)
        in.streams.push_back(serve::encodeSyntheticStream(
            seed * kStreams + k, kPacketsPerTenant,
            in.tracker.classifier.numCounters));
    return in;
}

const serve::EncodedStream &
streamOf(const Inputs &in, std::uint64_t tenant)
{
    return in.streams[tenant % kStreams];
}

serve::ServeOptions
serveOptions(const Inputs &in)
{
    serve::ServeOptions o;
    o.registry.tracker = in.tracker;
    o.registry.maxResident = kTenants / kProducers;
    o.registry.recordPhases = true;
    o.producers = kProducers;
    o.jobs = kJobs;
    return o;
}

/** Tenants of producer @p p (the CLI's id % producers mapping). */
std::vector<std::uint64_t>
tenantsOf(unsigned p)
{
    std::vector<std::uint64_t> ids;
    for (std::uint64_t t = p; t < kTenants; t += kProducers)
        ids.push_back(t);
    return ids;
}

/** Counts and outputs of one round, for the checks. */
struct RoundOutcome
{
    std::uint64_t pushed = 0;
    serve::ServeCounters sc;
    std::uint64_t producerDrops = 0;
    std::uint64_t parks = 0;
};

void
checkRound(const RoundOutcome &o, PassResult &r)
{
    const serve::ServeCounters &sc = o.sc;
    const ServeLosses losses{sc.malformedPackets, sc.rejectedPackets,
                             sc.shedPackets, sc.quarantineDrops,
                             o.producerDrops};
    const OpTally t = serveTally(o.pushed + o.producerDrops, losses);
    r.ops.add(t);
    const std::uint64_t consumer_losses = t.failed - o.producerDrops;
    // Park producers lose nothing and this traffic is well formed, so
    // every term but delivered must be zero.
    if (t.attempted != std::uint64_t{kTenants} * kPacketsPerTenant ||
        sc.packets + consumer_losses != o.pushed ||
        sc.lostUpstream != 0 || t.failed != 0)
        r.errors.push_back(
            "serve_steady: conservation violated: pushed " +
            std::to_string(o.pushed) + ", delivered " +
            std::to_string(sc.packets) + ", failed " +
            std::to_string(t.failed));
}

/** One real round; returns its duration (loop construction and the
 * checks excluded). */
double
realRound(const Inputs &in, RoundOutcome &out, PassResult &r)
{
    serve::ServiceLoop loop(serveOptions(in));
    std::vector<serve::ProducerTask> tasks(kProducers);
    for (unsigned p = 0; p < kProducers; ++p) {
        tasks[p].ring = &loop.ring(p);
        tasks[p].policy = serve::BackpressurePolicy::Park;
        tasks[p].tenants = tenantsOf(p);
        for (std::uint64_t t : tasks[p].tenants)
            tasks[p].streams.push_back(&streamOf(in, t));
    }
    std::vector<serve::ProducerCounters> pcs(kProducers);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p)
        threads.emplace_back([&, p] {
            pcs[p] = serve::runProducer(tasks[p]);
            loop.producerDone(p);
        });
    loop.run();
    for (std::thread &th : threads)
        th.join();
    const double sec = secondsBetween(t0, Clock::now());

    out = RoundOutcome{};
    for (const serve::ProducerCounters &c : pcs) {
        out.pushed += c.pushed;
        out.producerDrops += c.dropped;
        out.parks += c.parkEvents;
    }
    out.sc = loop.counters();
    checkRound(out, r);
    for (std::uint64_t t = 0; t < kTenants; ++t)
        if (loop.phaseStream(t) != in.reference[t % kStreams]) {
            r.errors.push_back("serve_steady: tenant " +
                               std::to_string(t) +
                               " phase stream differs from the batch "
                               "path");
            break;
        }
    return sec;
}

/** ServiceLoop::run() and runProducer() mirrored from the layers'
 * public functions, a span around each call. */
class MirrorRound
{
  public:
    explicit MirrorRound(const Inputs &in) : in_(in), pool_(kJobs)
    {
        const serve::ServeOptions o = serveOptions(in);
        for (unsigned p = 0; p < kProducers; ++p)
            parts_.push_back(std::make_unique<Part>(o));
    }

    /** Runs the round; returns its duration. */
    double
    run(RoundOutcome &out)
    {
        std::vector<std::uint64_t> pushed(kProducers, 0),
            parks(kProducers, 0);
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < kProducers; ++p)
            threads.emplace_back([&, p] {
                produce(*parts_[p], tenantsOf(p), pushed[p], parks[p]);
                parts_[p]->done.store(true, std::memory_order_release);
            });
        drainAll();
        for (std::thread &th : threads)
            th.join();
        const double sec = secondsBetween(t0, Clock::now());
        out = RoundOutcome{};
        for (unsigned p = 0; p < kProducers; ++p) {
            out.pushed += pushed[p];
            out.parks += parks[p];
            const serve::RegistryCounters &rc =
                parts_[p]->registry.counters();
            out.sc.packets += rc.packets;
            out.sc.lostUpstream += rc.lostUpstream;
            out.sc.shedPackets += rc.shedPackets;
            out.sc.quarantineDrops += rc.quarantineDrops;
            out.sc.malformedPackets += parts_[p]->malformed;
            out.sc.rejectedPackets += parts_[p]->rejected;
        }
        out.sc.drainCycles = cycles_;
        return sec;
    }

    const std::vector<PhaseId> &
    phaseStream(std::uint64_t tenant) const
    {
        return parts_[tenant % kProducers]->registry.phaseStream(tenant);
    }

  private:
    struct Part
    {
        explicit Part(const serve::ServeOptions &o)
            : ring(o.ringBytes), registry(o.registry)
        {
        }
        serve::SpscRing ring;
        serve::TenantRegistry registry;
        std::atomic<bool> done{false};
        std::size_t drained = 0;
        std::uint64_t malformed = 0;
        std::uint64_t rejected = 0;
        std::vector<std::uint8_t> frame;
        serve::IntervalPacket pkt;
    };

    void
    produce(Part &part, const std::vector<std::uint64_t> &tenants,
            std::uint64_t &pushed, std::uint64_t &parks)
    {
        Span root("bench.producer");
        std::vector<std::uint8_t> frame;
        for (std::size_t step = 0; step < kPacketsPerTenant; ++step)
            for (std::uint64_t t : tenants) {
                {
                    Span s("serve.producer.restamp");
                    frame = streamOf(in_, t)[step];
                    serve::restampPacket(frame.data(), t, step);
                }
                const auto len = static_cast<std::uint32_t>(frame.size());
                bool ok;
                {
                    Span s("serve.ring.push");
                    ok = part.ring.tryPush(frame.data(), len);
                }
                if (!ok)
                    park(part, frame, parks);
                ++pushed;
            }
    }

    /** runProducer()'s park on a full ring (parkPush(): yields,
     * then doubling sleeps, the lossless default budget). The wait
     * belongs to no layer, so its span is the benchmark's own. */
    static void
    park(Part &part, const std::vector<std::uint8_t> &frame,
         std::uint64_t &parks)
    {
        Span s("bench.producer_park");
        const serve::ProducerTask policy;
        const auto len = static_cast<std::uint32_t>(frame.size());
        std::uint64_t retries = 0;
        std::uint64_t sleep_us = policy.parkSleepUs;
        do {
            ++parks;
            if (++retries <= policy.parkYields) {
                std::this_thread::yield();
            } else {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(sleep_us));
                sleep_us = std::min(policy.parkMaxSleepUs, sleep_us * 2);
            }
        } while (!part.ring.tryPush(frame.data(), len));
    }

    void
    drainOne(Part &p)
    {
        Span root("bench.drain_task");
        p.drained = 0;
        for (std::size_t n = 0; n < serve::ServeOptions{}.drainBatch;
             ++n) {
            bool popped;
            {
                Span s("serve.ring.pop");
                popped = p.ring.tryPop(p.frame);
            }
            if (!popped)
                break;
            ++p.drained;
            try {
                Span s("serve.packet.decode");
                serve::decodePacket(p.frame.data(), p.frame.size(),
                                    p.pkt);
            } catch (const Error &) {
                ++p.malformed;
                continue;
            }
            try {
                Span s("serve.registry.deliver");
                p.registry.deliverPacket(p.pkt);
            } catch (const Error &) {
                ++p.rejected;
            }
        }
        Span s("serve.registry.evict_idle");
        p.registry.evictIdle();
    }

    void
    drainAll()
    {
        while (true) {
            for (auto &part : parts_) {
                Part *p = part.get();
                pool_.submit([this, p] { drainOne(*p); });
            }
            pool_.wait();
            ++cycles_;
            std::size_t drained = 0;
            bool finished = true;
            for (auto &part : parts_) {
                drained += part->drained;
                if (!part->done.load(std::memory_order_acquire) ||
                    !part->ring.empty())
                    finished = false;
            }
            if (finished && drained == 0)
                break;
            if (drained == 0)
                std::this_thread::yield();
        }
    }

    const Inputs &in_;
    std::vector<std::unique_ptr<Part>> parts_;
    std::uint64_t cycles_ = 0;
    ThreadPool pool_;
};

/** The batch reference replay under spans: the tracker's own cost
 * per interval, outside any service machinery. */
double
trackerNsPerInterval(const Inputs &in, PassResult &r)
{
    Tracer::reset();
    serve::IntervalPacket pkt;
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kStreams; ++k) {
        pred::PhaseTracker tracker(in.tracker);
        std::vector<PhaseId> out;
        for (const auto &frame : in.streams[k]) {
            serve::decodePacket(frame.data(), frame.size(), pkt);
            Span s("pred.tracker");
            out.push_back(tracker
                              .onIntervalRaw(pkt.counters.data(),
                                             pkt.counters.size(),
                                             pkt.total, pkt.cpi)
                              .classification.phase);
            ++n;
        }
        if (out != in.reference[k])
            r.errors.push_back("serve_steady: tracker replay differs "
                               "from batchPhaseStream");
    }
    return spanOf(Tracer::summary(), "pred.tracker").totalNs /
           static_cast<double>(std::max<std::uint64_t>(n, 1));
}

} // namespace

PassResult
runServeSteady(const PassConfig &cfg)
{
    PassResult r;
    Inputs in;
    std::vector<double> setups;
    // Set-up: encode the streams and start a service (partitions,
    // rings, pool), as every round does before its clock starts.
    for (int rep = 0; rep < setupRepeats(cfg); ++rep) {
        const double t0 = threadCpuSeconds();
        in = makeInputs(cfg.seed);
        serve::ServiceLoop loop(serveOptions(in));
        setups.push_back(threadCpuSeconds() - t0);
    }
    if (!cfg.traced)
        addSetupMetric(r, setups);
    for (const serve::EncodedStream &s : in.streams)
        in.reference.push_back(serve::batchPhaseStream(s, in.tracker));

    std::vector<Request> requests;
    double busy = 0.0;
    std::uint64_t delivered = 0, parks = 0, cycles = 0, counted = 0;
    int rounds = 0;
    RoundOutcome o;
    const auto start = Clock::now();
    if (cfg.traced) {
        for (int i = 0; i < kCounterRounds; ++i) {
            realRound(in, o, r);
            parks += o.parks;
            cycles += o.sc.drainCycles;
            counted += o.sc.packets;
        }
        Tracer::reset();
    }
    do {
        double sec;
        if (cfg.traced) {
            MirrorRound mirror(in);
            sec = mirror.run(o);
            checkRound(o, r);
            for (std::uint64_t t = 0; t < kTenants; ++t)
                if (mirror.phaseStream(t) != in.reference[t % kStreams]) {
                    r.errors.push_back("serve_steady: mirrored tenant " +
                                       std::to_string(t) +
                                       " differs from the batch path");
                    break;
                }
        } else {
            sec = realRound(in, o, r);
        }
        requests.push_back({sec * 1e6, static_cast<double>(o.sc.packets)});
        busy += sec;
        delivered += o.sc.packets;
        ++rounds;
    } while (secondsBetween(start, Clock::now()) < cfg.seconds);
    r.workPerSec = static_cast<double>(delivered) / busy;
    note("serve_steady: " + std::to_string(rounds) + " rounds of " +
         std::to_string(kTenants) + " tenants x " +
         std::to_string(kPacketsPerTenant) + " packets");
    note("serve_steady: serve_pkts_per_s " + fullDouble(r.workPerSec) +
         " 1/s");

    if (!cfg.traced) {
        addRequestMetrics(r, requests, "closed-loop round", true);
        return r;
    }

    collectSpans(cfg, "serve_steady", r);
    // Thread time: 2 producers and 2 drain workers over each round.
    const double lanes = kProducers + kJobs;
    r.unattributedFrac =
        1.0 - attributedNs(r.spans) / (busy * 1e9 * lanes);
    const double frames =
        static_cast<double>(std::max<std::uint64_t>(delivered, 1));
    r.metrics.push_back(
        {"serve.ring.ns_per_frame",
         (spanOf(r.spans, "serve.ring.push").totalNs +
          spanOf(r.spans, "serve.ring.pop").totalNs) /
             frames,
         "ns"});
    const SpanAggregate decode = spanOf(r.spans, "serve.packet.decode");
    const SpanAggregate deliver =
        spanOf(r.spans, "serve.registry.deliver");
    r.metrics.push_back(
        {"serve.packet.decode_ns",
         decode.totalNs / static_cast<double>(std::max<std::uint64_t>(
                              decode.count, 1)),
         "ns"});
    r.metrics.push_back(
        {"serve.registry.deliver_ns",
         deliver.totalNs / static_cast<double>(std::max<std::uint64_t>(
                               deliver.count, 1)),
         "ns"});
    const double kpkt =
        static_cast<double>(std::max<std::uint64_t>(counted, 1)) / 1000.0;
    r.metrics.push_back({"serve.drain.cycles_per_kpkt",
                         static_cast<double>(cycles) / kpkt,
                         "1/kpkt"});
    r.metrics.push_back({"serve.producer.parks_per_kpkt",
                         static_cast<double>(parks) / kpkt, "1/kpkt"});
    r.metrics.push_back({"pred.tracker.ns_per_interval",
                         trackerNsPerInterval(in, r), "ns"});
    return r;
}

} // namespace perfbench
