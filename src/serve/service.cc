#include "serve/service.hh"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/json.hh"
#include "common/status.hh"
#include "fault/injector.hh"
#include "serve/migration.hh"
#include "serve/packet.hh"

namespace tpcp::serve
{

ServiceLoop::Partition::Partition(std::size_t ring_bytes,
                                  const RegistryConfig &rc,
                                  const FairnessConfig &fc)
    : ring(ring_bytes), registry(rc)
{
    if (fc.enabled())
        sched = std::make_unique<FlowScheduler>(fc);
}

ServiceLoop::ServiceLoop(const ServeOptions &options) : opts(options)
{
    tpcp_assert(opts.producers >= 1,
                "service needs at least one producer ring");
    tpcp_assert(opts.drainBatch >= 1,
                "drain batch must be at least one frame");
    parts_.reserve(opts.producers);
    for (unsigned i = 0; i < opts.producers; ++i)
        parts_.push_back(std::make_unique<Partition>(
            opts.ringBytes, opts.registry, opts.fairness));
}

ServiceLoop::~ServiceLoop() = default;

SpscRing &
ServiceLoop::ring(unsigned i)
{
    tpcp_assert(i < parts_.size(), "producer index out of range");
    return parts_[i]->ring;
}

void
ServiceLoop::producerDone(unsigned i)
{
    tpcp_assert(i < parts_.size(), "producer index out of range");
    parts_[i]->done.store(true, std::memory_order_release);
}

unsigned
ServiceLoop::numPartitions() const
{
    return static_cast<unsigned>(parts_.size());
}

unsigned
ServiceLoop::numWorkers() const
{
    const unsigned want =
        opts.jobs != 0 ? opts.jobs : std::thread::hardware_concurrency();
    return std::clamp(want, 1u, numPartitions());
}

const TenantRegistry &
ServiceLoop::registry(unsigned i) const
{
    tpcp_assert(i < parts_.size(), "partition index out of range");
    return parts_[i]->registry;
}

void
ServiceLoop::setFaultInjector(unsigned i, fault::Injector *injector)
{
    tpcp_assert(i < parts_.size(), "partition index out of range");
    parts_[i]->injector = injector;
    parts_[i]->registry.setFaultInjector(injector);
}

void
ServiceLoop::noteProducerStats(unsigned partition,
                               std::uint64_t tenant,
                               std::uint64_t park_events,
                               std::uint64_t dropped)
{
    tpcp_assert(partition < parts_.size(),
                "partition index out of range");
    parts_[partition]->registry.noteProducerStats(tenant, park_events,
                                                  dropped);
}

void
ServiceLoop::deliverFrame(Partition &p, std::uint64_t tenant,
                          const std::uint8_t *data, std::size_t size)
{
    try {
        decodePacket(data, size, p.pkt);
    } catch (const Error &) {
        // The header peeked fine but the payload is bad: count it at
        // the partition (the conservation identity's malformed term)
        // and attribute it to the tenant (observability + offense).
        ++p.malformed;
        p.registry.noteMalformed(tenant);
        return;
    }
    try {
        p.registry.deliverPacket(p.pkt);
    } catch (const Error &) {
        ++p.rejected;
    }
}

std::size_t
ServiceLoop::drainOne(Partition &p)
{
    std::size_t activity = 0;
    for (std::size_t n = 0; n < opts.drainBatch; ++n) {
        try {
            if (!p.ring.tryPop(p.frame))
                break;
        } catch (const Error &) {
            // Corrupt framing desynchronizes the ring; count it and
            // give up on this cycle rather than spin on garbage.
            ++p.malformed;
            break;
        }
        ++activity;
        if (p.injector != nullptr)
            p.injector->maybeCorruptFrame(p.frame.data(),
                                          p.frame.size());
        if (p.sched == nullptr) {
            // Plain FIFO drain (resilience off): pop-decode-deliver,
            // byte-identical to the original drain loop.
            try {
                decodePacket(p.frame.data(), p.frame.size(), p.pkt);
            } catch (const Error &) {
                ++p.malformed;
                continue;
            }
            try {
                p.registry.deliverPacket(p.pkt);
            } catch (const Error &) {
                // Duplicate/reordered sequence, a full registry with
                // no checkpoint directory, or a failed resume: the
                // packet is rejected, the service keeps running.
                ++p.rejected;
            }
            continue;
        }
        // Fairness path: attribute the frame to its tenant and stage
        // it; service order is the scheduler's business, not the
        // ring's.
        std::uint64_t tenant = 0;
        if (!peekPacketTenant(p.frame.data(), p.frame.size(),
                              tenant)) {
            // Unattributable garbage (bad magic/version/truncated
            // header) stays a partition-level malformed count.
            ++p.malformed;
            continue;
        }
        if (!p.sched->stage(tenant, p.frame.data(), p.frame.size()))
            p.registry.noteShed(tenant);
    }
    if (p.sched != nullptr) {
        p.sched->beginCycle();
        const std::size_t budget = opts.fairness.cycleBudget != 0
                                       ? opts.fairness.cycleBudget
                                       : opts.drainBatch;
        activity += p.sched->drain(
            budget,
            [this, &p](std::uint64_t tenant,
                       const std::vector<std::uint8_t> &f) {
                deliverFrame(p, tenant, f.data(), f.size());
            });
    }
    p.registry.evictIdle();
    return activity;
}

void
ServiceLoop::run()
{
    const unsigned threads = numWorkers();
    std::vector<std::uint64_t> passes(threads, 0);
    // Drain thread k owns partitions k, k + threads, ... and exits
    // after a pass that moved nothing and found each one finished.
    auto drainShare = [&](unsigned k) {
        std::uint64_t n = 0;
        for (bool finished = false; !finished; ++n) {
            std::size_t moved = 0;
            finished = true;
            for (std::size_t i = k; i < parts_.size(); i += threads) {
                Partition &p = *parts_[i];
                // Loaded before the drain: done is set after the
                // final push, so done-then-empty means no more frames.
                const bool done =
                    p.done.load(std::memory_order_acquire);
                moved += drainOne(p);
                finished = finished && done && p.ring.empty() &&
                           (p.sched == nullptr || p.sched->idle());
            }
            finished = finished && moved == 0;
            if (moved == 0 && !finished)
                std::this_thread::yield(); // let producers run
        }
        passes[k] = n;
    };
    {
        std::vector<std::jthread> helpers;
        for (unsigned k = 1; k < threads; ++k)
            helpers.emplace_back(drainShare, k);
        drainShare(0);
    } // joins the helpers
    for (std::uint64_t n : passes)
        drainCycles_ += n;
}

std::size_t
ServiceLoop::runCycle()
{
    std::size_t activity = 0;
    for (auto &part : parts_)
        activity += drainOne(*part);
    ++drainCycles_;
    return activity;
}

void
ServiceLoop::migrateOut(const std::string &bundle_dir)
{
    tpcp_assert(!opts.registry.checkpointDir.empty(),
                "migration needs a checkpoint directory");
    std::vector<MigratedTenant> tenants;
    for (auto &part : parts_) {
        part->registry.evictAll();
        for (std::uint64_t id : part->registry.tenantIds())
            tenants.push_back(part->registry.migratedState(id));
    }
    std::sort(tenants.begin(), tenants.end(),
              [](const MigratedTenant &a, const MigratedTenant &b) {
                  return a.id < b.id;
              });
    writeMigrationBundle(bundle_dir, opts.registry.checkpointDir,
                         tenants);
}

std::size_t
ServiceLoop::migrateIn(const std::string &bundle_dir)
{
    tpcp_assert(!opts.registry.checkpointDir.empty(),
                "migration needs a checkpoint directory");
    const std::vector<MigratedTenant> tenants =
        loadMigrationBundle(bundle_dir,
                            opts.registry.checkpointDir);
    for (const MigratedTenant &t : tenants)
        parts_[t.id % parts_.size()]->registry.adoptTenant(t);
    return tenants.size();
}

ServeCounters
ServiceLoop::counters() const
{
    ServeCounters c;
    for (const auto &part : parts_) {
        const RegistryCounters &rc = part->registry.counters();
        c.packets += rc.packets;
        c.tenants += part->registry.numTenants();
        c.evictions += rc.evictions;
        c.resumes += rc.resumes;
        c.phaseSwitches += rc.phaseSwitches;
        c.duplicateSeq += rc.duplicateSeq;
        c.seqGaps += rc.seqGaps;
        c.lostUpstream += rc.lostUpstream;
        c.shedPackets += rc.shedPackets;
        c.quarantines += rc.quarantines;
        c.quarantineDrops += rc.quarantineDrops;
        c.readmissions += rc.readmissions;
        c.resumeFailures += rc.resumeFailures;
        c.malformedPackets += part->malformed;
        c.rejectedPackets += part->rejected;
    }
    c.drainCycles = drainCycles_;
    return c;
}

std::vector<std::uint64_t>
ServiceLoop::allTenantIds() const
{
    std::vector<std::uint64_t> ids;
    for (const auto &part : parts_) {
        std::vector<std::uint64_t> pids = part->registry.tenantIds();
        ids.insert(ids.end(), pids.begin(), pids.end());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

const TenantRegistry &
ServiceLoop::registryOf(std::uint64_t tenant) const
{
    for (const auto &part : parts_)
        if (part->registry.hasTenant(tenant))
            return part->registry;
    tpcp_raise("unknown tenant ", tenant);
}

const TenantCounters &
ServiceLoop::tenantCounters(std::uint64_t tenant) const
{
    return registryOf(tenant).tenantCounters(tenant);
}

const std::vector<PhaseId> &
ServiceLoop::phaseStream(std::uint64_t tenant) const
{
    return registryOf(tenant).phaseStream(tenant);
}

void
ServiceLoop::writePhaseStreams(const std::string &dir) const
{
    for (std::uint64_t id : allTenantIds())
        writePhaseStream(dir, id, phaseStream(id));
}

std::string
toJson(const ServeReport &r)
{
    const std::string per_tenant =
        json::array(r.perTenant.size(), [&](std::size_t i) {
            const ServeTenantReport &t = r.perTenant[i];
            return json::Object()
                .field("tenant", t.tenant)
                .field("packets", t.c.packets)
                .field("phase_switches", t.c.phaseSwitches)
                .field("evictions", t.c.evictions)
                .field("resumes", t.c.resumes)
                .field("duplicate_seq", t.c.duplicateSeq)
                .field("lost_upstream", t.c.lostUpstream)
                .field("malformed_packets", t.c.malformedPackets)
                .field("shed_packets", t.c.shedPackets)
                .field("park_events", t.c.parkEvents)
                .field("packets_dropped", t.c.packetsDropped)
                .field("quarantines", t.c.quarantines)
                .field("quarantine_drops", t.c.quarantineDrops)
                .field("readmissions", t.c.readmissions)
                .field("resume_failures", t.c.resumeFailures)
                .str();
        }, "    ");
    // The pinned layout keeps the space of ", " before each line
    // break and writes an empty per-tenant list on one line.
    const ServeCounters &s = r.service;
    return json::Object(json::Real::G6)
        .wrap("\n  ")
        .field("tenants", r.tenants)
        .field("producers", r.producers)
        .field("jobs", r.jobs)
        .field("packets_produced", r.packetsProduced)
        .field("packets_dropped", r.packetsDropped)
        .field("park_events", r.parkEvents)
        .wrap(" \n  ")
        .field("packets_delivered", s.packets)
        .field("malformed_packets", s.malformedPackets)
        .field("rejected_packets", s.rejectedPackets)
        .field("shed_packets", s.shedPackets)
        .field("service_tenants", s.tenants)
        .field("evictions", s.evictions)
        .field("resumes", s.resumes)
        .field("phase_switches", s.phaseSwitches)
        .field("duplicate_seq", s.duplicateSeq)
        .field("seq_gaps", s.seqGaps)
        .field("lost_upstream", s.lostUpstream)
        .wrap(" \n  ")
        .field("quarantines", s.quarantines)
        .field("quarantine_drops", s.quarantineDrops)
        .field("readmissions", s.readmissions)
        .field("resume_failures", s.resumeFailures)
        .field("drain_cycles", s.drainCycles)
        .wrap(" \n  ")
        .field("elapsed_sec", r.elapsedSec)
        .field("packets_per_sec", r.packetsPerSec)
        .raw("per_tenant", r.perTenant.empty() ? "[]" : per_tenant)
        .str("\n}\n");
}

void
writePhaseStream(const std::string &dir, std::uint64_t tenant,
                 const std::vector<PhaseId> &phases)
{
    std::filesystem::create_directories(dir);
    std::string text;
    for (PhaseId p : phases)
        text += std::to_string(p) + '\n';
    json::writeFile(dir + "/tenant_" + std::to_string(tenant) + ".phases",
                    text);
}

std::vector<PhaseId>
batchPhaseStream(const EncodedStream &stream,
                 const pred::PhaseTrackerConfig &cfg)
{
    pred::PhaseTracker tracker(cfg);
    IntervalPacket pkt;
    std::vector<PhaseId> out;
    out.reserve(stream.size());
    for (const auto &frame : stream) {
        decodePacket(frame.data(), frame.size(), pkt);
        out.push_back(tracker
                          .onIntervalRaw(pkt.counters.data(),
                                         pkt.counters.size(),
                                         pkt.total, pkt.cpi)
                          .classification.phase);
    }
    return out;
}

} // namespace tpcp::serve
