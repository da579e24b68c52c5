#include "serve/service.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <type_traits>

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
    std::filesystem::create_directories(dir);
    for (std::uint64_t id : allTenantIds()) {
        const std::string path =
            dir + "/tenant_" + std::to_string(id) + ".phases";
        std::ofstream out(path);
        if (!out)
            tpcp_raise("cannot write phase stream ", path);
        for (PhaseId p : phaseStream(id))
            out << p << '\n';
    }
}

namespace
{

/** Appends `"key": value` (integers exact, reals as %.6g). */
template <typename T>
void
appendField(std::string &out, const char *key, T value,
            bool last = false)
{
    out += '"';
    out += key;
    out += "\": ";
    if constexpr (std::is_floating_point_v<T>) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        out += buf;
    } else {
        out += std::to_string(value);
    }
    if (!last)
        out += ", ";
}

} // namespace

std::string
toJson(const ServeReport &r)
{
    std::string out = "{\n  ";
    appendField(out, "tenants", r.tenants);
    appendField(out, "producers", r.producers);
    appendField(out, "jobs", r.jobs);
    appendField(out, "packets_produced", r.packetsProduced);
    appendField(out, "packets_dropped", r.packetsDropped);
    appendField(out, "park_events", r.parkEvents);
    out += "\n  ";
    appendField(out, "packets_delivered", r.service.packets);
    appendField(out, "malformed_packets",
                r.service.malformedPackets);
    appendField(out, "rejected_packets", r.service.rejectedPackets);
    appendField(out, "shed_packets", r.service.shedPackets);
    appendField(out, "service_tenants", r.service.tenants);
    appendField(out, "evictions", r.service.evictions);
    appendField(out, "resumes", r.service.resumes);
    appendField(out, "phase_switches", r.service.phaseSwitches);
    appendField(out, "duplicate_seq", r.service.duplicateSeq);
    appendField(out, "seq_gaps", r.service.seqGaps);
    appendField(out, "lost_upstream", r.service.lostUpstream);
    out += "\n  ";
    appendField(out, "quarantines", r.service.quarantines);
    appendField(out, "quarantine_drops", r.service.quarantineDrops);
    appendField(out, "readmissions", r.service.readmissions);
    appendField(out, "resume_failures", r.service.resumeFailures);
    appendField(out, "drain_cycles", r.service.drainCycles);
    out += "\n  ";
    appendField(out, "elapsed_sec", r.elapsedSec);
    appendField(out, "packets_per_sec", r.packetsPerSec);
    out += "\"per_tenant\": [";
    for (std::size_t i = 0; i < r.perTenant.size(); ++i) {
        const ServeTenantReport &t = r.perTenant[i];
        out += "\n    {";
        appendField(out, "tenant", t.tenant);
        appendField(out, "packets", t.c.packets);
        appendField(out, "phase_switches", t.c.phaseSwitches);
        appendField(out, "evictions", t.c.evictions);
        appendField(out, "resumes", t.c.resumes);
        appendField(out, "duplicate_seq", t.c.duplicateSeq);
        appendField(out, "lost_upstream", t.c.lostUpstream);
        appendField(out, "malformed_packets", t.c.malformedPackets);
        appendField(out, "shed_packets", t.c.shedPackets);
        appendField(out, "park_events", t.c.parkEvents);
        appendField(out, "packets_dropped", t.c.packetsDropped);
        appendField(out, "quarantines", t.c.quarantines);
        appendField(out, "quarantine_drops", t.c.quarantineDrops);
        appendField(out, "readmissions", t.c.readmissions);
        appendField(out, "resume_failures", t.c.resumeFailures,
                    true);
        out += '}';
        if (i + 1 < r.perTenant.size())
            out += ',';
    }
    if (!r.perTenant.empty())
        out += "\n  ";
    out += "]\n}\n";
    return out;
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

bool
writeJson(const std::string &path, const ServeReport &r)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson(r);
    return file.good();
}

} // namespace tpcp::serve
