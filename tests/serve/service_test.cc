/**
 * @file
 * End-to-end tests for the streaming service: per-tenant phase-ID
 * streams must be byte-identical to the batch PhaseTracker path —
 * at one producer, at several, at any drain-thread count, and across
 * checkpointed eviction and transparent resume — and every packet
 * must be visibly accounted for (delivered, malformed, or rejected;
 * never silently lost).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/bitops.hh"
#include "common/status.hh"
#include "serve/service.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

constexpr unsigned kTenants = 6;
constexpr std::size_t kPackets = 120;

std::string
tempDir(const std::string &name)
{
    std::string dir = std::string(::testing::TempDir()) + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<EncodedStream>
testStreams(const pred::PhaseTrackerConfig &tcfg)
{
    std::vector<EncodedStream> streams;
    for (unsigned k = 0; k < 3; ++k)
        streams.push_back(encodeSyntheticStream(
            k, kPackets, tcfg.classifier.numCounters));
    return streams;
}

const EncodedStream &
streamOf(const std::vector<EncodedStream> &streams, std::uint64_t t)
{
    return streams[t % streams.size()];
}

/** One Park producer task per ring of @p loop, tenant t on ring
 * t % producers (the CLI's mapping). */
std::vector<ProducerTask>
producerTasks(ServiceLoop &loop, const std::vector<EncodedStream> &streams)
{
    std::vector<ProducerTask> tasks(loop.numPartitions());
    for (unsigned p = 0; p < loop.numPartitions(); ++p) {
        tasks[p].ring = &loop.ring(p);
        tasks[p].policy = BackpressurePolicy::Park;
    }
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        ProducerTask &task = tasks[t % loop.numPartitions()];
        task.tenants.push_back(t);
        task.streams.push_back(&streamOf(streams, t));
    }
    return tasks;
}

/** Runs the full service over the test tenants and returns it. */
std::unique_ptr<ServiceLoop>
runService(const std::vector<EncodedStream> &streams,
           const ServeOptions &opts)
{
    auto loop = std::make_unique<ServiceLoop>(opts);
    const std::vector<ProducerTask> tasks =
        producerTasks(*loop, streams);
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < opts.producers; ++p)
        threads.emplace_back([&, p] {
            runProducer(tasks[p]);
            loop->producerDone(p);
        });
    loop->run();
    for (std::thread &th : threads)
        th.join();
    return loop;
}

ServeOptions
baseOptions()
{
    ServeOptions opts;
    opts.registry.maxResident = kTenants;
    opts.registry.recordPhases = true;
    return opts;
}

void
expectBatchIdentity(const ServiceLoop &loop,
                    const std::vector<EncodedStream> &streams,
                    const pred::PhaseTrackerConfig &tcfg)
{
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        const std::vector<PhaseId> expect =
            batchPhaseStream(streamOf(streams, t), tcfg);
        EXPECT_EQ(loop.phaseStream(t), expect)
            << "tenant " << t
            << " diverged from the batch path";
    }
}

/** Every pushed packet delivered, none lost or refused. */
void
expectConservation(const ServiceLoop &loop)
{
    const ServeCounters c = loop.counters();
    EXPECT_EQ(c.packets, std::uint64_t{kTenants} * kPackets);
    EXPECT_EQ(c.malformedPackets, 0u);
    EXPECT_EQ(c.rejectedPackets, 0u);
    EXPECT_EQ(c.lostUpstream, 0u);
    EXPECT_EQ(c.tenants, kTenants);
}

} // namespace

TEST(SyntheticStream, BytesMatchPinnedDigests)
{
    // FNV-1a over every frame of 300-packet streams, recorded before
    // the generator's bucket precomputation and the Rng power-of-two
    // fast path: both must leave the bytes unchanged.
    struct Pin
    {
        unsigned dims;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    for (const Pin &pin : {Pin{16, 0, 0x67eb2cbc37f63fbbULL},
                           Pin{16, 1, 0x083e668687aa011bULL},
                           Pin{16, 2, 0x97bcc06626bad062ULL},
                           Pin{32, 0, 0x34c6703599277392ULL},
                           Pin{13, 2, 0xe4467bd80e42a72bULL}}) {
        std::vector<std::uint8_t> bytes;
        for (const auto &frame :
             encodeSyntheticStream(pin.seed, 300, pin.dims))
            bytes.insert(bytes.end(), frame.begin(), frame.end());
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.digest)
            << pin.dims << " counters, seed " << pin.seed;
    }
}

TEST(ServiceLoop, MatchesBatchPathSingleProducer)
{
    ServeOptions opts = baseOptions();
    auto streams = testStreams(opts.registry.tracker);
    auto loop = runService(streams, opts);
    expectConservation(*loop);
    expectBatchIdentity(*loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, MatchesBatchPathAtAnyProducerCount)
{
    // (producers, jobs -> drain threads): jobs = 0 (hardware
    // threads), one drain thread owning three partitions, two threads
    // owning two each, jobs above the partition count, and the single
    // partition drained with no thread started.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    struct Shape
    {
        unsigned producers, jobs, workers;
    };
    for (const Shape &sh :
         {Shape{2, 0, std::min(hw, 2u)}, Shape{3, 0, std::min(hw, 3u)},
          Shape{3, 1, 1}, Shape{4, 2, 2}, Shape{2, 8, 2},
          Shape{1, 0, 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << sh.producers << " producers, jobs "
                     << sh.jobs);
        ServeOptions opts = baseOptions();
        opts.producers = sh.producers;
        opts.jobs = sh.jobs;
        auto streams = testStreams(opts.registry.tracker);
        auto loop = runService(streams, opts);
        EXPECT_EQ(loop->numWorkers(), sh.workers);
        expectConservation(*loop);
        expectBatchIdentity(*loop, streams, opts.registry.tracker);
    }
}

TEST(ServiceLoop, SilentProducerDoneBeforeRun)
{
    // Ring 0's producer pushes nothing and is done before run()
    // starts; ring 1's producer carries every tenant.
    ServeOptions opts = baseOptions();
    opts.producers = 2;
    opts.jobs = 2;
    auto streams = testStreams(opts.registry.tracker);
    ServiceLoop loop(opts);
    loop.producerDone(0);
    ProducerTask task;
    task.ring = &loop.ring(1);
    task.policy = BackpressurePolicy::Park;
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        task.tenants.push_back(t);
        task.streams.push_back(&streamOf(streams, t));
    }
    std::thread producer([&] {
        runProducer(task);
        loop.producerDone(1);
    });
    loop.run();
    producer.join();
    expectConservation(loop);
    expectBatchIdentity(loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, RunAfterProducersFinished)
{
    // Every producer has pushed its whole stream and signalled done
    // before run() starts: the drain threads find full rings and
    // done flags already set.
    ServeOptions opts = baseOptions();
    opts.producers = 2;
    opts.jobs = 2;
    auto streams = testStreams(opts.registry.tracker);
    ServiceLoop loop(opts);
    const std::vector<ProducerTask> tasks = producerTasks(loop, streams);
    for (unsigned p = 0; p < opts.producers; ++p) {
        const ProducerCounters pc = runProducer(tasks[p]);
        ASSERT_EQ(pc.parkEvents, 0u) << "ring " << p << " filled up";
        loop.producerDone(p);
    }
    loop.run();
    expectConservation(loop);
    expectBatchIdentity(loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, EvictResumePreservesIdentity)
{
    ServeOptions opts = baseOptions();
    opts.producers = 2;
    // Only 2 resident slots per partition for 3 tenants each: every
    // drain cycle forces checkpointed evictions and transparent
    // resumes mid-stream.
    opts.registry.maxResident = 2;
    opts.registry.evictAfter = 16;
    opts.registry.checkpointDir = tempDir("serve_evict_ckpt");
    auto streams = testStreams(opts.registry.tracker);
    auto loop = runService(streams, opts);

    const ServeCounters c = loop->counters();
    EXPECT_GT(c.evictions, 0u) << "test exercised no eviction";
    EXPECT_GT(c.resumes, 0u) << "test exercised no resume";
    EXPECT_EQ(c.packets, std::uint64_t{kTenants} * kPackets);
    EXPECT_EQ(c.rejectedPackets, 0u);
    expectBatchIdentity(*loop, streams, opts.registry.tracker);
}

TEST(ServiceLoop, MalformedFramesCountedNotFatal)
{
    ServeOptions opts = baseOptions();
    ServiceLoop loop(opts);
    auto streams = testStreams(opts.registry.tracker);

    // Interleave garbage frames with a valid stream by hand.
    SpscRing &ring = loop.ring(0);
    const EncodedStream &stream = streamOf(streams, 0);
    const std::uint8_t garbage[32] = {0xBA, 0xD0};
    ASSERT_TRUE(ring.tryPush(garbage, sizeof(garbage)));
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        frame = stream[i];
        restampPacket(frame.data(), 0, i);
        ASSERT_TRUE(ring.tryPush(
            frame.data(), static_cast<std::uint32_t>(frame.size())));
    }
    ASSERT_TRUE(ring.tryPush(garbage, sizeof(garbage)));
    loop.producerDone(0);
    loop.run();

    const ServeCounters c = loop.counters();
    EXPECT_EQ(c.malformedPackets, 2u);
    EXPECT_EQ(c.packets, stream.size());
    // The tenant's stream is untouched by the surrounding garbage.
    EXPECT_EQ(loop.phaseStream(0),
              batchPhaseStream(stream, opts.registry.tracker));
}

TEST(TenantRegistry, DuplicateSequenceRejectedWithoutStateChange)
{
    RegistryConfig rc;
    rc.maxResident = 2;
    rc.recordPhases = true;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.tenant = 9;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.seq = 0;
    registry.deliver(pkt);
    pkt.seq = 1;
    registry.deliver(pkt);
    // Replay of seq 1: rejected, and the phase stream must not grow.
    EXPECT_THROW(registry.deliver(pkt), Error);
    EXPECT_EQ(registry.phaseStream(9).size(), 2u);
    EXPECT_EQ(registry.counters().duplicateSeq, 1u);
    EXPECT_EQ(registry.tenantCounters(9).duplicateSeq, 1u);
    // The stream continues normally after the rejected replay.
    pkt.seq = 2;
    registry.deliver(pkt);
    EXPECT_EQ(registry.phaseStream(9).size(), 3u);
}

TEST(TenantRegistry, ForwardGapCountedAsUpstreamLoss)
{
    RegistryConfig rc;
    rc.maxResident = 2;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.tenant = 4;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.seq = 0;
    registry.deliver(pkt);
    // Seqs 1..4 were dropped by a backpressured producer: the
    // consumer mirrors the loss so both sides agree on the count.
    pkt.seq = 5;
    registry.deliver(pkt);
    EXPECT_EQ(registry.counters().lostUpstream, 4u);
    EXPECT_EQ(registry.counters().seqGaps, 1u);
    EXPECT_EQ(registry.tenantCounters(4).lostUpstream, 4u);
    EXPECT_EQ(registry.counters().packets, 2u);
}

TEST(TenantRegistry, FullRegistryWithoutCheckpointDirRaises)
{
    RegistryConfig rc;
    rc.maxResident = 1;
    TenantRegistry registry(rc);

    IntervalPacket pkt;
    pkt.counters.assign(rc.tracker.classifier.numCounters, 50);
    pkt.total = 5000;
    pkt.cpi = 1.0;

    pkt.tenant = 1;
    pkt.seq = 0;
    registry.deliver(pkt);
    // No checkpoint directory: the second tenant cannot evict the
    // first, and must be rejected recoverably instead of crashing.
    pkt.tenant = 2;
    EXPECT_THROW(registry.deliver(pkt), Error);
    EXPECT_EQ(registry.numResident(), 1u);
    // The first tenant keeps working.
    pkt.tenant = 1;
    pkt.seq = 1;
    registry.deliver(pkt);
    EXPECT_EQ(registry.counters().packets, 2u);
}

// The bytes below were recorded from the writer that preceded
// common/json; the shared writer must reproduce them, including the
// space before each line break and the one-line empty per_tenant.
TEST(ServeReport, JsonContainsCountersAndTenants)
{
    ServeReport rep;
    rep.tenants = 2;
    rep.producers = 1;
    rep.jobs = 1;
    rep.packetsProduced = 100;
    rep.packetsDropped = 1;
    rep.parkEvents = 3;
    rep.service.packets = 99;
    rep.service.tenants = 2;
    rep.service.drainCycles = 17;
    // %.6g, not %.10g.
    rep.elapsedSec = 0.0123456789;
    rep.packetsPerSec = 8019.00001;
    const std::string head =
        "{\n"
        "  \"tenants\": 2, \"producers\": 1, \"jobs\": 1, "
        "\"packets_produced\": 100, \"packets_dropped\": 1, "
        "\"park_events\": 3, \n"
        "  \"packets_delivered\": 99, \"malformed_packets\": 0, "
        "\"rejected_packets\": 0, \"shed_packets\": 0, "
        "\"service_tenants\": 2, \"evictions\": 0, \"resumes\": 0, "
        "\"phase_switches\": 0, \"duplicate_seq\": 0, "
        "\"seq_gaps\": 0, \"lost_upstream\": 0, \n"
        "  \"quarantines\": 0, \"quarantine_drops\": 0, "
        "\"readmissions\": 0, \"resume_failures\": 0, "
        "\"drain_cycles\": 17, \n"
        "  \"elapsed_sec\": 0.0123457, \"packets_per_sec\": 8019, "
        "\"per_tenant\": ";
    EXPECT_EQ(toJson(rep), head + "[]\n}\n");
    ServeTenantReport t0, t1;
    t0.tenant = 0;
    t0.c.packets = 50;
    t0.c.phaseSwitches = 2;
    t1.tenant = 1;
    t1.c.packets = 49;
    t1.c.packetsDropped = 1;
    rep.perTenant = {t0, t1};
    EXPECT_EQ(toJson(rep),
              head +
                  "[\n"
                  "    {\"tenant\": 0, \"packets\": 50, "
                  "\"phase_switches\": 2, \"evictions\": 0, "
                  "\"resumes\": 0, \"duplicate_seq\": 0, "
                  "\"lost_upstream\": 0, \"malformed_packets\": 0, "
                  "\"shed_packets\": 0, \"park_events\": 0, "
                  "\"packets_dropped\": 0, \"quarantines\": 0, "
                  "\"quarantine_drops\": 0, \"readmissions\": 0, "
                  "\"resume_failures\": 0},\n"
                  "    {\"tenant\": 1, \"packets\": 49, "
                  "\"phase_switches\": 0, \"evictions\": 0, "
                  "\"resumes\": 0, \"duplicate_seq\": 0, "
                  "\"lost_upstream\": 0, \"malformed_packets\": 0, "
                  "\"shed_packets\": 0, \"park_events\": 0, "
                  "\"packets_dropped\": 1, \"quarantines\": 0, "
                  "\"quarantine_drops\": 0, \"readmissions\": 0, "
                  "\"resume_failures\": 0}\n"
                  "  ]\n"
                  "}\n");
}

