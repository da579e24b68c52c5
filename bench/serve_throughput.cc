/**
 * @file
 * End-to-end throughput harness for the streaming multi-tenant
 * phase service: sweeps the tenant count (1 up to --tenants,
 * default 1024) at a fixed packet budget per tenant, running real
 * producer threads against the real service loop, and reports the
 * aggregate ingest rate at each point.
 *
 * Every sweep point enforces the service's conservation invariant —
 * packets pushed == delivered + malformed + rejected — so a
 * throughput number can never be bought with silent packet loss;
 * any mismatch fails the run. `--min-rate=R` turns the largest
 * sweep point into a CI tripwire.
 *
 * Options:
 *   --tenants=N    largest sweep point        (default 1024)
 *   --packets=N    packets per tenant stream  (default 200)
 *   --producers=P  producer rings/threads     (default 2)
 *   --jobs=J       drain threads, capped at P (default 0 = one per
 *                  hardware thread)
 *   --streams=K    distinct synthetic streams (default 4)
 *   --min-rate=R   fail if the largest point delivers fewer than R
 *                  packets/s
 *   --json=PATH    write the sweep as JSON
 *   --trace=F,...  encode tenant streams from .tpcptrace files
 *                  instead of the synthetic stream generator
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "serve/service.hh"

using namespace tpcp;

namespace
{

struct SweepPoint
{
    unsigned tenants = 0;
    unsigned producers = 0;
    unsigned workers = 0;
    std::uint64_t produced = 0;
    std::uint64_t delivered = 0;
    std::uint64_t parkEvents = 0;
    std::uint64_t evictions = 0;
    double elapsedSec = 0.0;
    double packetsPerSec = 0.0;
};

SweepPoint
runPoint(unsigned tenants, unsigned producers, unsigned jobs,
         std::uint64_t packets,
         const std::vector<serve::EncodedStream> &streams,
         const pred::PhaseTrackerConfig &tcfg)
{
    serve::ServeOptions opts;
    opts.registry.tracker = tcfg;
    opts.registry.maxResident =
        std::max(1u, (tenants + producers - 1) / producers);
    opts.producers = producers;
    opts.jobs = jobs;
    serve::ServiceLoop loop(opts);

    std::vector<serve::ProducerTask> tasks(producers);
    for (unsigned p = 0; p < producers; ++p) {
        tasks[p].ring = &loop.ring(p);
        tasks[p].policy = serve::BackpressurePolicy::Park;
    }
    for (std::uint64_t t = 0; t < tenants; ++t) {
        serve::ProducerTask &task = tasks[t % producers];
        task.tenants.push_back(t);
        task.streams.push_back(&streams[t % streams.size()]);
    }

    std::vector<serve::ProducerCounters> pcs(producers);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            pcs[p] = serve::runProducer(tasks[p]);
            loop.producerDone(p);
        });
    loop.run();
    for (std::thread &th : threads)
        th.join();
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

    SweepPoint pt;
    pt.tenants = tenants;
    pt.producers = producers;
    pt.workers = loop.numWorkers();
    for (const serve::ProducerCounters &c : pcs) {
        pt.produced += c.pushed;
        pt.parkEvents += c.parkEvents;
        if (c.dropped != 0) {
            std::cerr << "error: Park producers must not drop\n";
            std::exit(1);
        }
    }
    const serve::ServeCounters sc = loop.counters();
    pt.delivered = sc.packets;
    pt.evictions = sc.evictions;
    pt.elapsedSec = sec;
    pt.packetsPerSec =
        sec > 0.0 ? static_cast<double>(sc.packets) / sec : 0.0;

    const std::uint64_t expected =
        std::uint64_t{tenants} * packets;
    const std::uint64_t accounted =
        sc.packets + sc.malformedPackets + sc.rejectedPackets;
    if (pt.produced != expected || accounted != pt.produced ||
        sc.malformedPackets != 0 || sc.rejectedPackets != 0 ||
        sc.lostUpstream != 0) {
        std::cerr << "error: packet conservation violated at "
                  << tenants << " tenants: expected " << expected
                  << ", produced " << pt.produced
                  << ", accounted " << accounted << " (malformed "
                  << sc.malformedPackets << ", rejected "
                  << sc.rejectedPackets << ", lost "
                  << sc.lostUpstream << ")\n";
        std::exit(1);
    }
    return pt;
}

std::string
toJson(const SweepPoint &pt)
{
    return json::Object(json::Real::G6)
        .field("tenants", pt.tenants)
        .field("producers", pt.producers)
        .field("workers", pt.workers)
        .field("packets", pt.delivered)
        .field("park_events", pt.parkEvents)
        .field("evictions", pt.evictions)
        .field("elapsed_sec", pt.elapsedSec)
        .field("packets_per_sec", pt.packetsPerSec)
        .str();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"tenants", cli::Kind::U32, "largest sweep point (default 1024)"},
         {"packets", cli::Kind::U64,
          "packets per tenant stream (default 200)"},
         {"producers", cli::Kind::U32,
          "producer rings/threads (default 2)"},
         {"streams", cli::Kind::U32,
          "distinct synthetic streams (default 4)"},
         {"min-rate", cli::Kind::Real,
          "fail if the largest point delivers fewer packets/s"},
         {"json", cli::Kind::Text, "write the sweep as JSON"},
         bench::traceFlag()});

    const unsigned max_tenants = args.getU32("tenants", 1024);
    std::uint64_t packets = args.getU64("packets", 200);
    const unsigned producers = args.getU32("producers", 2);
    const unsigned num_streams = args.getU32("streams", 4);
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"packets", packets}, {"producers", producers},
        {"streams", num_streams}};
    for (const auto &[flag, value] : counts)
        if (value == 0) {
            std::cerr << "error: --" << flag << " must be >= 1\n";
            return 2;
        }

    pred::PhaseTrackerConfig tcfg;
    std::vector<serve::EncodedStream> streams;
    if (args.has("trace")) {
        // Tenant streams encoded from ingested traces. Every stream
        // is cut to a common length so the conservation invariant
        // (expected == tenants x packets) stays exact.
        auto traced =
            trace::loadTraceProfiles(args.get("trace", ""));
        for (const auto &[name, profile] : traced)
            packets = std::min<std::uint64_t>(
                packets, profile.numIntervals());
        for (const auto &[name, profile] : traced) {
            streams.push_back(serve::encodeProfileStream(
                profile, tcfg.classifier.numCounters, packets));
            std::cerr << "[trace] " << name << ": "
                      << streams.back().size() << " packets\n";
        }
    } else {
        streams.reserve(num_streams);
        for (unsigned k = 0; k < num_streams; ++k)
            streams.push_back(serve::encodeSyntheticStream(
                k, packets, tcfg.classifier.numCounters));
    }

    std::vector<unsigned> sweep;
    for (unsigned t = 1; t < max_tenants; t *= 4)
        sweep.push_back(t);
    sweep.push_back(max_tenants);

    std::vector<SweepPoint> points;
    AsciiTable table({"tenants", "producers", "workers", "packets",
                      "parks", "evictions", "sec", "packets/s"});
    for (unsigned t : sweep) {
        SweepPoint pt =
            runPoint(t, producers, args.jobs(), packets, streams, tcfg);
        points.push_back(pt);
        table.row()
            .cell(std::uint64_t{pt.tenants})
            .cell(std::uint64_t{producers})
            .cell(std::uint64_t{pt.workers})
            .cell(pt.delivered)
            .cell(pt.parkEvents)
            .cell(pt.evictions)
            .cell(pt.elapsedSec, 3)
            .cell(pt.packetsPerSec, 0);
    }
    table.print(std::cout);

    const std::string json_path = args.get("json", "");
    if (!json_path.empty() && json_path != "-") {
        if (!bench::writeJson(json_path, json::lines(points)))
            return 1;
        std::cout << "wrote " << points.size() << " points to "
                  << json_path << "\n";
    }

    if (args.has("min-rate")) {
        const double limit = args.getDouble("min-rate", 0.0);
        const double rate = points.back().packetsPerSec;
        if (rate < limit) {
            std::cerr << "error: " << points.back().tenants
                      << "-tenant ingest " << rate
                      << " packets/s below --min-rate " << limit
                      << "\n";
            return 1;
        }
        std::cout << points.back().tenants << "-tenant ingest "
                  << rate << " packets/s meets --min-rate " << limit
                  << "\n";
    }
    return 0;
}
