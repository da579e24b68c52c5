/**
 * @file
 * Self-timed microbenchmarks for the phase-tracking hardware model:
 * the per-branch accumulator update (which must run at commit
 * speed), end-of-interval classification, signature compression and
 * comparison, past-signature-table match scans and predictor
 * updates. These back the paper's feasibility claim that
 * classification needs only "a counter, a hash, and an accumulator
 * update".
 *
 * Results are printed as a table and, by default, also written as
 * machine-readable JSON (BENCH_throughput.json) so CI can diff a run
 * against the checked-in baseline with tools/compare_throughput.py.
 * Each repeat times enough iterations to cover --min-time seconds
 * and the best repeat is reported, which filters scheduler noise on
 * the 1-core CI container.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "phase/accumulator_table.hh"
#include "phase/classifier.hh"
#include "phase/signature.hh"
#include "phase/signature_table.hh"
#include "pred/change_predictor.hh"
#include "serve/flow_sched.hh"
#include "serve/producer.hh"
#include "serve/ring_buffer.hh"
#include "serve/tenant_registry.hh"

using namespace tpcp;

namespace
{

/** Accumulated by every benchmark body so work cannot be elided. */
std::uint64_t g_sink = 0;

/** One benchmark's throughput, in items (unit) per second. */
struct BenchResult
{
    std::string name;
    std::string config;
    std::string unit;
    double itemsPerSec = 0.0;
};

/**
 * Times @p body (which performs @p itemsPerCall units of work per
 * invocation) with geometric calibration: the batch size doubles
 * until one batch spans at least @p min_time seconds. Best of
 * @p repeats batches wins.
 */
template <typename F>
double
measure(F &&body, std::uint64_t itemsPerCall, double min_time,
        int repeats)
{
    using clock = std::chrono::steady_clock;
    std::uint64_t calls = 1;
    double best = 0.0;
    for (int rep = 0; rep < repeats;) {
        auto t0 = clock::now();
        for (std::uint64_t c = 0; c < calls; ++c)
            body();
        double sec = std::chrono::duration<double>(clock::now() - t0)
                         .count();
        if (sec < min_time) {
            // Grow the batch instead of counting a too-short run:
            // sub-millisecond timings are dominated by clock
            // granularity.
            calls *= 2;
            continue;
        }
        double rate =
            static_cast<double>(calls * itemsPerCall) / sec;
        if (rate > best)
            best = rate;
        ++rep;
    }
    return best;
}

std::vector<Addr>
branchPcs(std::size_t n)
{
    Rng rng(std::uint64_t{0x1234});
    std::vector<Addr> pcs(n);
    for (auto &pc : pcs)
        pc = 0x400000 + (rng.nextBounded(4096) * 4);
    return pcs;
}

/** Per-branch accumulator update, one recordBranch call per event. */
BenchResult
benchAccumUpdate(unsigned counters, double min_time, int repeats)
{
    phase::AccumulatorTable acc(counters);
    auto pcs = branchPcs(1024);
    std::size_t i = 0;
    double rate = measure(
        [&] {
            acc.recordBranch(pcs[i++ & 1023], 12);
            g_sink += acc.counters()[0];
        },
        1, min_time, repeats);
    return {"accum_update", "counters=" + std::to_string(counters),
            "branches", rate};
}

/** Batched accumulator update: the trace-replay hot path. */
BenchResult
benchAccumBatched(unsigned counters, double min_time, int repeats)
{
    constexpr std::size_t kBatch = 4096;
    phase::AccumulatorTable acc(counters);
    auto pcs = branchPcs(1024);
    Rng rng(std::uint64_t{0x5678});
    std::vector<phase::BranchEvent> events(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
        events[i] = {pcs[rng.nextBounded(1024)], 12};
    double rate = measure(
        [&] {
            acc.recordBranches(events.data(), events.size());
            g_sink += acc.counters()[0];
            acc.reset();
        },
        kBatch, min_time, repeats);
    return {"accum_batched", "counters=" + std::to_string(counters),
            "branches", rate};
}

/** Allocation-free signature compression of a warm accumulator. */
BenchResult
benchSignatureCompress(unsigned counters, double min_time,
                       int repeats)
{
    phase::AccumulatorTable acc(counters);
    auto pcs = branchPcs(1024);
    for (std::size_t i = 0; i < 8192; ++i)
        acc.recordBranch(pcs[i & 1023], 12);
    std::vector<std::uint8_t> row(counters, 0);
    double rate = measure(
        [&] {
            g_sink += phase::Signature::compressTo(
                acc.counters(), acc.totalIncrement(), 6,
                phase::BitSelection::Dynamic, 0, row.data());
        },
        1, min_time, repeats);
    return {"sig_compress", "counters=" + std::to_string(counters),
            "signatures", rate};
}

/** Normalized Manhattan difference between two signatures. */
BenchResult
benchSignatureDistance(unsigned dims, double min_time, int repeats)
{
    Rng rng(std::uint64_t{7});
    std::vector<std::uint8_t> a(dims), b(dims);
    for (std::size_t i = 0; i < dims; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.nextBounded(64));
        b[i] = static_cast<std::uint8_t>(rng.nextBounded(64));
    }
    phase::Signature sa(a, 6), sb(b, 6);
    double rate = measure(
        [&] { g_sink += sa.difference(sb) < 0.5 ? 1 : 0; }, 1,
        min_time, repeats);
    return {"sig_distance", "dims=" + std::to_string(dims), "pairs",
            rate};
}

/**
 * A full match() scan of a populated past-signature table with
 * realistic queries: most probes miss (forcing a walk over every
 * entry), some hit.
 */
BenchResult
benchMatchScan(unsigned entries, double min_time, int repeats)
{
    phase::SignatureTable table(entries, 6);
    Rng rng(std::uint64_t{21});
    constexpr unsigned kDims = 16;
    auto randomRow = [&] {
        std::vector<std::uint8_t> d(kDims);
        for (auto &v : d)
            v = static_cast<std::uint8_t>(rng.nextBounded(64));
        return d;
    };
    std::vector<phase::Signature> queries;
    for (unsigned i = 0; i < entries; ++i) {
        phase::Signature s(randomRow(), 6);
        table.insert(s, 0.25);
        if (i % 4 == 0)
            queries.push_back(s); // will (nearly) hit
    }
    for (int i = 0; i < 32; ++i)
        queries.emplace_back(randomRow(), 6); // will likely miss
    std::size_t qi = 0;
    double rate = measure(
        [&] {
            auto m = table.match(queries[qi++ % queries.size()],
                                 phase::MatchPolicy::FirstMatch);
            g_sink += m ? m.index : 0;
        },
        1, min_time, repeats);
    return {"match_scan", "entries=" + std::to_string(entries),
            "scans", rate};
}

/** The synthetic phase stream shared by the classify benchmarks:
 * dwell on one code shape for a while, then move on, cycling through
 * more shapes than the table holds. Returns one shape index per
 * interval. */
std::vector<unsigned>
shapeStream(Rng &rng, std::vector<std::vector<Addr>> &shapes)
{
    constexpr unsigned kShapes = 24;
    shapes.resize(kShapes);
    for (unsigned s = 0; s < kShapes; ++s) {
        shapes[s].resize(64);
        for (auto &pc : shapes[s])
            pc = 0x10000 * (s + 1) + 4 * rng.nextBounded(512);
    }
    std::vector<unsigned> stream(4096);
    unsigned cur = 0;
    for (auto &s : stream) {
        s = cur % kShapes;
        if (rng.nextBool(0.1))
            ++cur;
    }
    return stream;
}

/**
 * Batched replay classification at the paper-default configuration:
 * the per-interval accumulator snapshots of the synthetic phase
 * stream are pre-gathered (as the profile-replay harnesses store
 * them) and classified via classifyIntervals(). This is the
 * sweep/fault-campaign hot path the throughput ceiling is stated
 * against. Note the unit is "replayed-intervals": the kernel's
 * semantics changed from the pre-SIMD online loop (see
 * classify_online for that), and the unit string marks the break so
 * compare_throughput.py refuses apples-to-oranges ratios.
 */
BenchResult
benchClassifyLoop(double min_time, int repeats)
{
    phase::ClassifierConfig cfg =
        phase::ClassifierConfig::paperDefault();
    Rng rng(std::uint64_t{99});
    std::vector<std::vector<Addr>> shapes;
    std::vector<unsigned> stream = shapeStream(rng, shapes);
    // Pre-gather each interval's raw accumulator snapshot.
    phase::AccumulatorTable acc(cfg.numCounters);
    std::vector<std::vector<std::uint32_t>> raws;
    std::vector<InstCount> totals;
    raws.reserve(stream.size());
    totals.reserve(stream.size());
    for (unsigned s : stream) {
        const auto &pcs = shapes[s];
        for (int b = 0; b < 256; ++b)
            acc.recordBranch(pcs[b & 63], 12);
        raws.push_back(acc.counters());
        totals.push_back(acc.totalIncrement());
        acc.reset();
    }
    std::vector<phase::RawInterval> views(raws.size());
    for (std::size_t i = 0; i < raws.size(); ++i)
        views[i] = {raws[i].data(), totals[i], 1.0};
    std::vector<phase::ClassifyResult> results(views.size());
    phase::PhaseClassifier classifier(cfg);
    double rate = measure(
        [&] {
            classifier.classifyIntervals(views.data(), views.size(),
                                         results.data());
            g_sink += results.back().phase;
        },
        views.size(), min_time, repeats);
    return {"classify_loop", "paper_default", "replayed-intervals",
            rate};
}

/**
 * End-to-end online classify loop at the paper-default
 * configuration: 256 recordBranch() calls per interval, then
 * endInterval() — the hardware-style operation mode, dominated by
 * the per-branch accumulator updates rather than classification.
 */
BenchResult
benchClassifyOnline(double min_time, int repeats)
{
    phase::ClassifierConfig cfg =
        phase::ClassifierConfig::paperDefault();
    phase::PhaseClassifier classifier(cfg);
    Rng rng(std::uint64_t{99});
    std::vector<std::vector<Addr>> shapes;
    std::vector<unsigned> stream = shapeStream(rng, shapes);
    std::size_t interval = 0;
    double rate = measure(
        [&] {
            const auto &pcs = shapes[stream[interval++ & 4095]];
            for (int b = 0; b < 256; ++b)
                classifier.recordBranch(pcs[b & 63], 12);
            auto res = classifier.endInterval(1.0);
            g_sink += res.phase;
        },
        1, min_time, repeats);
    return {"classify_online", "paper_default", "intervals", rate};
}

/**
 * Streaming-service ingest: the full per-packet consumer path —
 * ring transfer, frame decode and validation, tenant lookup and
 * raw-counter classification — on pre-accumulated interval packets,
 * cycling round-robin over the resident tenants.
 */
BenchResult
benchServeIngest(unsigned tenants, double min_time, int repeats)
{
    serve::RegistryConfig rc;
    rc.maxResident = tenants;
    serve::TenantRegistry registry(rc);
    serve::SpscRing ring(1u << 20);
    const serve::EncodedStream stream = serve::encodeSyntheticStream(
        7, 512, rc.tracker.classifier.numCounters);
    std::vector<std::uint64_t> seq(tenants, 0);
    std::vector<std::uint8_t> frame, popped;
    serve::IntervalPacket pkt;
    std::size_t i = 0;
    unsigned t = 0;
    double rate = measure(
        [&] {
            frame = stream[i++ & 511];
            serve::restampPacket(frame.data(), t, seq[t]++);
            ring.tryPush(frame.data(),
                         static_cast<std::uint32_t>(frame.size()));
            ring.tryPop(popped);
            serve::decodePacket(popped.data(), popped.size(), pkt);
            g_sink += registry.deliver(pkt);
            if (++t == tenants)
                t = 0;
        },
        1, min_time, repeats);
    return {"serve_ingest", "tenants=" + std::to_string(tenants),
            "packets", rate};
}

/**
 * Streaming-service ingest through the resilience drain: the same
 * per-packet consumer path as serve_ingest, but staged through the
 * FlowScheduler (token refill, DRR service order) the way a
 * fairness-enabled partition drains. The knobs are set so nothing is
 * ever shed or throttled — the row measures pure scheduler overhead
 * against the serve_ingest FIFO rows, batched per drain cycle like
 * the real service.
 */
BenchResult
benchServeFairIngest(unsigned tenants, double min_time, int repeats)
{
    constexpr std::size_t kCycle = 64; // frames per drain cycle
    serve::RegistryConfig rc;
    rc.maxResident = tenants;
    serve::TenantRegistry registry(rc);
    serve::SpscRing ring(1u << 20);
    serve::FairnessConfig fc;
    fc.ratePerCycle = kCycle; // never throttles at this load
    fc.drrQuantum = 1;
    fc.maxBacklog = 2 * kCycle; // never sheds
    serve::FlowScheduler sched(fc);
    const serve::EncodedStream stream = serve::encodeSyntheticStream(
        7, 512, rc.tracker.classifier.numCounters);
    std::vector<std::uint64_t> seq(tenants, 0);
    std::vector<std::uint8_t> frame, popped;
    serve::IntervalPacket pkt;
    std::size_t i = 0;
    unsigned t = 0;
    double rate = measure(
        [&] {
            for (std::size_t k = 0; k < kCycle; ++k) {
                frame = stream[i++ & 511];
                serve::restampPacket(frame.data(), t, seq[t]++);
                ring.tryPush(
                    frame.data(),
                    static_cast<std::uint32_t>(frame.size()));
                ring.tryPop(popped);
                std::uint64_t tenant = 0;
                serve::peekPacketTenant(popped.data(),
                                        popped.size(), tenant);
                sched.stage(tenant, popped.data(), popped.size());
                if (++t == tenants)
                    t = 0;
            }
            sched.beginCycle();
            sched.drain(kCycle, [&](std::uint64_t tenant,
                                    const std::vector<std::uint8_t>
                                        &buf) {
                (void)tenant;
                serve::decodePacket(buf.data(), buf.size(), pkt);
                g_sink += registry.deliver(pkt);
            });
        },
        kCycle, min_time, repeats);
    return {"serve_fair", "tenants=" + std::to_string(tenants),
            "packets", rate};
}

/** Markov change-predictor update rate. */
BenchResult
benchChangePredictor(double min_time, int repeats)
{
    pred::ChangePredictor predictor(
        pred::ChangePredictorConfig::rle(2));
    Rng rng(std::uint64_t{5});
    std::vector<PhaseId> stream;
    PhaseId cur = 1;
    for (int i = 0; i < 4096; ++i) {
        stream.push_back(cur);
        if (rng.nextBool(0.2))
            cur = 1 + rng.nextBounded(8);
    }
    std::size_t i = 0;
    double rate = measure(
        [&] {
            auto out = predictor.observe(stream[i++ & 4095]);
            g_sink += out.has_value() ? 1 : 0;
        },
        1, min_time, repeats);
    return {"change_pred", "rle_order2", "observations", rate};
}

void
writeJson(const std::string &path,
          const std::vector<BenchResult> &results, double min_time,
          int repeats)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write " << path << "\n";
        std::exit(1);
    }
    out << "{\n  \"version\": 1,\n  \"min_time_sec\": " << min_time
        << ",\n  \"repeats\": " << repeats << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        out << "    {\"name\": \"" << r.name << "\", \"config\": \""
            << r.config << "\", \"unit\": \"" << r.unit
            << "\", \"items_per_sec\": " << std::uint64_t(r.itemsPerSec)
            << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"json", cli::Kind::Text,
          "write machine-readable results (default "
          "BENCH_throughput.json; '-' disables)"},
         {"min-time", cli::Kind::Real,
          "minimum seconds timed per repeat (default 0.3)"},
         {"repeats", cli::Kind::U32,
          "timed repeats per benchmark, best wins (default 3)"}});
    double min_time = args.getDouble("min-time", 0.3);
    int repeats = static_cast<int>(args.getU32("repeats", 3));
    std::string json_path = args.get("json", "BENCH_throughput.json");

    std::cerr << "[micro_throughput] simd level: "
              << simd::levelName(simd::active()) << "\n";

    std::vector<BenchResult> results;
    for (unsigned c : {16u, 32u, 64u})
        results.push_back(benchAccumUpdate(c, min_time, repeats));
    for (unsigned c : {16u, 32u, 64u})
        results.push_back(benchAccumBatched(c, min_time, repeats));
    for (unsigned c : {16u, 32u})
        results.push_back(
            benchSignatureCompress(c, min_time, repeats));
    for (unsigned d : {16u, 64u})
        results.push_back(
            benchSignatureDistance(d, min_time, repeats));
    for (unsigned e : {32u, 128u})
        results.push_back(benchMatchScan(e, min_time, repeats));
    results.push_back(benchClassifyLoop(min_time, repeats));
    results.push_back(benchClassifyOnline(min_time, repeats));
    results.push_back(benchChangePredictor(min_time, repeats));
    for (unsigned t : {1u, 4u, 16u})
        results.push_back(benchServeIngest(t, min_time, repeats));
    for (unsigned t : {1u, 4u, 16u})
        results.push_back(
            benchServeFairIngest(t, min_time, repeats));

    std::printf("%-14s %-14s %15s  %s\n", "benchmark", "config",
                "items/sec", "unit");
    for (const BenchResult &r : results)
        std::printf("%-14s %-14s %15.0f  %s/sec\n", r.name.c_str(),
                    r.config.c_str(), r.itemsPerSec, r.unit.c_str());

    if (json_path != "-") {
        writeJson(json_path, results, min_time, repeats);
        std::cerr << "[micro_throughput] wrote " << results.size()
                  << " results to " << json_path << "\n";
    }
    // Keep the sink observable so no benchmark body can be elided.
    std::fprintf(stderr, "[micro_throughput] sink=%llu\n",
                 static_cast<unsigned long long>(g_sink));
    return 0;
}
