/**
 * @file
 * Chaos sweep: scores the streaming service's overload and damage
 * resilience with deterministic lockstep cells — push a scripted
 * packet schedule, run drain cycles inline (ServiceLoop::runCycle),
 * and measure what the counters say. No wall clock, no real producer
 * threads, no RNG outside the fault injector's own PCG stream, so
 * every cell's metrics are bit-identical at any --jobs count.
 *
 * Cells:
 *  - fairness:   64 co-tenants on 4 partitions, one sig-collision
 *                aggressor (workload/adversarial) offering 2x the
 *                partition's service budget. Jain's fairness index
 *                over per-tenant delivered counts, baseline FIFO
 *                drain vs rate-limit + DRR.
 *  - overload:   uniform 1x/2x/4x offered load against a fixed cycle
 *                budget; goodput degrades smoothly, Jain stays flat,
 *                and the conservation identity pushed == delivered +
 *                malformed + rejected + shed + quarantine-drops holds
 *                exactly at every multiplier.
 *  - quarantine: a malformed-frame flood trips quarantine; the
 *                backoff expires and the tenant is readmitted; every
 *                co-tenant's phase-ID stream stays byte-identical to
 *                the batch path throughout.
 *  - migration:  a mid-run migrate-out / migrate-in handoff replays
 *                to the exact batch phase streams, and a campaign of
 *                damaged bundles (torn manifest, flipped or missing
 *                checkpoint, missing manifest) is rejected with
 *                nothing partially applied.
 *  - checkpoint-chaos: eviction churn with the ServeCheckpoint and
 *                ServeFrame fault targets armed; every torn or
 *                corrupt checkpoint resume fails recoverably and the
 *                conservation identity still closes.
 *
 * `--floors=FILE` turns the sweep into a CI tripwire: each `metric
 * min_value` line must be met by the produced metric of that name;
 * exit 1 on any violation or on any floor naming an unknown metric.
 *
 * Options (beyond the shared --jobs):
 *   --cycles=N     push cycles for the fairness cell (default 400)
 *   --floors=FILE  floor file (`metric min_value` lines, # comments)
 *   --json=PATH    metric dump (default chaos_sweep.json;
 *                  '-' disables)
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "bench_common.hh"
#include "common/ascii_table.hh"
#include "common/json.hh"
#include "common/status.hh"
#include "fault/injector.hh"
#include "serve/migration.hh"
#include "serve/service.hh"
#include "workload/adversarial.hh"

using namespace tpcp;
using namespace tpcp::serve;

namespace
{

/** One scored metric (what the floors file keys on). */
struct Metric
{
    std::string cell;
    std::string name;
    double value = 0.0;
};

std::string
toJson(const Metric &m)
{
    return json::Object(json::Real::G6)
        .field("cell", m.cell)
        .field("metric", m.name)
        .field("value", m.value)
        .str();
}

/** Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = equal
 * shares, 1/n = one tenant took everything. */
double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0.0, sq = 0.0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    if (sq == 0.0)
        return 1.0;
    return sum * sum / (static_cast<double>(xs.size()) * sq);
}

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("tpcp_chaos_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** The zero-silent-loss identity every cell closes with. */
double
conservation(const ServeCounters &c, std::uint64_t pushed)
{
    const std::uint64_t accounted =
        c.packets + c.malformedPackets + c.rejectedPackets +
        c.shedPackets + c.quarantineDrops;
    return accounted == pushed ? 1.0 : 0.0;
}

/** Pushes one frame, restamped for (tenant, seq); a full ring is a
 * counted producer-side drop, exactly like BackpressurePolicy::Drop
 * (the sequence still advances, so the consumer sees the gap). */
bool
pushFrame(ServiceLoop &loop, unsigned partition,
          std::vector<std::uint8_t> &scratch,
          const std::vector<std::uint8_t> &frame,
          std::uint64_t tenant, std::uint64_t seq)
{
    scratch = frame;
    restampPacket(scratch.data(), tenant, seq);
    return loop.ring(partition).tryPush(
        scratch.data(), static_cast<std::uint32_t>(scratch.size()));
}

/** Signals every producer done and drains the service to empty. */
void
drainToCompletion(ServiceLoop &loop)
{
    for (unsigned p = 0; p < loop.numPartitions(); ++p)
        loop.producerDone(p);
    while (loop.runCycle() != 0) {
    }
}

/** Per-tenant delivered counts over [0, tenants). */
std::vector<double>
deliveredPerTenant(const ServiceLoop &loop, std::uint64_t tenants)
{
    std::vector<double> out(tenants, 0.0);
    for (std::uint64_t t : loop.allTenantIds())
        if (t < tenants)
            out[static_cast<std::size_t>(t)] = static_cast<double>(
                loop.tenantCounters(t).packets);
    return out;
}

/**
 * The fairness cell: tenant t lives on partition t % 4; tenant 0 is
 * the aggressor, replaying the sig-collision adversarial stream at
 * 17 frames/cycle while every co-tenant offers 1/cycle — partition 0
 * sees 2x its 16-frame service budget. Returns the Jain index over
 * all 64 delivered counts plus the conservation bit.
 */
std::vector<Metric>
runFairnessCell(std::size_t cycles, bool resilient,
                double &jain_out)
{
    constexpr unsigned kPartitions = 4;
    constexpr std::uint64_t kTenants = 64;
    constexpr std::uint64_t kAggressor = 0;
    constexpr std::size_t kAggressorRate = 17;
    constexpr std::uint64_t kBudget = 16;

    ServeOptions opts;
    opts.producers = kPartitions;
    opts.registry.maxResident = 32;
    opts.registry.checkpointDir =
        scratchDir(resilient ? "fair_res" : "fair_base");
    if (resilient) {
        opts.fairness.ratePerCycle = 1;
        opts.fairness.burst = 2;
        opts.fairness.drrQuantum = 1;
        opts.fairness.maxBacklog = 8;
        opts.fairness.cycleBudget = kBudget;
    } else {
        // The baseline models the same service capacity the only way
        // FIFO can: a 16-frame drain batch and a small ring, so the
        // aggressor's burst crowds the co-tenants out at the ring.
        opts.drainBatch = kBudget;
        opts.ringBytes = 1u << 16;
    }
    ServiceLoop loop(opts);

    const unsigned dims =
        opts.registry.tracker.classifier.numCounters;
    workload::AdversarialSpec aspec;
    aspec.family = "sig-collision";
    aspec.intervals = 600;
    const EncodedStream aggressor = encodeProfileStream(
        workload::makeAdversarial(aspec).profile, dims, 0);
    std::vector<EncodedStream> victims;
    victims.reserve(kTenants);
    for (std::uint64_t t = 0; t < kTenants; ++t)
        victims.push_back(
            encodeSyntheticStream(100 + t, cycles, dims));

    std::uint64_t pushed = 0;
    std::vector<std::uint8_t> scratch;
    std::uint64_t aggressor_seq = 0;
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        // The aggressor shouts first each cycle (greedy arrival).
        for (std::size_t k = 0; k < kAggressorRate; ++k) {
            const auto &frame =
                aggressor[aggressor_seq % aggressor.size()];
            if (pushFrame(loop, 0, scratch, frame, kAggressor,
                          aggressor_seq))
                ++pushed;
            ++aggressor_seq;
        }
        for (std::uint64_t t = 1; t < kTenants; ++t)
            if (pushFrame(loop, t % kPartitions, scratch,
                          victims[t][cycle], t, cycle))
                ++pushed;
        loop.runCycle();
    }
    drainToCompletion(loop);

    const std::string mode = resilient ? "resilient" : "baseline";
    jain_out = jainIndex(deliveredPerTenant(loop, kTenants));
    std::vector<Metric> ms;
    ms.push_back({"fairness", "fairness_" + mode + "_jain",
                  jain_out});
    ms.push_back({"fairness", "fairness_" + mode + "_conservation",
                  conservation(loop.counters(), pushed)});
    return ms;
}

/** Uniform overload: 16 tenants each offering `mult` frames/cycle
 * against a 16-frame budget at rate 1/tenant. */
std::vector<Metric>
runOverloadCell(std::size_t cycles)
{
    constexpr std::uint64_t kTenants = 16;
    std::vector<Metric> ms;
    for (std::uint64_t mult : {1u, 2u, 4u}) {
        ServeOptions opts;
        opts.producers = 1;
        opts.registry.maxResident = kTenants;
        opts.fairness.ratePerCycle = 1;
        opts.fairness.burst = 2;
        opts.fairness.drrQuantum = 1;
        opts.fairness.maxBacklog = 4;
        opts.fairness.cycleBudget = kTenants;
        ServiceLoop loop(opts);

        const unsigned dims =
            opts.registry.tracker.classifier.numCounters;
        std::vector<EncodedStream> streams;
        for (std::uint64_t t = 0; t < kTenants; ++t)
            streams.push_back(encodeSyntheticStream(
                300 + t, cycles * mult, dims));

        std::uint64_t pushed = 0, offered = 0;
        std::vector<std::uint8_t> scratch;
        for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
            for (std::uint64_t t = 0; t < kTenants; ++t)
                for (std::uint64_t k = 0; k < mult; ++k) {
                    const std::uint64_t seq = cycle * mult + k;
                    ++offered;
                    if (pushFrame(loop, 0, scratch,
                                  streams[t][seq], t, seq))
                        ++pushed;
                }
            loop.runCycle();
        }
        drainToCompletion(loop);

        const ServeCounters c = loop.counters();
        const std::string tag =
            "overload_x" + std::to_string(mult) + "_";
        ms.push_back({"overload", tag + "jain",
                      jainIndex(deliveredPerTenant(loop, kTenants))});
        ms.push_back({"overload", tag + "goodput",
                      offered == 0 ? 0.0
                                   : static_cast<double>(c.packets) /
                                         static_cast<double>(offered)});
        ms.push_back({"overload", tag + "conservation",
                      conservation(c, pushed)});
    }
    return ms;
}

/** Malformed-flood quarantine: trip it, serve the backoff, readmit —
 * with every co-tenant's phase stream staying batch-identical. */
std::vector<Metric>
runQuarantineCell()
{
    constexpr std::uint64_t kTenants = 8;
    constexpr std::uint64_t kAggressor = 0;
    constexpr std::size_t kCycles = 48;
    constexpr std::size_t kMalformedCycles = 8;

    ServeOptions opts;
    opts.producers = 1;
    opts.registry.maxResident = kTenants;
    opts.registry.recordPhases = true;
    opts.registry.checkpointDir = scratchDir("quarantine");
    opts.registry.quarantine.offenseThreshold = 4;
    opts.registry.quarantine.offenseWindow = 256;
    opts.registry.quarantine.backoffBase = 64;
    opts.fairness.cycleBudget = 64; // staging path, ample budget
    ServiceLoop loop(opts);

    const unsigned dims =
        opts.registry.tracker.classifier.numCounters;
    std::vector<EncodedStream> streams;
    for (std::uint64_t t = 0; t < kTenants; ++t)
        streams.push_back(
            encodeSyntheticStream(500 + t, kCycles, dims));

    std::uint64_t pushed = 0;
    std::vector<std::uint8_t> scratch;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        // The aggressor floods malformed frames (readable header,
        // truncated payload) first, then behaves; co-tenants are
        // clean throughout.
        scratch = streams[kAggressor][cycle];
        restampPacket(scratch.data(), kAggressor, cycle);
        if (cycle < kMalformedCycles)
            scratch.resize(kPacketHeaderBytes + 12);
        if (loop.ring(0).tryPush(
                scratch.data(),
                static_cast<std::uint32_t>(scratch.size())))
            ++pushed;
        for (std::uint64_t t = 1; t < kTenants; ++t)
            if (pushFrame(loop, 0, scratch, streams[t][cycle], t,
                          cycle))
                ++pushed;
        loop.runCycle();
    }
    drainToCompletion(loop);

    const ServeCounters c = loop.counters();
    const bool transitions = c.quarantines >= 1 &&
                             c.quarantineDrops >= 1 &&
                             c.readmissions >= 1;
    bool identity = true;
    for (std::uint64_t t = 1; t < kTenants; ++t)
        identity = identity &&
                   loop.phaseStream(t) ==
                       batchPhaseStream(streams[t],
                                        opts.registry.tracker);
    return {{"quarantine", "quarantine_transitions",
             transitions ? 1.0 : 0.0},
            {"quarantine", "quarantine_identity",
             identity ? 1.0 : 0.0},
            {"quarantine", "quarantine_conservation",
             conservation(c, pushed)}};
}

/** Lockstep replay of intervals [from, to) for every tenant. */
std::uint64_t
feedRange(ServiceLoop &loop, const std::vector<EncodedStream> &streams,
          std::size_t from, std::size_t to)
{
    std::uint64_t pushed = 0;
    std::vector<std::uint8_t> scratch;
    for (std::size_t i = from; i < to; ++i) {
        for (std::uint64_t t = 0; t < streams.size(); ++t)
            if (pushFrame(loop,
                          static_cast<unsigned>(
                              t % loop.numPartitions()),
                          scratch, streams[t][i], t, i))
                ++pushed;
        loop.runCycle();
    }
    drainToCompletion(loop);
    return pushed;
}

/** Applies one bundle-damage shape to a pristine copy. */
void
damageBundle(const std::string &bundle, std::size_t variant)
{
    namespace fs = std::filesystem;
    const std::string manifest =
        bundle + "/" + std::string(kMigrationManifest);
    auto rewrite = [](const std::string &path, std::size_t keep,
                      int flip_at) {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
        in.close();
        if (keep < bytes.size())
            bytes.resize(keep);
        if (flip_at >= 0 &&
            static_cast<std::size_t>(flip_at) < bytes.size())
            bytes[static_cast<std::size_t>(flip_at)] ^= 0x20;
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    switch (variant) {
    case 0: rewrite(manifest, 0, -1); break;           // empty
    case 1: rewrite(manifest, 7, -1); break;           // torn header
    case 2: rewrite(manifest, ~std::size_t{0}, 9); break; // bit flip
    case 3: fs::remove(manifest); break;               // no commit
    case 4: // truncated tenant checkpoint
        rewrite(bundle + "/" + tenantCheckpointFile(1), 10, -1);
        break;
    case 5: // bit-flipped tenant checkpoint
        rewrite(bundle + "/" + tenantCheckpointFile(2),
                ~std::size_t{0}, 40);
        break;
    default: // missing tenant checkpoint
        fs::remove(bundle + "/" + tenantCheckpointFile(3));
        break;
    }
}

/** Migration round-trip identity plus the damaged-bundle campaign. */
std::vector<Metric>
runMigrationCell()
{
    constexpr std::uint64_t kTenants = 6;
    constexpr std::size_t kPackets = 60;
    constexpr std::size_t kHandoff = 30;
    constexpr std::size_t kDamageVariants = 7;

    ServeOptions opts;
    opts.producers = 2;
    opts.registry.maxResident = kTenants;
    opts.registry.recordPhases = true;
    opts.registry.checkpointDir = scratchDir("mig_src");

    const unsigned dims =
        opts.registry.tracker.classifier.numCounters;
    std::vector<EncodedStream> streams;
    for (std::uint64_t t = 0; t < kTenants; ++t)
        streams.push_back(
            encodeSyntheticStream(700 + t, kPackets, dims));

    ServiceLoop src(opts);
    std::uint64_t pushed = feedRange(src, streams, 0, kHandoff);
    const std::string bundle = scratchDir("mig_bundle");
    src.migrateOut(bundle);

    // Round trip: adopt, replay the tail, compare against batch.
    ServeOptions dopts = opts;
    dopts.registry.checkpointDir = scratchDir("mig_dst");
    ServiceLoop dst(dopts);
    bool identity = dst.migrateIn(bundle) == kTenants;
    pushed += feedRange(dst, streams, kHandoff, kPackets);
    for (std::uint64_t t = 0; t < kTenants; ++t) {
        std::vector<PhaseId> joined = src.phaseStream(t);
        const std::vector<PhaseId> &tail = dst.phaseStream(t);
        joined.insert(joined.end(), tail.begin(), tail.end());
        identity = identity &&
                   joined == batchPhaseStream(streams[t],
                                              opts.registry.tracker);
    }
    const std::uint64_t delivered = src.counters().packets +
                                    dst.counters().packets;

    // Damage campaign: every variant must be rejected with nothing
    // partially applied.
    std::size_t rejected = 0;
    for (std::size_t v = 0; v < kDamageVariants; ++v) {
        const std::string copy =
            scratchDir("mig_dmg_" + std::to_string(v));
        std::filesystem::copy(
            bundle, copy,
            std::filesystem::copy_options::overwrite_existing);
        damageBundle(copy, v);
        ServeOptions vopts = opts;
        vopts.registry.checkpointDir =
            scratchDir("mig_dmg_ckpt_" + std::to_string(v));
        ServiceLoop victim(vopts);
        try {
            victim.migrateIn(copy);
        } catch (const Error &) {
            if (victim.allTenantIds().empty())
                ++rejected;
        }
    }

    return {{"migration", "migration_identity",
             identity ? 1.0 : 0.0},
            {"migration", "migration_damage_rejected",
             static_cast<double>(rejected) /
                 static_cast<double>(kDamageVariants)},
            {"migration", "migration_conservation",
             delivered == pushed ? 1.0 : 0.0}};
}

/** Eviction churn with the serve fault targets armed: torn, flipped,
 * emptied and deleted checkpoints plus frame bit flips, all counted,
 * none fatal, conservation exact. */
std::vector<Metric>
runCheckpointChaosCell()
{
    constexpr std::uint64_t kTenants = 10;
    constexpr std::size_t kCycles = 240;

    ServeOptions opts;
    opts.producers = 1;
    opts.registry.maxResident = 3; // three slots, ten tenants: churn
    opts.registry.checkpointDir = scratchDir("ckpt_chaos");
    ServiceLoop loop(opts);

    // Target::All arms both serve hooks: checkpoint writes may be
    // torn/flipped/emptied/deleted, popped frames may take bit
    // flips. (The tracker-level targets in All are reached only via
    // beforeInterval, which the serve path never calls.)
    fault::InjectorConfig fcfg;
    fcfg.target = fault::Target::All;
    fcfg.ratePerInterval = 0.25;
    fault::Injector ckpt_injector(fcfg, "chaos/ckpt");
    loop.setFaultInjector(0, &ckpt_injector);

    const unsigned dims =
        opts.registry.tracker.classifier.numCounters;
    std::vector<EncodedStream> streams;
    for (std::uint64_t t = 0; t < kTenants; ++t)
        streams.push_back(
            encodeSyntheticStream(900 + t, kCycles, dims));

    std::uint64_t pushed = 0;
    std::vector<std::uint8_t> scratch;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        for (std::uint64_t t = 0; t < kTenants; ++t)
            if (pushFrame(loop, 0, scratch, streams[t][cycle], t,
                          cycle))
                ++pushed;
        loop.runCycle();
    }
    drainToCompletion(loop);

    const ServeCounters c = loop.counters();
    const std::uint64_t faults =
        ckpt_injector.counts().serveCheckpointFaults;
    return {{"checkpoint-chaos", "checkpoint_chaos_faults",
             static_cast<double>(faults)},
            {"checkpoint-chaos", "checkpoint_chaos_failures_counted",
             faults == 0 || c.resumeFailures > 0 ? 1.0 : 0.0},
            {"checkpoint-chaos", "checkpoint_chaos_conservation",
             conservation(c, pushed)}};
}

} // namespace

int
main(int argc, char **argv)
{
    cli::ParsedArgs args = bench::parseArgs(
        argc, argv,
        {{"cycles", cli::Kind::U64,
          "push cycles for the fairness cell (default 400)"},
         {"floors", cli::Kind::Text,
          "floor file (metric min_value per line); exit 1 on "
          "violation"},
         {"json", cli::Kind::Text,
          "write metrics as JSON (default chaos_sweep.json; "
          "'-' disables)"}});

    int rc = 0;
    try {
        const std::size_t cycles = args.getU64("cycles", 400);
        const std::string json_path =
            args.get("json", "chaos_sweep.json");

        bench::banner("Chaos sweep",
                      "overload fairness, quarantine, migration and "
                      "checkpoint-damage resilience");

        double base_jain = 0.0, res_jain = 0.0;
        auto cells = analysis::runIndexed(
            6, args.jobs(),
            [&](std::size_t i) -> std::vector<Metric> {
                switch (i) {
                case 0:
                    return runFairnessCell(cycles, false, base_jain);
                case 1:
                    return runFairnessCell(cycles, true, res_jain);
                case 2: return runOverloadCell(cycles / 2);
                case 3: return runQuarantineCell();
                case 4: return runMigrationCell();
                default: return runCheckpointChaosCell();
                }
            });

        std::vector<Metric> metrics;
        for (const auto &cell : cells)
            metrics.insert(metrics.end(), cell.begin(), cell.end());

        AsciiTable table({"cell", "metric", "value"});
        for (const Metric &m : metrics) {
            std::ostringstream v;
            v << m.value;
            table.row().cell(m.cell).cell(m.name).cell(v.str());
        }
        table.print(std::cout);
        std::cout << "\nfairness: baseline jain " << base_jain
                  << " -> resilient jain " << res_jain << "\n";

        if (json_path != "-") {
            json::writeFile(json_path, json::lines(metrics));
            std::cout << "wrote " << metrics.size()
                      << " metrics to " << json_path << "\n";
        }

        if (args.has("floors")) {
            const auto floors = bench::loadFloors(
                args.get("floors", ""), 1, "metric min_value");
            std::map<std::string, double> byName;
            for (const Metric &m : metrics)
                byName[m.name] = m.value;
            unsigned violations = 0;
            for (const auto &[metric, values] : floors) {
                const double floor = values[0];
                auto it = byName.find(metric);
                if (it == byName.end())
                    tpcp_raise("floors file names unknown metric '",
                               metric, "'");
                if (it->second < floor) {
                    std::cerr << "error: " << metric << " "
                              << it->second << " below floor "
                              << floor << "\n";
                    ++violations;
                }
            }
            if (violations != 0) {
                std::cerr << "error: " << violations
                          << " floor violation(s)\n";
                rc = 1;
            } else {
                std::cout << "all " << floors.size()
                          << " floored metrics hold\n";
            }
        }
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        rc = 1;
    }
    return rc;
}
