/**
 * @file
 * Synthetic packet producers for the streaming service.
 *
 * A producer owns one SpscRing and replays pre-encoded interval
 * streams to its assigned tenants, round-robin, so thousands of
 * tenants interleave the way many concurrent instruction streams
 * would. Streams are pre-encoded once and shared: pushing a packet
 * re-stamps a template frame's tenant field into a scratch buffer,
 * so tenants replaying the same workload share payload memory.
 *
 * Backpressure is explicit and fully counted. Park mode retries a
 * full ring (parkEvents counts the stalls) and, by default, loses
 * nothing; with a park retry budget set, a push that stays blocked
 * past the budget escalates to a counted drop — backoff starts with
 * plain yields and stretches into exponentially growing sleeps, so a
 * wedged consumer costs the producer bounded CPU and bounded wait,
 * never a livelock. Drop mode skips the packet and counts it
 * immediately. Either way the sequence number still advances, so the
 * consumer observes the gap and mirrors the loss in its own
 * counters — no packet is ever lost silently.
 *
 * Stream content depends only on (stream index), and a tenant's
 * stream index depends only on its id, so per-tenant packet
 * sequences — and the phase-ID streams they produce — are identical
 * at any producer count.
 */

#ifndef TPCP_SERVE_PRODUCER_HH
#define TPCP_SERVE_PRODUCER_HH

#include <cstdint>
#include <vector>

#include "serve/ring_buffer.hh"
#include "trace/interval_profile.hh"

namespace tpcp::serve
{

/** A pre-encoded packet stream: one frame per interval, stamped
 * tenant 0 / seq == index; reused across tenants via restamp. */
using EncodedStream = std::vector<std::vector<std::uint8_t>>;

/**
 * Encodes a stored interval profile as a packet stream at accumulator
 * dimensionality @p num_counters (must be one of the profile's
 * recorded dims). At most @p max_packets intervals (0 = all).
 */
EncodedStream encodeProfileStream(const trace::IntervalProfile &prof,
                                  unsigned num_counters,
                                  std::size_t max_packets);

/**
 * Generates a deterministic synthetic stream of @p packets intervals
 * at @p num_counters counters: dwelling phase shapes with occasional
 * moves, the same model perfbench's serve workloads use. Depends only
 * on the arguments, so any producer layout replays identical streams.
 */
EncodedStream encodeSyntheticStream(std::uint64_t stream_seed,
                                    std::size_t packets,
                                    unsigned num_counters);

/** How a producer reacts to a full ring. */
enum class BackpressurePolicy
{
    /** Retry until space frees up: lossless. */
    Park,
    /** Count the packet as dropped and move on: lossy but visibly
     * so (the consumer sees the sequence gap). */
    Drop,
};

/** What one producer run did (all packets accounted for). */
struct ProducerCounters
{
    std::uint64_t pushed = 0;
    std::uint64_t dropped = 0;
    /** Full-ring stall events in Park mode (retries, not losses). */
    std::uint64_t parkEvents = 0;
    std::uint64_t bytes = 0;
    /** Per-tenant breakdown, parallel to the task's tenant list —
     * the service attributes these into TenantCounters after the
     * producer joins. */
    std::vector<std::uint64_t> tenantPushed;
    std::vector<std::uint64_t> tenantDropped;
    std::vector<std::uint64_t> tenantParks;
};

/** One producer's work order. */
struct ProducerTask
{
    SpscRing *ring = nullptr;
    /** Tenants this producer feeds. */
    std::vector<std::uint64_t> tenants;
    /** Per-tenant stream, parallel to tenants (borrowed). */
    std::vector<const EncodedStream *> streams;
    BackpressurePolicy policy = BackpressurePolicy::Park;
    /** Park retry budget per packet (0 = park forever, the lossless
     * default). When exhausted, the push escalates to a counted
     * drop. */
    std::uint64_t parkRetryLimit = 0;
    /** Park retries served as plain yields before backoff sleeping
     * starts. */
    std::uint64_t parkYields = 64;
    /** First backoff sleep, microseconds; doubles per retry up to
     * parkMaxSleepUs. */
    std::uint64_t parkSleepUs = 1;
    std::uint64_t parkMaxSleepUs = 1024;
    /** First stream interval to replay (sequence numbers are
     * absolute stream indices, so a migrated-in service replaying
     * from here continues the exact sequence the source left off
     * at). */
    std::size_t startStep = 0;
};

/**
 * Replays every tenant's stream into the ring, round-robin across
 * tenants (one packet each per pass). Runs to completion; call from
 * a dedicated thread.
 */
ProducerCounters runProducer(const ProducerTask &task);

} // namespace tpcp::serve

#endif // TPCP_SERVE_PRODUCER_HH
