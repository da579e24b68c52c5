/**
 * @file
 * Small helpers the benchmark's workloads share: percentile
 * selection, open-loop latency matching, failure accounting, metric
 * naming rules, content digests, and the one-line JSON result.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU time the calling thread has used so far (user + system),
 * seconds. Time the host takes the thread off its CPU — preemption,
 * a hypervisor's steal — does not count; contention for caches and
 * memory does. */
double threadCpuSeconds();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** True when @p name is a valid metric name: 1 to 64 characters from
 * [A-Za-z0-9_.-], starting with a letter or a digit. */
bool validMetricName(std::string_view name);

/** Nearest-rank percentile of an ascending-sorted sample, @p q in
 * (0, 1]. The sample must not be empty. */
double percentileSorted(const std::vector<double> &sorted, double q);

/** A tail percentile chosen for a sample of a given size. */
struct TailChoice
{
    /** Percentile level in (0, 1), e.g. 0.99. */
    double q = 0.5;
    /** Samples strictly beyond the chosen rank. */
    std::size_t beyond = 0;
};

/**
 * The highest of the levels 0.99, 0.95, 0.90, 0.75 and 0.50, none
 * above @p max_level, that leaves at least @p min_beyond of @p n
 * samples beyond its nearest rank. Falls back to the median when
 * even that leaves fewer.
 */
TailChoice chooseTail(std::size_t n, std::size_t min_beyond = 10,
                      double max_level = 0.99);

/** Median and tail of a latency sample, with its size. */
struct LatencySummary
{
    std::size_t samples = 0;
    double p50 = 0.0;
    TailChoice tail;
    double tailValue = 0.0;
};

/** Summarizes @p values (sorted in place), the tail level capped at
 * @p max_level. Empty input yields an all-zero summary. */
LatencySummary summarizeLatency(std::vector<double> &values,
                                double max_level = 0.99);

/** Median of @p values (sorted in place); 0 when empty. */
double median(std::vector<double> values);

/** One timed request of a workload. */
struct Request
{
    /** Latency, microseconds. */
    double latencyUs = 0.0;
    /** Work units it completed (instructions, intervals, packets). */
    double work = 0.0;
};

/** Requests a window needs so its p90 has ten samples beyond it. */
inline constexpr std::size_t kMinWindowRequests = 100;
/** Most windows a run is cut into. */
inline constexpr std::size_t kMaxWindows = 10;

/**
 * Request statistics made robust to bursts of interference from
 * other tenants of a shared host. The requests, in the order they
 * were issued, are cut into W consecutive windows of equal count
 * (W = n / kMinWindowRequests, between 1 and kMaxWindows); each
 * window gets its median, its tail (the level chooseTail() allows
 * for the smallest window, at most @p max_level) and its rate (work
 * over the sum of latencies). The summary is the median over the
 * windows of each: a burst that slows fewer than half the windows
 * does not move it, while a slowdown of most of the run — the
 * program's own, or the host's — does.
 */
struct WindowedSummary
{
    std::size_t samples = 0;
    std::size_t windows = 0;
    TailChoice tail;
    double p50 = 0.0;
    double tailValue = 0.0;
    /** Work per second. */
    double rate = 0.0;
};

WindowedSummary summarizeWindows(const std::vector<Request> &requests,
                                 double max_level);

/**
 * Open-loop delivery matcher. The generator registers each packet's
 * due time per tenant in push order; after every drain cycle the
 * caller reports a tenant's delivered-packet count and the cycle's
 * end time, and each newly delivered packet's latency is taken from
 * its due time — not from when it was actually pushed, so a late
 * generator or a stalled service shows up in the latency.
 */
class DeliveryMatcher
{
  public:
    /** A packet for @p tenant became due at @p due. */
    void onDue(std::uint64_t tenant, Clock::time_point due);

    /**
     * @p tenant has now had @p delivered_total packets delivered in
     * all (a monotonic counter); the newly delivered ones completed
     * at @p done. Returns how many were newly matched.
     */
    std::size_t onDelivered(std::uint64_t tenant,
                            std::uint64_t delivered_total,
                            Clock::time_point done);

    /** Packets due but not yet delivered. */
    std::size_t outstanding() const { return outstanding_; }

    /** Latencies of matched packets, microseconds, match order. */
    const std::vector<double> &latenciesUs() const { return lat_; }

    /** Tenants with at least one packet outstanding. */
    std::vector<std::uint64_t> pendingTenants() const;

  private:
    struct Pending
    {
        std::deque<Clock::time_point> due;
        std::uint64_t matched = 0;
    };
    std::unordered_map<std::uint64_t, Pending> byTenant_;
    std::set<std::uint64_t> pending_;
    std::size_t outstanding_ = 0;
    std::vector<double> lat_;
};

/** Failed and attempted operations of a run. */
struct OpTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** failed / attempted (0 when nothing was attempted). */
    double failFraction() const;
    void add(const OpTally &o);
};

/** The refused-or-lost packet terms of the serve conservation
 * identity. */
struct ServeLosses
{
    std::uint64_t malformed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t quarantineDrops = 0;
    std::uint64_t producerDrops = 0;
};

/** Serve accounting: @p pushed attempts, every loss term failed. */
OpTally serveTally(std::uint64_t pushed, const ServeLosses &l);

/** 64-bit FNV-1a, chainable through @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** Hex rendering of a digest. */
std::string hex64(std::uint64_t v);

/** Full-precision rendering of a double (round-trips exactly). */
std::string fullDouble(double v);

/**
 * The result line: one JSON object with exactly the keys correct,
 * attempted, failed and metrics. Raises std::invalid_argument on an
 * invalid or repeated metric name or a non-finite value.
 */
std::string resultJson(bool correct, const OpTally &ops,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
