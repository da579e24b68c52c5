/**
 * @file
 * Tests of the benchmark's own helpers: percentile selection,
 * open-loop latency matching, metric-name validation, failure
 * accounting and the result line.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "tracer.hh"

namespace perfbench
{
namespace
{

TEST(ChooseTail, HighestLevelWithTenBeyond)
{
    // 1000 samples: p99 is rank 990, exactly 10 beyond.
    EXPECT_DOUBLE_EQ(chooseTail(1000).q, 0.99);
    EXPECT_EQ(chooseTail(1000).beyond, 10u);
    // 999 samples: p99 leaves only 9 beyond, p95 leaves 49.
    EXPECT_DOUBLE_EQ(chooseTail(999).q, 0.95);
    EXPECT_DOUBLE_EQ(chooseTail(200).q, 0.95);
    EXPECT_DOUBLE_EQ(chooseTail(100).q, 0.90);
    EXPECT_DOUBLE_EQ(chooseTail(40).q, 0.75);
    // Too few for any tail: the median.
    EXPECT_DOUBLE_EQ(chooseTail(12).q, 0.5);
    EXPECT_EQ(chooseTail(0).beyond, 0u);
}

TEST(ChooseTail, RespectsCustomMinimum)
{
    EXPECT_DOUBLE_EQ(chooseTail(100, 1).q, 0.99);
    EXPECT_DOUBLE_EQ(chooseTail(100, 5).q, 0.95);
}

TEST(ChooseTail, CappedLevel)
{
    // 10000 samples support p99, but the cap holds the level at p90.
    EXPECT_DOUBLE_EQ(chooseTail(10000, 10, 0.90).q, 0.90);
    EXPECT_EQ(chooseTail(10000, 10, 0.90).beyond, 1000u);
    // Below the cap the ten-beyond rule still decides.
    EXPECT_DOUBLE_EQ(chooseTail(40, 10, 0.90).q, 0.75);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 1.0), 100.0);
    EXPECT_THROW(percentileSorted({}, 0.5), std::invalid_argument);
}

TEST(Percentile, SummaryStatesSampleCount)
{
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i)
        v.push_back(999 - i);
    const LatencySummary s = summarizeLatency(v);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_DOUBLE_EQ(s.p50, 499.0);
    EXPECT_DOUBLE_EQ(s.tail.q, 0.99);
    EXPECT_DOUBLE_EQ(s.tailValue, 989.0);
}

TEST(Windows, CountFollowsSampleSize)
{
    std::vector<Request> r(99, Request{10.0, 1.0});
    EXPECT_EQ(summarizeWindows(r, 0.90).windows, 1u);
    r.resize(350, Request{10.0, 1.0});
    EXPECT_EQ(summarizeWindows(r, 0.90).windows, 3u);
    r.resize(5000, Request{10.0, 1.0});
    const WindowedSummary s = summarizeWindows(r, 0.90);
    EXPECT_EQ(s.windows, kMaxWindows);
    EXPECT_EQ(s.samples, 5000u);
    EXPECT_DOUBLE_EQ(s.tail.q, 0.90);
    EXPECT_DOUBLE_EQ(s.p50, 10.0);
    // One work unit per 10 us.
    EXPECT_DOUBLE_EQ(s.rate, 1e5);
    EXPECT_TRUE(summarizeWindows({}, 0.90).windows == 0);
}

/** Ten windows of 100 requests, 10 us each with a 50 us tenth; the
 * windows in @p slowed run 3x slower. */
std::vector<Request>
tenWindows(const std::set<int> &slowed)
{
    std::vector<Request> r;
    for (int w = 0; w < 10; ++w)
        for (int i = 0; i < 100; ++i) {
            const double us = (i % 10 == 9 ? 50.0 : 10.0) *
                              (slowed.count(w) ? 3.0 : 1.0);
            r.push_back({us, 1.0});
        }
    return r;
}

TEST(Windows, BurstOfInterferenceDoesNotMoveTheSummary)
{
    // A burst that slows three of ten windows.
    const WindowedSummary s = summarizeWindows(tenWindows({2, 3, 4}), 0.90);
    EXPECT_EQ(s.windows, 10u);
    EXPECT_DOUBLE_EQ(s.p50, 10.0);
    // p90 of a clean window: rank 90 of 100 is still a 10 us one.
    EXPECT_DOUBLE_EQ(s.tailValue, 10.0);
    EXPECT_DOUBLE_EQ(s.rate, 100.0 / (90 * 10.0 + 10 * 50.0) * 1e6);
}

TEST(Windows, SlowdownOfMostOfTheRunMovesTheSummary)
{
    // A regression that spares four windows still shows in full.
    const WindowedSummary s =
        summarizeWindows(tenWindows({0, 1, 2, 3, 4, 6, 8}), 0.90);
    EXPECT_DOUBLE_EQ(s.p50, 30.0);
    EXPECT_DOUBLE_EQ(s.tailValue, 30.0);
    EXPECT_DOUBLE_EQ(s.rate, 100.0 / (90 * 30.0 + 10 * 150.0) * 1e6);
}

TEST(ThreadCpu, CountsWorkNotWaiting)
{
    const double t0 = threadCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double t1 = threadCpuSeconds();
    EXPECT_LT(t1 - t0, 0.02);
    volatile double x = 0.0;
    while (threadCpuSeconds() - t1 < 0.01)
        x = x + 1.0;
    EXPECT_GE(threadCpuSeconds() - t1, 0.01);
}

TEST(Median, EvenAndOdd)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(DeliveryMatcher, LatencyRunsFromDueTime)
{
    DeliveryMatcher m;
    const Clock::time_point t0{};
    using us = std::chrono::microseconds;
    // Two packets for tenant 7, due at 0 and 100 us. The generator
    // pushed them late, but latency counts from the due time.
    m.onDue(7, t0);
    m.onDue(7, t0 + us(100));
    EXPECT_EQ(m.outstanding(), 2u);
    // The first cycle delivers one packet, ending at 250 us.
    EXPECT_EQ(m.onDelivered(7, 1, t0 + us(250)), 1u);
    // Re-reporting the same counter matches nothing new.
    EXPECT_EQ(m.onDelivered(7, 1, t0 + us(300)), 0u);
    EXPECT_EQ(m.onDelivered(7, 2, t0 + us(400)), 1u);
    ASSERT_EQ(m.latenciesUs().size(), 2u);
    EXPECT_DOUBLE_EQ(m.latenciesUs()[0], 250.0);
    EXPECT_DOUBLE_EQ(m.latenciesUs()[1], 300.0);
    EXPECT_EQ(m.outstanding(), 0u);
    EXPECT_TRUE(m.pendingTenants().empty());
}

TEST(DeliveryMatcher, TracksTenantsSeparately)
{
    DeliveryMatcher m;
    const Clock::time_point t0{};
    m.onDue(1, t0);
    m.onDue(2, t0);
    EXPECT_EQ(m.pendingTenants(), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(m.onDelivered(2, 1, t0), 1u);
    EXPECT_EQ(m.pendingTenants(), (std::vector<std::uint64_t>{1}));
    // An unknown tenant and a counter beyond what was sent.
    EXPECT_EQ(m.onDelivered(9, 5, t0), 0u);
    EXPECT_EQ(m.onDelivered(1, 5, t0), 1u);
    EXPECT_EQ(m.outstanding(), 0u);
}

TEST(MetricName, Validation)
{
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_TRUE(validMetricName("serve.registry.evict_us"));
    EXPECT_TRUE(validMetricName("uarch.sim_cpi.gcc_1"));
    EXPECT_TRUE(validMetricName("9-lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("gcc/1"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("_leading_underscore"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(FailureAccounting, ServeTallyCountsEveryLossTerm)
{
    ServeLosses l;
    l.malformed = 1;
    l.rejected = 2;
    l.shed = 3;
    l.quarantineDrops = 4;
    l.producerDrops = 5;
    const OpTally t = serveTally(100, l);
    EXPECT_EQ(t.attempted, 100u);
    EXPECT_EQ(t.failed, 15u);
    EXPECT_DOUBLE_EQ(t.failFraction(), 0.15);
}

TEST(FailureAccounting, EmptyAndMerged)
{
    OpTally t;
    EXPECT_DOUBLE_EQ(t.failFraction(), 0.0);
    t.add({10, 1});
    t.add({30, 0});
    EXPECT_EQ(t.attempted, 40u);
    EXPECT_DOUBLE_EQ(t.failFraction(), 0.025);
}

TEST(ResultJson, ExactKeysAndFullPrecision)
{
    const std::string line = resultJson(
        true, {1000, 0}, {{"latency_ms", 1.2034, "ms"}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 1000, "
                    "\"failed\": 0, \"metrics\": {\"latency_ms\": "
                    "{\"value\": 1.2034, \"unit\": \"ms\"}}}");
    // Every digit survives: the value reads back exactly.
    EXPECT_EQ(std::stod(fullDouble(0.1 + 0.2)), 0.1 + 0.2);
}

TEST(ResultJson, RejectsBadMetrics)
{
    EXPECT_THROW(resultJson(true, {}, {{"bad name", 1.0, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(
        resultJson(true, {}, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
        std::invalid_argument);
    EXPECT_THROW(resultJson(true, {}, {{"a", 0.0 / 0.0, "s"}}),
                 std::invalid_argument);
}

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer::reset();
    {
        Span outer("bench.root");
        Span inner("layer.child");
    }
    const SpanSummary s = Tracer::summary();
    const SpanAggregate root = spanOf(s, "bench.root");
    const SpanAggregate child = spanOf(s, "layer.child");
    EXPECT_EQ(root.count, 1u);
    EXPECT_EQ(child.count, 1u);
    EXPECT_DOUBLE_EQ(child.selfNs, child.totalNs);
    EXPECT_NEAR(root.selfNs, root.totalNs - child.totalNs, 1e-6);
    // Root spans are the benchmark's own, never a layer's.
    EXPECT_DOUBLE_EQ(attributedNs(s), child.selfNs);
    Tracer::reset();
    EXPECT_TRUE(Tracer::summary().empty());
}

TEST(Tracer, LayerOfName)
{
    SpanSummary s;
    s["serve.registry.deliver"].selfNs = 5;
    s["serve.registry.evict_idle"].selfNs = 2;
    s["uarch"].selfNs = 1;
    const auto by = selfByLayer(s);
    EXPECT_DOUBLE_EQ(by.at("serve.registry"), 7.0);
    EXPECT_DOUBLE_EQ(by.at("uarch"), 1.0);
}

} // namespace
} // namespace perfbench
