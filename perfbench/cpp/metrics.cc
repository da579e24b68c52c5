#include "metrics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <time.h>

namespace perfbench
{

double
threadCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        throw std::runtime_error("no thread CPU clock");
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

namespace
{

/** 1-based nearest rank of level @p q in a sample of @p n. */
std::size_t
nearestRank(std::size_t n, double q)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("percentile of an empty sample");
    return sorted[nearestRank(sorted.size(), q) - 1];
}

TailChoice
chooseTail(std::size_t n, std::size_t min_beyond, double max_level)
{
    static constexpr double kLevels[] = {0.99, 0.95, 0.90, 0.75};
    for (double q : kLevels) {
        if (n == 0)
            break;
        if (q > max_level)
            continue;
        const std::size_t beyond = n - nearestRank(n, q);
        if (beyond >= min_beyond)
            return {q, beyond};
    }
    return {0.5, n == 0 ? 0 : n - nearestRank(n, 0.5)};
}

LatencySummary
summarizeLatency(std::vector<double> &values, double max_level)
{
    LatencySummary s;
    s.samples = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.p50 = percentileSorted(values, 0.5);
    s.tail = chooseTail(values.size(), 10, max_level);
    s.tailValue = percentileSorted(values, s.tail.q);
    return s;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

WindowedSummary
summarizeWindows(const std::vector<Request> &requests, double max_level)
{
    WindowedSummary s;
    s.samples = requests.size();
    if (requests.empty())
        return s;
    s.windows = std::clamp<std::size_t>(
        requests.size() / kMinWindowRequests, 1, kMaxWindows);
    s.tail = chooseTail(requests.size() / s.windows, 10, max_level);
    std::vector<double> p50s, tails, rates;
    for (std::size_t w = 0; w < s.windows; ++w) {
        const std::size_t lo = requests.size() * w / s.windows;
        const std::size_t hi = requests.size() * (w + 1) / s.windows;
        std::vector<double> lat;
        double work = 0.0, us = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
            lat.push_back(requests[i].latencyUs);
            work += requests[i].work;
            us += requests[i].latencyUs;
        }
        std::sort(lat.begin(), lat.end());
        p50s.push_back(percentileSorted(lat, 0.5));
        tails.push_back(percentileSorted(lat, s.tail.q));
        rates.push_back(us > 0.0 ? work / (us * 1e-6) : 0.0);
    }
    s.p50 = median(std::move(p50s));
    s.tailValue = median(std::move(tails));
    s.rate = median(std::move(rates));
    return s;
}

void
DeliveryMatcher::onDue(std::uint64_t tenant, Clock::time_point due)
{
    byTenant_[tenant].due.push_back(due);
    pending_.insert(tenant);
    ++outstanding_;
}

std::size_t
DeliveryMatcher::onDelivered(std::uint64_t tenant,
                             std::uint64_t delivered_total,
                             Clock::time_point done)
{
    auto it = byTenant_.find(tenant);
    if (it == byTenant_.end())
        return 0;
    Pending &p = it->second;
    std::size_t matched = 0;
    while (p.matched < delivered_total && !p.due.empty()) {
        lat_.push_back(
            std::chrono::duration<double, std::micro>(done -
                                                      p.due.front())
                .count());
        p.due.pop_front();
        ++p.matched;
        ++matched;
    }
    outstanding_ -= matched;
    if (p.due.empty())
        pending_.erase(tenant);
    return matched;
}

std::vector<std::uint64_t>
DeliveryMatcher::pendingTenants() const
{
    return {pending_.begin(), pending_.end()};
}

double
OpTally::failFraction() const
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

void
OpTally::add(const OpTally &o)
{
    attempted += o.attempted;
    failed += o.failed;
}

OpTally
serveTally(std::uint64_t pushed, const ServeLosses &l)
{
    return {pushed, l.malformed + l.rejected + l.shed +
                        l.quarantineDrops + l.producerDrops};
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
fullDouble(double v)
{
    // The shortest text that reads back as exactly @p v.
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
resultJson(bool correct, const OpTally &ops,
           const std::vector<Metric> &metrics)
{
    std::set<std::string> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ops.attempted);
    out += ", \"failed\": " + std::to_string(ops.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!validMetricName(m.name) || !seen.insert(m.name).second)
            throw std::invalid_argument("bad or repeated metric name '" +
                                        m.name + "'");
        if (!std::isfinite(m.value))
            throw std::invalid_argument("non-finite value for " +
                                        m.name);
        out += i ? ", \"" : "\"";
        out += m.name + "\": {\"value\": " + fullDouble(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
