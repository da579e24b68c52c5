#include "tracer.hh"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct OpenSpan
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t childNs = 0;
    /** Index in the thread's log, or -1 when the log was full. */
    std::int64_t logIndex = -1;
};

struct LoggedSpan
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1;
};

struct ThreadLog
{
    std::size_t id = 0;
    std::vector<OpenSpan> stack;
    std::unordered_map<const char *, SpanAggregate> agg;
    std::vector<LoggedSpan> log;
};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::mutex registryMutex;
std::vector<std::unique_ptr<ThreadLog>> registry;
const std::int64_t originNs = nowNs();
thread_local ThreadLog *current = nullptr;
/** Spans taken into the verbatim log since the last reset. */
std::atomic<std::size_t> logged{0};

ThreadLog &
threadLog()
{
    if (current == nullptr) {
        std::lock_guard<std::mutex> lock(registryMutex);
        registry.push_back(std::make_unique<ThreadLog>());
        registry.back()->id = registry.size() - 1;
        current = registry.back().get();
    }
    return *current;
}

} // namespace

void
Tracer::begin(const char *name)
{
    ThreadLog &t = threadLog();
    OpenSpan s;
    s.name = name;
    if (logged.fetch_add(1, std::memory_order_relaxed) < kSpanLogLimit) {
        s.logIndex = static_cast<std::int64_t>(t.log.size());
        t.log.push_back({name, 0, 0,
                         t.stack.empty() ? -1
                                         : t.stack.back().logIndex});
    }
    t.stack.push_back(s);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    t.stack.back().startNs = nowNs();
}

void
Tracer::end()
{
    const std::int64_t end = nowNs();
    ThreadLog &t = *current;
    OpenSpan s = t.stack.back();
    t.stack.pop_back();
    const std::int64_t dur = end - s.startNs;
    SpanAggregate &a = t.agg[s.name];
    ++a.count;
    a.totalNs += static_cast<double>(dur);
    a.selfNs += static_cast<double>(dur - s.childNs);
    if (!t.stack.empty())
        t.stack.back().childNs += dur;
    if (s.logIndex >= 0) {
        LoggedSpan &l = t.log[static_cast<std::size_t>(s.logIndex)];
        l.startNs = s.startNs - originNs;
        l.endNs = end - originNs;
    }
}

SpanSummary
Tracer::summary()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    SpanSummary out;
    for (const auto &t : registry)
        for (const auto &[name, a] : t->agg) {
            SpanAggregate &m = out[name];
            m.count += a.count;
            m.totalNs += a.totalNs;
            m.selfNs += a.selfNs;
        }
    return out;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(registryMutex);
    for (auto &t : registry) {
        t->agg.clear();
        t->log.clear();
    }
    logged.store(0, std::memory_order_relaxed);
}

bool
Tracer::appendLog(const std::string &path, const std::string &pass)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    for (const auto &t : registry)
        for (const LoggedSpan &l : t->log)
            out << "{\"pass\": \"" << pass << "\", \"name\": \""
                << l.name << "\", \"thread\": " << t->id
                << ", \"start_ns\": " << l.startNs
                << ", \"end_ns\": " << l.endNs
                << ", \"parent\": " << l.parent << "}\n";
    return out.good();
}

double
attributedNs(const SpanSummary &s)
{
    double ns = 0.0;
    for (const auto &[name, a] : s)
        if (name.rfind("bench.", 0) != 0)
            ns += a.selfNs;
    return ns;
}

std::map<std::string, double>
selfByLayer(const SpanSummary &s)
{
    std::map<std::string, double> out;
    for (const auto &[name, a] : s) {
        const std::size_t first = name.find('.');
        const std::size_t second =
            first == std::string::npos ? first
                                       : name.find('.', first + 1);
        out[name.substr(0, second)] += a.selfNs;
    }
    return out;
}

SpanAggregate
spanOf(const SpanSummary &s, const std::string &name)
{
    auto it = s.find(name);
    return it == s.end() ? SpanAggregate{} : it->second;
}

} // namespace perfbench
