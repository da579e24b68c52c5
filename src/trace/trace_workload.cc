#include "trace/trace_workload.hh"

#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/status.hh"

namespace tpcp::trace
{

namespace
{

struct CacheEntry
{
    std::uint64_t contentHash = 0;
    IntervalProfile profile;
};

struct TraceCache
{
    std::mutex mutex;
    std::unordered_map<std::string, CacheEntry> entries;
    TraceCacheStats stats;
};

TraceCache &
cache()
{
    static TraceCache c;
    return c;
}

std::vector<std::uint8_t>
readAllBytes(const std::string &path)
{
    struct FileCloser
    {
        void
        operator()(std::FILE *f) const
        {
            if (f)
                std::fclose(f);
        }
    };
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f)
        tpcp_raise("trace ", path, ": cannot open for reading");
    if (std::fseek(f.get(), 0, SEEK_END) != 0 ||
        std::ftell(f.get()) < 0)
        tpcp_raise("trace ", path, ": size probe failed");
    long size = std::ftell(f.get());
    if (std::fseek(f.get(), 0, SEEK_SET) != 0)
        tpcp_raise("trace ", path, ": seek failed");
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size));
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size())
        tpcp_raise("trace ", path, ": short read");
    return bytes;
}

} // namespace

IntervalProfile
getTraceProfile(const std::string &path)
{
    // Hash the current bytes first: the content hash, not the path,
    // decides whether the memoized parse is still valid.
    std::vector<std::uint8_t> bytes = readAllBytes(path);
    std::uint64_t hash = fnv1a64(bytes.data(), bytes.size());

    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    auto it = c.entries.find(path);
    if (it != c.entries.end()) {
        if (it->second.contentHash == hash) {
            ++c.stats.hits;
            return it->second.profile;
        }
        ++c.stats.invalidations;
    }
    // Validation completes before the cache is touched: a corrupt
    // rewrite of a previously good file raises here and leaves the
    // old entry intact.
    TraceData data = parseTrace(bytes, path);
    ++c.stats.parses;
    CacheEntry &entry = c.entries[path];
    entry.contentHash = hash;
    entry.profile = std::move(data.profile);
    return entry.profile;
}

TraceCacheStats
traceCacheStats()
{
    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return c.stats;
}

void
resetTraceCache()
{
    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.stats = TraceCacheStats{};
}

std::vector<std::pair<std::string, IntervalProfile>>
loadTraceProfiles(const std::string &csv)
{
    std::vector<std::pair<std::string, IntervalProfile>> out;
    std::stringstream ss(csv);
    std::string path;
    while (std::getline(ss, path, ',')) {
        if (path.empty())
            continue;
        IntervalProfile profile = getTraceProfile(path);
        std::string name = profile.workload();
        out.emplace_back(std::move(name), std::move(profile));
    }
    return out;
}

} // namespace tpcp::trace
