#include "uarch/cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "uarch/lru_set.hh"

namespace tpcp::uarch
{

Cache::Cache(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name))
{
    tpcp_assert(isPowerOf2(config_.blockBytes) && config_.blockBytes >= 2,
                "block size must be a power of two of at least 2 bytes "
                "(so a line's key, tag + 1, is never 0)");
    tpcp_assert(config_.assoc >= 1);
    std::uint64_t sets = config_.numSets();
    tpcp_assert(sets >= 1 && isPowerOf2(sets),
                "cache geometry must give a power-of-two set count");
    blockShift = floorLog2(config_.blockBytes);
    setMask = sets - 1;
    lines.resize(sets * config_.assoc);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> blockShift) & setMask;
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr >> blockShift;
}

CacheAccessResult
Cache::access(Addr addr, bool write)
{
    ++stats_.accesses;
    const std::uint64_t key = tagOf(addr) + 1;
    Line *base = &lines[setIndex(addr) * config_.assoc];

    Line &line = base[pickWay(base, config_.assoc, key)];
    const bool hit = line.key == key;
    // Invalid lines are clean, so only a valid victim writes back.
    const bool writeback = !hit & line.dirty;
    stats_.misses += !hit;
    stats_.writebacks += writeback;
    line.key = key;
    line.dirty = (hit & line.dirty) | write;
    line.lastUse = ++tick;
    return {hit, writeback};
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t key = tagOf(addr) + 1;
    const Line *base = &lines[setIndex(addr) * config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (base[w].key == key)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    tick = 0;
    stats_ = CacheStats{};
}

} // namespace tpcp::uarch
