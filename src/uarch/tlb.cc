#include "uarch/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "uarch/lru_set.hh"

namespace tpcp::uarch
{

Tlb::Tlb(const TlbConfig &config)
    : config_(config)
{
    // Pages of at least 2 bytes keep an entry's key, vpn + 1, nonzero.
    tpcp_assert(isPowerOf2(config_.pageBytes) && config_.pageBytes >= 2);
    tpcp_assert(config_.assoc >= 1);
    tpcp_assert(config_.entries % config_.assoc == 0);
    pageShift = floorLog2(config_.pageBytes);
    numSets = config_.entries / config_.assoc;
    tpcp_assert(isPowerOf2(numSets));
    setMask = numSets - 1;
    entries.resize(config_.entries);
}

bool
Tlb::access(Addr addr)
{
    ++stats_.accesses;
    const std::uint64_t vpn = addr >> pageShift;
    Entry *base = &entries[(vpn & setMask) * config_.assoc];

    const std::uint64_t key = vpn + 1;
    Entry &e = base[pickWay(base, config_.assoc, key)];
    const bool hit = e.key == key;
    stats_.misses += !hit;
    e.key = key;
    e.lastUse = ++tick;
    return hit;
}

void
Tlb::reset()
{
    for (auto &e : entries)
        e = Entry{};
    tick = 0;
    stats_ = TlbStats{};
}

} // namespace tpcp::uarch
