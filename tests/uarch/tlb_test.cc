/**
 * @file
 * Unit tests for the TLB model (8K pages, fixed miss latency), and a
 * differential test against the scan-based reference model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "uarch/tlb.hh"

using namespace tpcp;
using namespace tpcp::uarch;

namespace
{

TlbConfig
smallTlb()
{
    TlbConfig c;
    c.pageBytes = 8 * 1024;
    c.entries = 8;
    c.assoc = 2;
    c.missLatency = 30;
    return c;
}

} // namespace

TEST(Tlb, ColdMissThenHit)
{
    Tlb t(smallTlb());
    EXPECT_FALSE(t.access(0x10000));
    EXPECT_TRUE(t.access(0x10000));
    EXPECT_TRUE(t.access(0x10000 + 8191)) << "same 8K page";
    EXPECT_FALSE(t.access(0x10000 + 8192)) << "next page";
}

TEST(Tlb, MissLatencyFromConfig)
{
    Tlb t(smallTlb());
    EXPECT_EQ(t.missLatency(), 30u);
}

TEST(Tlb, CapacityEviction)
{
    Tlb t(smallTlb());
    // 8 entries, 2-way, 4 sets. Pages p, p+4sets, p+8sets map to the
    // same set; the third insert evicts the LRU.
    Addr base = 0;
    Addr stride = 4 * 8192; // same-set stride
    t.access(base);
    t.access(base + stride);
    t.access(base); // touch first
    t.access(base + 2 * stride); // evicts base+stride
    EXPECT_TRUE(t.access(base));
    EXPECT_FALSE(t.access(base + stride));
}

TEST(Tlb, StatsAndReset)
{
    Tlb t(smallTlb());
    t.access(0);
    t.access(0);
    EXPECT_EQ(t.stats().accesses, 2u);
    EXPECT_EQ(t.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(t.stats().missRate(), 0.5);
    t.reset();
    EXPECT_EQ(t.stats().accesses, 0u);
    EXPECT_FALSE(t.access(0));
}

TEST(Tlb, LargeWorkingSetMissesOften)
{
    Tlb t(smallTlb()); // covers 64K
    std::uint64_t misses_before = t.stats().misses;
    // Touch 64 distinct pages repeatedly (512K footprint).
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr p = 0; p < 64; ++p)
            t.access(p * 8192);
    }
    EXPECT_GT(t.stats().misses - misses_before, 100u);
}

// ---- Differential test against the scan-based reference model ----

namespace
{

/**
 * The scan-based access this model replaced, kept as the reference:
 * the first valid entry whose page matches hits; on a miss the victim
 * is the first invalid entry, else the valid entry used least
 * recently.
 */
class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &config)
        : assoc(config.assoc), pageShift(floorLog2(config.pageBytes)),
          setMask(config.entries / config.assoc - 1),
          entries(config.entries)
    {
    }

    bool
    access(Addr addr)
    {
        ++stats.accesses;
        std::uint64_t vpn = addr >> pageShift;
        Entry *base = &entries[(vpn & setMask) * assoc];
        Entry *victim = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            Entry &e = base[w];
            if (e.valid && e.vpn == vpn) {
                e.lastUse = ++tick;
                return true;
            }
            if (!e.valid) {
                if (!victim || victim->valid)
                    victim = &e;
            } else if (!victim ||
                       (victim->valid && e.lastUse < victim->lastUse)) {
                victim = &e;
            }
        }
        ++stats.misses;
        victim->vpn = vpn;
        victim->valid = true;
        victim->lastUse = ++tick;
        return false;
    }

    TlbStats stats;

  private:
    struct Entry
    {
        std::uint64_t vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    unsigned assoc;
    unsigned pageShift;
    std::uint64_t setMask;
    std::vector<Entry> entries;
    std::uint64_t tick = 0;
};

/**
 * A seeded address stream over @p c: uniform pages over four times
 * the reach, a hot set of pages that fits, set-conflict storms of up
 * to twice the associativity on one set, and pages near the top of
 * the address space.
 */
std::vector<Addr>
mixedStream(const TlbConfig &c, std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const std::uint64_t sets = c.entries / c.assoc;
    const std::uint64_t reach = c.entries * c.pageBytes;
    std::vector<Addr> out;
    out.reserve(n);
    while (out.size() < n) {
        const std::uint32_t kind = rng.nextBounded(4);
        const std::size_t burst = 1 + rng.nextBounded(64);
        const Addr set_base =
            rng.nextBounded(static_cast<std::uint32_t>(sets)) *
            c.pageBytes;
        for (std::size_t i = 0; i < burst && out.size() < n; ++i) {
            switch (kind) {
              case 0:
                out.push_back(rng.next64() % (4 * reach));
                break;
              case 1:
                out.push_back(rng.next64() % (reach / 2 + 1));
                break;
              case 2:
                out.push_back(set_base +
                              rng.nextBounded(2 * c.assoc + 1) * sets *
                                  c.pageBytes +
                              rng.nextBounded(
                                  static_cast<std::uint32_t>(c.pageBytes)));
                break;
              default:
                out.push_back(~Addr(0) - rng.next64() % (2 * reach));
                break;
            }
        }
    }
    return out;
}

/** Drives the model and the reference with the same streams. */
void
expectMatchesReference(const TlbConfig &config)
{
    SCOPED_TRACE(::testing::Message()
                 << config.entries << " entries " << config.assoc
                 << "-way " << config.pageBytes << "B pages");
    Tlb t(config);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        t.reset();
        RefTlb ref(config);
        const std::vector<Addr> stream = mixedStream(config, seed, 20'000);
        for (std::size_t i = 0; i < stream.size(); ++i)
            ASSERT_EQ(t.access(stream[i]), ref.access(stream[i]))
                << "access " << i;
        EXPECT_EQ(t.stats().accesses, ref.stats.accesses);
        EXPECT_EQ(t.stats().misses, ref.stats.misses);
    }
}

} // namespace

TEST(TlbDifferential, AssociativitiesMatchReference)
{
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u})
        expectMatchesReference(TlbConfig{8 * 1024, 16 * assoc, assoc, 30});
}

TEST(TlbDifferential, FullyAssociativeMatchesReference)
{
    expectMatchesReference(TlbConfig{8 * 1024, 16, 16, 30});
    expectMatchesReference(TlbConfig{4 * 1024, 4, 4, 30});
}

TEST(TlbDifferential, Table1GeometryMatchesReference)
{
    expectMatchesReference(MachineConfig::table1().itlb);
    expectMatchesReference(MachineConfig::table1().dtlb);
}
