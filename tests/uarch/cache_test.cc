/**
 * @file
 * Unit tests for the set-associative cache model (geometry, hit/miss
 * behavior, LRU replacement, write-back state), and a differential
 * test against the scan-based reference model.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "adapt/lattice.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "uarch/cache.hh"

using namespace tpcp;
using namespace tpcp::uarch;

namespace
{

/** 2-way, 2-set, 16B-block toy cache: 64 bytes total. */
CacheConfig
toyConfig()
{
    CacheConfig c;
    c.sizeBytes = 64;
    c.assoc = 2;
    c.blockBytes = 16;
    c.hitLatency = 1;
    return c;
}

} // namespace

TEST(Cache, GeometryDerivation)
{
    Cache c(toyConfig(), "toy");
    EXPECT_EQ(c.config().numSets(), 2u);
}

TEST(Cache, Table1Geometries)
{
    CacheConfig l1{16 * 1024, 4, 32, 1};
    EXPECT_EQ(l1.numSets(), 128u);
    CacheConfig l2{128 * 1024, 8, 64, 12};
    EXPECT_EQ(l2.numSets(), 256u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(toyConfig(), "toy");
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x10f, false).hit) << "same 16B block";
    EXPECT_FALSE(c.access(0x110, false).hit) << "next block";
}

TEST(Cache, LruReplacementWithinSet)
{
    Cache c(toyConfig(), "toy");
    // Set 0 holds blocks whose (addr/16) is even.
    c.access(0x000, false); // A
    c.access(0x040, false); // B (same set, 2 ways full)
    c.access(0x000, false); // touch A; B is now LRU
    c.access(0x080, false); // C evicts B
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x040));
    EXPECT_TRUE(c.probe(0x080));
}

TEST(Cache, SetsAreIndependent)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, false); // set 0
    c.access(0x010, false); // set 1
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x010));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, true); // dirty A in set 0
    c.access(0x040, false);
    c.access(0x040, false); // A is LRU
    CacheAccessResult r = c.access(0x080, false); // evicts dirty A
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, false);
    c.access(0x040, false);
    CacheAccessResult r = c.access(0x080, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, false); // clean
    c.access(0x000, true);  // now dirty
    c.access(0x040, false);
    c.access(0x040, false);
    EXPECT_TRUE(c.access(0x080, false).writeback);
}

TEST(Cache, StatsAccumulate)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, false);
    c.access(0x000, false);
    c.access(0x100, false);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_NEAR(c.stats().missRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, ResetClears)
{
    Cache c(toyConfig(), "toy");
    c.access(0x000, true);
    c.reset();
    EXPECT_FALSE(c.probe(0x000));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache c(toyConfig(), "toy");
    // Stream over 4x the cache size twice; second pass still misses
    // (LRU with a working set > capacity).
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr a = 0; a < 256; a += 16)
            c.access(a, false);
    }
    EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Cache, WorkingSetSmallerThanCacheHitsAfterWarmup)
{
    Cache c(toyConfig(), "toy");
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr a = 0; a < 64; a += 16)
            c.access(a, false);
    }
    // 4 cold misses, then hits.
    EXPECT_EQ(c.stats().misses, 4u);
    EXPECT_EQ(c.stats().accesses, 16u);
}

// ---- Differential test against the scan-based reference model ----

namespace
{

/**
 * The scan-based access this model replaced, kept as the reference:
 * the first valid way whose tag matches hits; on a miss the victim is
 * the first invalid way, else the valid way used least recently.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : assoc(config.assoc), blockShift(floorLog2(config.blockBytes)),
          setMask(config.numSets() - 1),
          lines(config.numSets() * config.assoc)
    {
    }

    CacheAccessResult
    access(Addr addr, bool write)
    {
        ++stats.accesses;
        std::uint64_t tag = addr >> blockShift;
        Line *base = &lines[(tag & setMask) * assoc];
        Line *victim = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = ++tick;
                line.dirty = line.dirty || write;
                return {true, false};
            }
            if (!line.valid) {
                if (!victim || victim->valid)
                    victim = &line;
            } else if (!victim ||
                       (victim->valid && line.lastUse < victim->lastUse)) {
                victim = &line;
            }
        }
        ++stats.misses;
        bool writeback = victim->valid && victim->dirty;
        if (writeback)
            ++stats.writebacks;
        victim->tag = tag;
        victim->valid = true;
        victim->dirty = write;
        victim->lastUse = ++tick;
        return {false, writeback};
    }

    CacheStats stats;

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    unsigned assoc;
    unsigned blockShift;
    std::uint64_t setMask;
    std::vector<Line> lines;
    std::uint64_t tick = 0;
};

struct Access
{
    Addr addr;
    bool write;
};

/**
 * A seeded read/write stream over @p c: uniform traffic over four
 * times the capacity, a hot set that fits, set-conflict storms of up
 * to twice the associativity on one set, and addresses near the top
 * of the address space.
 */
std::vector<Access>
mixedStream(const CacheConfig &c, std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const std::uint64_t way_span = c.numSets() * c.blockBytes;
    std::vector<Access> out;
    out.reserve(n);
    while (out.size() < n) {
        const std::uint32_t kind = rng.nextBounded(4);
        const std::size_t burst = 1 + rng.nextBounded(64);
        const Addr set_base = rng.nextBounded(
                                  static_cast<std::uint32_t>(c.numSets())) *
                              c.blockBytes;
        for (std::size_t i = 0; i < burst && out.size() < n; ++i) {
            Addr a = 0;
            switch (kind) {
              case 0:
                a = rng.next64() % (4 * c.sizeBytes);
                break;
              case 1:
                a = rng.next64() % (c.sizeBytes / 2 + 1);
                break;
              case 2:
                a = set_base + rng.nextBounded(2 * c.assoc + 1) * way_span +
                    rng.nextBounded(c.blockBytes);
                break;
              default:
                a = ~Addr(0) - rng.next64() % (2 * c.sizeBytes);
                break;
            }
            out.push_back({a, rng.nextBool(0.3)});
        }
    }
    return out;
}

/** Drives the model and the reference with the same streams. */
void
expectMatchesReference(const CacheConfig &config)
{
    SCOPED_TRACE(::testing::Message()
                 << config.sizeBytes << "B " << config.assoc << "-way "
                 << config.blockBytes << "B blocks");
    Cache c(config, "dut");
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        c.reset();
        RefCache ref(config);
        const std::vector<Access> stream =
            mixedStream(config, seed, 20'000);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const CacheAccessResult want =
                ref.access(stream[i].addr, stream[i].write);
            const CacheAccessResult got =
                c.access(stream[i].addr, stream[i].write);
            ASSERT_EQ(got.hit, want.hit) << "access " << i;
            ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        }
        EXPECT_EQ(c.stats().accesses, ref.stats.accesses);
        EXPECT_EQ(c.stats().misses, ref.stats.misses);
        EXPECT_EQ(c.stats().writebacks, ref.stats.writebacks);
    }
}

CacheConfig
geometry(std::uint64_t sets, unsigned assoc, unsigned block)
{
    return CacheConfig{sets * assoc * block, assoc, block, 1};
}

} // namespace

TEST(CacheDifferential, AssociativitiesMatchReference)
{
    for (unsigned assoc : {1u, 2u, 4u, 8u, 16u})
        expectMatchesReference(geometry(16, assoc, 32));
}

TEST(CacheDifferential, FullyAssociativeMatchesReference)
{
    expectMatchesReference(geometry(1, 16, 64));
    expectMatchesReference(geometry(1, 4, 16));
}

TEST(CacheDifferential, Table1GeometriesMatchReference)
{
    const MachineConfig m = MachineConfig::table1();
    expectMatchesReference(m.icache);
    expectMatchesReference(m.dcache);
    expectMatchesReference(m.l2);
}

TEST(CacheDifferential, AdaptLatticeGeometriesMatchReference)
{
    const adapt::ConfigLattice lattice = adapt::ConfigLattice::standard();
    std::set<std::tuple<std::uint64_t, unsigned, unsigned>> seen;
    for (std::size_t i = 0; i < lattice.size(); ++i) {
        for (const CacheConfig &c :
             {lattice.machine(i).dcache, lattice.machine(i).l2}) {
            if (seen.insert({c.sizeBytes, c.assoc, c.blockBytes}).second)
                expectMatchesReference(c);
        }
    }
    EXPECT_EQ(seen.size(), 5u) << "L1D 16K/8K/4K and L2 128K/64K";
}

TEST(CacheDifferential, HalvedCacheChainMatchesReference)
{
    // Every geometry halvedCache() reaches from the Table-1 caches,
    // down to its fixed point (one set, direct mapped).
    const MachineConfig m = MachineConfig::table1();
    for (CacheConfig c : {m.dcache, m.l2}) {
        for (;;) {
            expectMatchesReference(c);
            const CacheConfig next = halvedCache(c);
            if (next.sizeBytes == c.sizeBytes && next.assoc == c.assoc)
                break;
            c = next;
        }
    }
}
