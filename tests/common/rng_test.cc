/**
 * @file
 * Unit tests for the PCG32 generator: determinism, bounds, and the
 * statistical sanity of the helper distributions.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"

using namespace tpcp;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(std::uint64_t{42});
    Rng b(std::uint64_t{42});
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(std::uint64_t{1});
    Rng b(std::uint64_t{2});
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next32() == b.next32()) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Rng, StringSeedingIsDeterministic)
{
    Rng a(std::string_view("gcc/166"));
    Rng b(std::string_view("gcc/166"));
    Rng c(std::string_view("gcc/scilab"));
    EXPECT_EQ(a.next64(), b.next64());
    EXPECT_NE(a.next64(), c.next64());
}

TEST(Rng, NextBoundedStaysInBounds)
{
    Rng rng(std::uint64_t{7});
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, NextBoundedOneAlwaysZero)
{
    Rng rng(std::uint64_t{7});
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, NextBoundedPowerOfTwoMatchesRejectionPath)
{
    // The general rejection draw, as nextBounded() computes it for
    // any bound: the power-of-two fast path must give the same
    // values and consume the same number of raw draws.
    auto rejection = [](Rng &rng, std::uint32_t bound) {
        const std::uint32_t threshold = (-bound) % bound;
        for (;;) {
            const std::uint32_t r = rng.next32();
            if (r >= threshold)
                return r % bound;
        }
    };
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng fast(seed);
        Rng slow(seed);
        for (unsigned k = 0; k < 32; ++k)
            for (int i = 0; i < 16; ++i) {
                const std::uint32_t bound = std::uint32_t{1} << k;
                ASSERT_EQ(fast.nextBounded(bound),
                          rejection(slow, bound))
                    << "seed " << seed << ", bound 2^" << k;
            }
        EXPECT_EQ(fast.next64(), slow.next64()) << "seed " << seed;
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(std::uint64_t{11});
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all values in range should appear";
}

TEST(Rng, NextRangeSingleton)
{
    Rng rng(std::uint64_t{3});
    EXPECT_EQ(rng.nextRange(5, 5), 5);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(std::uint64_t{13});
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolProbability)
{
    Rng rng(std::uint64_t{17});
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, NextBoolExtremes)
{
    Rng rng(std::uint64_t{19});
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
        EXPECT_FALSE(rng.nextBool(-1.0));
        EXPECT_TRUE(rng.nextBool(2.0));
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(std::uint64_t{23});
    double sum = 0.0, sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, GeometricMean)
{
    Rng rng(std::uint64_t{29});
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextGeometric(0.25);
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricEdgeCases)
{
    Rng rng(std::uint64_t{31});
    EXPECT_EQ(rng.nextGeometric(1.0), 0u);
    EXPECT_EQ(rng.nextGeometric(1.5), 0u);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng rng(std::uint64_t{37});
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.nextWeighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(std::uint64_t{41});
    Rng child1 = parent.fork(1);
    Rng child2 = parent.fork(2);
    EXPECT_NE(child1.next64(), child2.next64());
}

TEST(Rng, StreamsAreIndependent)
{
    Rng a(std::uint64_t{42}, 1);
    Rng b(std::uint64_t{42}, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next32() == b.next32()) ? 1 : 0;
    EXPECT_LT(same, 5);
}
