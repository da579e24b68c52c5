/**
 * @file
 * Unit tests for the serve_throughput tenant sweep (bench_common.hh):
 * powers of four below the largest point, then the largest point,
 * with no wrap at the top of the --tenants range.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"

using tpcp::bench::tenantSweep;

TEST(TenantSweep, PowersOfFourThenTheMaximum)
{
    EXPECT_EQ(tenantSweep(1024),
              (std::vector<unsigned>{1, 4, 16, 64, 256, 1024}));
    EXPECT_EQ(tenantSweep(100),
              (std::vector<unsigned>{1, 4, 16, 64, 100}));
    EXPECT_EQ(tenantSweep(1), (std::vector<unsigned>{1}));
}

TEST(TenantSweep, LargestTenantCountDoesNotWrap)
{
    // The step past 4^15 is 2^32: a 32-bit counter wrapped to 0 and
    // pushed zeros forever.
    const std::vector<unsigned> sweep = tenantSweep(4294967295u);
    ASSERT_EQ(sweep.size(), 17u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(sweep[i], 1u << (2 * i));
    EXPECT_EQ(sweep.back(), 4294967295u);
}
