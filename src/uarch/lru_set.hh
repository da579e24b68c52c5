/**
 * @file
 * The branch-free way lookup shared by the cache and TLB models.
 */

#ifndef TPCP_UARCH_LRU_SET_HH
#define TPCP_UARCH_LRU_SET_HH

#include <cstdint>

namespace tpcp::uarch
{

/**
 * The way of one set that an access to @p key uses: the way holding
 * @p key on a hit, else the first invalid way, else the least
 * recently used way. Each way has a `key` (0 while invalid, so @p key
 * must be nonzero) and a `lastUse` that is 0 exactly while the way is
 * invalid and otherwise a tick no other way of the set shares. Every
 * way is scanned and the pick is made with selects, so no host branch
 * depends on simulated addresses.
 */
template <typename Way>
inline unsigned
pickWay(const Way *set, unsigned assoc, std::uint64_t key)
{
    unsigned way = 0;
    std::uint64_t best = ~std::uint64_t(0);
    for (unsigned w = 0; w < assoc; ++w) {
        // The matching way ranks 0, below every invalid way (1) and
        // every valid way (lastUse + 1 >= 2). A product, not a
        // select, which GCC compiles into a branch here.
        const std::uint64_t rank =
            (set[w].lastUse + 1) * (set[w].key != key);
        const bool better = rank < best;
        way = better ? w : way;
        best = better ? rank : best;
    }
    return way;
}

} // namespace tpcp::uarch

#endif // TPCP_UARCH_LRU_SET_HH
