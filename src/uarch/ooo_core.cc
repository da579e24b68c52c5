#include "uarch/ooo_core.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace tpcp::uarch
{

OooCore::OooCore(const MachineConfig &config)
    : config(config), hier(config),
      bp(config.branchPred),
      regReady(isa::numArchRegs, 0),
      robCommit(config.core.robEntries, 0),
      lsqComplete(config.core.lsqEntries, 0)
{
    const CoreConfig &c = config.core;
    tpcp_assert(c.robEntries > 0 && c.lsqEntries > 0);
    tpcp_assert(c.fetchWidth > 0 && c.issueWidth > 0 &&
                c.commitWidth > 0);
    auto fu_of = [](isa::FuClass f) {
        return static_cast<std::size_t>(f);
    };
    fuFree[fu_of(isa::FuClass::IntAlu)].resize(c.intAluUnits, 0);
    fuFree[fu_of(isa::FuClass::LoadStore)].resize(c.loadStoreUnits, 0);
    fuFree[fu_of(isa::FuClass::FpAdd)].resize(c.fpAddUnits, 0);
    fuFree[fu_of(isa::FuClass::IntMultDiv)].resize(c.intMultDivUnits,
                                                   0);
    fuFree[fu_of(isa::FuClass::FpMultDiv)].resize(c.fpMultDivUnits, 0);
    fetchLineShift = floorLog2(config.icache.blockBytes);
}

Cycles
OooCore::allocFu(isa::FuClass fu, Cycles ready, Cycles occupancy)
{
    if (fu == isa::FuClass::None)
        return ready;
    auto &units = fuFree[static_cast<std::size_t>(fu)];
    tpcp_assert(!units.empty(), "no units for fu class");
    // The first unit with the smallest next-free cycle, picked with
    // products by a bool (GCC turns a select here into a branch).
    std::size_t best = 0;
    Cycles best_free = units[0];
    for (std::size_t u = 1; u < units.size(); ++u) {
        const bool earlier = units[u] < best_free;
        best = u * earlier + best * !earlier;
        best_free = std::min(best_free, units[u]);
    }
    Cycles issue = std::max(ready, best_free);
    units[best] = issue + occupancy;
    return issue;
}

void
OooCore::consume(const DynInst &inst)
{
    const CoreConfig &cc = config.core;
    const isa::OpTraits traits = inst.staticInst->traits();
    ++stats_.insts;

    // ---- Fetch ----
    Addr line = inst.pc >> fetchLineShift;
    if (line != curFetchLine) {
        curFetchLine = line;
        Cycles lat = hier.accessInst(inst.pc);
        if (lat > config.icache.hitLatency) {
            // Fetch bubbles for the beyond-L1 portion of the access.
            fetchCycle += lat - config.icache.hitLatency;
            fetchedThisCycle = 0;
        }
    }

    // The timing state below is updated with max and with products
    // by a bool, not with branches or selects (GCC turns selects on
    // these members back into branches): each condition depends on
    // simulated data, and the host would mispredict it.

    // ROB occupancy: fetch of instruction i stalls until instruction
    // i - robEntries has committed and freed its entry. The ring
    // starts zeroed, so the first robEntries instructions never stall.
    const Cycles free_at = robCommit[robPos];
    fetchedThisCycle *= fetchCycle >= free_at;
    fetchCycle = std::max(fetchCycle, free_at);

    const bool fetch_full = fetchedThisCycle >= cc.fetchWidth;
    fetchCycle += fetch_full;
    fetchedThisCycle = fetchedThisCycle * !fetch_full + 1;
    Cycles fetch = fetchCycle;

    Cycles dispatch = fetch + cc.frontendDepth;

    // ---- Register dependences ----
    Cycles ready = dispatch;
    const isa::Inst &si = *inst.staticInst;
    if (si.src1 != isa::noReg)
        ready = std::max(ready, regReady[si.src1]);
    if (si.src2 != isa::noReg)
        ready = std::max(ready, regReady[si.src2]);

    // ---- LSQ occupancy for memory ops (the ring starts zeroed) ----
    if (inst.isMem())
        ready = std::max(ready, lsqComplete[lsqPos]);

    // ---- Issue to a functional unit ----
    // Divides occupy their unit for the full latency (unpipelined);
    // all other ops are fully pipelined.
    bool unpipelined = si.op == isa::OpClass::IntDiv ||
                       si.op == isa::OpClass::FpDiv;
    Cycles occupancy = unpipelined ? traits.latency : 1;
    Cycles issue = allocFu(traits.fu, ready, occupancy);

    // ---- Execute / complete ----
    Cycles complete;
    if (inst.isMem()) {
        bool write = !inst.isLoad();
        Cycles lat = hier.accessData(inst.memAddr, write);
        if (inst.isLoad()) {
            ++stats_.loads;
            complete = issue + lat;
        } else {
            ++stats_.stores;
            // Stores complete into the store buffer; the cache state
            // update above models their footprint.
            complete = issue + 1;
        }
        lsqComplete[lsqPos] = complete;
        lsqPos = lsqPos + 1 == cc.lsqEntries ? 0 : lsqPos + 1;
    } else {
        complete = issue + traits.latency;
    }

    if (traits.writesReg && si.dest != isa::noReg)
        regReady[si.dest] = complete;

    // ---- Branch resolution ----
    if (inst.isConditional()) {
        ++stats_.branches;
        const bool wrong = bp.predictAndTrain(inst.pc, inst.taken);
        stats_.branchMispredicts += wrong;
        // A mispredict redirects fetch when the branch resolves;
        // everything younger refetches from the correct path.
        const Cycles resume = (complete + 1) * wrong;
        fetchedThisCycle *= fetchCycle >= resume;
        fetchCycle = std::max(fetchCycle, resume);
        curFetchLine |= -Addr(wrong);
    }

    // ---- In-order commit, commitWidth per cycle ----
    // A commit into a full cycle moves to the next one.
    Cycles commit = std::max(complete + 1, lastCommit);
    const bool same_cycle = commit == commitCycleOpen;
    const bool cycle_full =
        same_cycle & (commitsThisCycle >= cc.commitWidth);
    commit += cycle_full;
    commitsThisCycle = commitsThisCycle * (same_cycle & !cycle_full) + 1;
    commitCycleOpen = commit;

    robCommit[robPos] = commit;
    robPos = robPos + 1 == cc.robEntries ? 0 : robPos + 1;
    lastCommit = commit;
}

Cycles
OooCore::cycles() const
{
    return lastCommit;
}

void
OooCore::reset()
{
    hier.reset();
    bp.reset();
    std::fill(regReady.begin(), regReady.end(), 0);
    for (auto &units : fuFree)
        std::fill(units.begin(), units.end(), 0);
    std::fill(robCommit.begin(), robCommit.end(), 0);
    std::fill(lsqComplete.begin(), lsqComplete.end(), 0);
    robPos = 0;
    lsqPos = 0;
    fetchCycle = 0;
    fetchedThisCycle = 0;
    curFetchLine = ~Addr(0);
    lastCommit = 0;
    commitCycleOpen = 0;
    commitsThisCycle = 0;
    stats_ = CoreStats{};
}

} // namespace tpcp::uarch
