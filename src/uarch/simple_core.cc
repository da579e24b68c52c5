#include "uarch/simple_core.hh"

#include "common/bitops.hh"

namespace tpcp::uarch
{

SimpleCore::SimpleCore(const MachineConfig &config)
    : config(config), hier(config),
      bp(config.branchPred)
{
    fetchLineShift = floorLog2(config.icache.blockBytes);
}

void
SimpleCore::consume(const DynInst &inst)
{
    ++stats_.insts;
    ++slots;

    // Instruction fetch: one I-cache access per line, as a sequential
    // fetch unit would perform.
    Addr line = inst.pc >> fetchLineShift;
    if (line != curFetchLine) {
        curFetchLine = line;
        Cycles lat = hier.accessInst(inst.pc);
        stallCycles += lat - config.icache.hitLatency;
    }

    const isa::OpTraits traits = inst.staticInst->traits();

    if (inst.isMem()) {
        bool write = !inst.isLoad();
        Cycles lat = hier.accessData(inst.memAddr, write);
        if (inst.isLoad()) {
            ++stats_.loads;
            // Blocking load: pay the full beyond-L1 latency.
            stallCycles += lat - config.dcache.hitLatency;
        } else {
            ++stats_.stores;
            // Stores retire through a store buffer; no stall.
        }
    } else if (traits.fu == isa::FuClass::IntMultDiv ||
               traits.fu == isa::FuClass::FpMultDiv) {
        // Unpipelined long-latency ops serialize in-order issue.
        if (traits.latency > 1)
            stallCycles += traits.latency - 1;
    }

    if (inst.isConditional()) {
        ++stats_.branches;
        // Arithmetic on the outcomes, so no host branch depends on
        // them.
        const bool wrong = bp.predictAndTrain(inst.pc, inst.taken);
        stats_.branchMispredicts += wrong;
        stallCycles += wrong * config.branchPred.mispredictPenalty;
        curFetchLine |= -Addr(inst.taken); // redirected fetch refills
    } else if (inst.staticInst->op == isa::OpClass::Jump) {
        curFetchLine = ~Addr(0);
    }
}

Cycles
SimpleCore::cycles() const
{
    return slots / config.core.issueWidth + stallCycles;
}

void
SimpleCore::reset()
{
    hier.reset();
    bp.reset();
    slots = 0;
    stallCycles = 0;
    curFetchLine = ~Addr(0);
    stats_ = CoreStats{};
}

} // namespace tpcp::uarch
