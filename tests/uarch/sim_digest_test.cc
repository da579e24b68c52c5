/**
 * @file
 * Byte-identity pin for the timing simulator: for every workload, the
 * first 1M instructions on both the "ooo" and the "simple" core, with
 * the interval profiler attached, must reproduce recorded values for
 * the profile digest, the cycle count, the core statistics and every
 * cache, TLB and branch-predictor counter. Any change to a timing or
 * replacement decision anywhere in src/uarch moves at least one of
 * them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/bitops.hh"
#include "trace/interval_profiler.hh"
#include "uarch/cache_hierarchy.hh"
#include "uarch/ooo_core.hh"
#include "uarch/simple_core.hh"
#include "uarch/simulator.hh"
#include "workload/workload.hh"

using namespace tpcp;

namespace
{

constexpr InstCount kPinInsts = 1'000'000;

/** FNV-1a 64 of the workload name and every interval record. */
std::uint64_t
profileDigest(const trace::IntervalProfile &p)
{
    std::string bytes = p.workload();
    auto put = [&bytes](const void *data, std::size_t size) {
        bytes.append(static_cast<const char *>(data), size);
    };
    for (const trace::IntervalRecord &r : p.intervals()) {
        put(&r.cpi, sizeof(r.cpi));
        put(&r.insts, sizeof(r.insts));
        put(&r.accumTotal, sizeof(r.accumTotal));
        for (const auto &v : r.accums)
            put(v.data(), v.size() * sizeof(v[0]));
    }
    return fnv1a64(bytes);
}

std::string
cacheLine(const uarch::Cache &c)
{
    const uarch::CacheStats &s = c.stats();
    return " " + c.name() + "=" + std::to_string(s.accesses) + "/" +
           std::to_string(s.misses) + "/" + std::to_string(s.writebacks);
}

std::string
tlbLine(const char *name, const uarch::Tlb &t)
{
    return std::string(" ") + name + "=" +
           std::to_string(t.stats().accesses) + "/" +
           std::to_string(t.stats().misses);
}

/** Simulates the pinned prefix of @p name on @p core and renders
 * every pinned value into one line. */
std::string
pinLine(const std::string &name, uarch::TimingCore &core)
{
    const workload::Workload wl = workload::makeWorkload(name);
    auto schedule = wl.makeSchedule();
    uarch::Simulator sim(wl.program, *schedule, core,
                         wl.seed ^ 0xabcdef12345ULL);
    trace::IntervalProfiler profiler(core, wl.name, 100'000,
                                     {8, 16, 32, 64});
    sim.addSink(&profiler);
    sim.run(kPinInsts);

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      profileDigest(profiler.profile())));
    const uarch::CoreStats &cs = core.stats();
    std::string out = std::string("profile=") + digest +
                      " cycles=" + std::to_string(core.cycles()) +
                      " core=" + std::to_string(cs.insts) + "/" +
                      std::to_string(cs.branches) + "/" +
                      std::to_string(cs.branchMispredicts) + "/" +
                      std::to_string(cs.loads) + "/" +
                      std::to_string(cs.stores);
    const uarch::CacheHierarchy &h = *core.memoryHierarchy();
    out += cacheLine(h.icache()) + cacheLine(h.dcache()) +
           cacheLine(h.l2cache()) + tlbLine("itlb", h.itlb()) +
           tlbLine("dtlb", h.dtlb());
    const uarch::BranchPredStats &bp = core.directionPredictor()->stats();
    out += " bpred=" + std::to_string(bp.lookups) + "/" +
           std::to_string(bp.mispredicts);
    return out;
}

/** Checks every workload on cores made by @p make against @p pins. */
template <typename MakeCore>
void
checkPins(const std::map<std::string, std::string> &pins, MakeCore make)
{
    ASSERT_EQ(pins.size(), workload::workloadNames().size());
    for (const std::string &name : workload::workloadNames()) {
        SCOPED_TRACE(name);
        auto it = pins.find(name);
        ASSERT_NE(it, pins.end()) << "no pinned values for " << name;
        auto core = make();
        EXPECT_EQ(pinLine(name, *core), it->second);
    }
}

} // namespace

TEST(SimDigest, OooCoreMatchesRecordedValues)
{
    const std::map<std::string, std::string> pins = {
        {"ammp",
         "profile=7aebb126455bee55 cycles=1102450 "
         "core=1000000/65522/14800/285662/104835 "
         "icache=159117/32/0 dcache=390497/97626/73239 "
         "l2=97658/784/0 itlb=159117/1 dtlb=390497/8 "
         "bpred=65522/14800"},
        {"bzip2/g",
         "profile=f5131191b5699b55 cycles=7253464 "
         "core=1000000/100165/37590/321409/84967 "
         "icache=185049/31/0 dcache=406376/177085/63919 "
         "l2=177116/98555/20519 itlb=185049/1 dtlb=406376/152 "
         "bpred=100165/37590"},
        {"bzip2/p",
         "profile=a27c24ca41c4e9a5 cycles=6919935 "
         "core=1000000/73265/23425/273037/124837 "
         "icache=160221/48/0 dcache=397874/188969/91246 "
         "l2=189017/74425/31561 itlb=160221/2 dtlb=397874/109 "
         "bpred=73265/23425"},
        {"galgel",
         "profile=fede17a232fc8f25 cycles=1036633 "
         "core=1000000/51780/15100/270889/84188 "
         "icache=165244/21/0 dcache=355077/106572/63270 "
         "l2=106593/1036/0 itlb=165244/1 dtlb=355077/10 "
         "bpred=51780/15100"},
        {"gcc/1",
         "profile=9bcb31222f6de082 cycles=2937390 "
         "core=1000000/80294/16562/234084/69273 "
         "icache=169332/458/0 dcache=303357/119573/49160 "
         "l2=120031/27716/10577 itlb=169332/2 dtlb=303357/50 "
         "bpred=80294/16562"},
        {"gcc/s",
         "profile=37ee5f9c2a894b9c cycles=2834586 "
         "core=1000000/80464/20719/240919/107878 "
         "icache=182628/2071/0 dcache=348797/129941/71600 "
         "l2=132012/30710/17513 itlb=182628/10 dtlb=348797/169 "
         "bpred=80464/20719"},
        {"gzip/g",
         "profile=1aa82f60274ec8b8 cycles=2262105 "
         "core=1000000/65723/11431/260459/106869 "
         "icache=162562/22/0 dcache=367328/131616/73457 "
         "l2=131638/19092/10153 itlb=162562/1 dtlb=367328/20 "
         "bpred=65723/11431"},
        {"gzip/p",
         "profile=c1ca214a3d842597 cycles=1597071 "
         "core=1000000/84083/24526/280569/102882 "
         "icache=189388/25/0 dcache=383451/135886/67731 "
         "l2=135911/8746/5520 itlb=189388/1 dtlb=383451/20 "
         "bpred=84083/24526"},
        {"mcf",
         "profile=ef79d61bea4976b0 cycles=7519344 "
         "core=1000000/49573/19538/305699/43707 "
         "icache=150393/35/0 dcache=349406/188031/38342 "
         "l2=188066/94286/26514 itlb=150393/1 dtlb=349406/34398 "
         "bpred=49573/19538"},
        {"perl/d",
         "profile=62d843d7637fe02f cycles=3948771 "
         "core=1000000/121054/38502/243430/112587 "
         "icache=207406/61/0 dcache=356017/190029/79924 "
         "l2=190090/41579/22748 itlb=207406/1 dtlb=356017/35 "
         "bpred=121054/38502"},
        {"perl/s",
         "profile=0328b6f887439ddd cycles=4656964 "
         "core=1000000/92758/24331/280940/97174 "
         "icache=183993/56/0 dcache=378114/185911/60221 "
         "l2=185967/51397/23311 itlb=183993/1 dtlb=378114/35 "
         "bpred=92758/24331"},
    };
    checkPins(pins, [] {
        return std::make_unique<uarch::OooCore>(
            uarch::MachineConfig::table1());
    });
}

TEST(SimDigest, SimpleCoreMatchesRecordedValues)
{
    const std::map<std::string, std::string> pins = {
        {"ammp",
         "profile=b7157fe23e4e1d90 cycles=1337904 "
         "core=1000000/65522/14800/285662/104835 "
         "icache=153439/32/0 dcache=390497/97626/73239 "
         "l2=97658/784/0 itlb=153439/1 dtlb=390497/8 "
         "bpred=65522/14800"},
        {"bzip2/g",
         "profile=1fe1a2f3f823da2c cycles=12185714 "
         "core=1000000/100165/37590/321409/84967 "
         "icache=168686/31/0 dcache=406376/177085/63919 "
         "l2=177116/98555/20519 itlb=168686/1 dtlb=406376/152 "
         "bpred=100165/37590"},
        {"bzip2/p",
         "profile=b1453c7cc7283e6b cycles=8350989 "
         "core=1000000/73265/23425/273037/124837 "
         "icache=151767/48/0 dcache=397874/188969/91246 "
         "l2=189017/74425/31561 itlb=151767/2 dtlb=397874/109 "
         "bpred=73265/23425"},
        {"galgel",
         "profile=94af0b412d369eff cycles=1801064 "
         "core=1000000/51780/15100/270889/84188 "
         "icache=154980/21/0 dcache=355077/106572/63270 "
         "l2=106593/1036/0 itlb=154980/1 dtlb=355077/10 "
         "bpred=51780/15100"},
        {"gcc/1",
         "profile=dd8808f4295ced26 cycles=4030292 "
         "core=1000000/80294/16562/234084/69273 "
         "icache=160650/458/0 dcache=303357/119573/49160 "
         "l2=120031/27716/10577 itlb=160650/2 dtlb=303357/50 "
         "bpred=80294/16562"},
        {"gcc/s",
         "profile=45b4bf2fe0f1ba4b cycles=4047757 "
         "core=1000000/80464/20719/240919/107878 "
         "icache=171671/2071/0 dcache=348797/129941/71600 "
         "l2=132012/30710/17513 itlb=171671/10 dtlb=348797/169 "
         "bpred=80464/20719"},
        {"gzip/g",
         "profile=214bb2352deb2c89 cycles=2941829 "
         "core=1000000/65723/11431/260459/106869 "
         "icache=159103/22/0 dcache=367328/131616/73457 "
         "l2=131638/19092/10153 itlb=159103/1 dtlb=367328/20 "
         "bpred=65723/11431"},
        {"gzip/p",
         "profile=6ff10ad0404cc8fb cycles=2333120 "
         "core=1000000/84083/24526/280569/102882 "
         "icache=176167/25/0 dcache=383451/135886/67731 "
         "l2=135911/8746/5520 itlb=176167/1 dtlb=383451/20 "
         "bpred=84083/24526"},
        {"mcf",
         "profile=761a3e662208391b cycles=12123210 "
         "core=1000000/49573/19538/305699/43707 "
         "icache=141463/35/0 dcache=349406/188031/38342 "
         "l2=188066/94286/26514 itlb=141463/1 dtlb=349406/34398 "
         "bpred=49573/19538"},
        {"perl/d",
         "profile=d774f861caad38d7 cycles=5507228 "
         "core=1000000/121054/38502/243430/112587 "
         "icache=186839/61/0 dcache=356017/190029/79924 "
         "l2=190090/41579/22748 itlb=186839/1 dtlb=356017/35 "
         "bpred=121054/38502"},
        {"perl/s",
         "profile=bc3a33a91b0942e2 cycles=6992575 "
         "core=1000000/92758/24331/280940/97174 "
         "icache=170968/56/0 dcache=378114/185911/60221 "
         "l2=185967/51397/23311 itlb=170968/1 dtlb=378114/35 "
         "bpred=92758/24331"},
    };
    checkPins(pins, [] {
        return std::make_unique<uarch::SimpleCore>(
            uarch::MachineConfig::table1());
    });
}
