/**
 * @file
 * Unit tests for the adaptation controller and the report scoring:
 * input validation, penalty accounting, determinism, and the
 * baseline orderings (oracle >= static-best >= always-big savings)
 * on planted lattice profiles.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.hh"
#include "common/status.hh"
#include "adapt/controller.hh"
#include "adapt/report.hh"
#include "adapt_test_util.hh"

using namespace tpcp;
using namespace tpcp::adapt;
using adapt_test::Cell;
using adapt_test::makeLatticeProfiles;
using adapt_test::phasesOf;

namespace
{

/** Two phases: phase 1 prefers big, phase 2 prefers small. */
std::vector<Cell>
twoPhaseCells(std::size_t reps)
{
    // On the 4-point small lattice (l1d x width): phase 1 degrades
    // badly on every smaller point; phase 2 is miss-bound and
    // barely slows down.
    std::vector<Cell> cells;
    for (std::size_t r = 0; r < reps; ++r) {
        for (int i = 0; i < 6; ++i)
            cells.push_back({1, {1.0, 1.8, 2.0, 2.6}});
        for (int i = 0; i < 6; ++i)
            cells.push_back({2, {3.0, 3.02, 3.05, 3.08}});
    }
    return cells;
}

} // namespace

TEST(AdaptController, RejectsMismatchedProfileCount)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(2);
    auto profiles = makeLatticeProfiles(3, cells); // lattice has 4
    AdaptController controller(lattice);
    EXPECT_THROW(controller.run(profiles, phasesOf(cells)),
                 tpcp::Error);
}

TEST(AdaptController, RejectsMismatchedPhaseStream)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(2);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    std::vector<PhaseId> short_phases(cells.size() - 1, 1);
    AdaptController controller(lattice);
    EXPECT_THROW(controller.run(profiles, short_phases),
                 tpcp::Error);
}

TEST(AdaptController, SinglePhaseSingleConfigHasNoSwitches)
{
    // A one-point "lattice" can never switch: totals must be the
    // plain sum over the profile and the penalty must stay zero.
    ConfigLattice lattice(uarch::MachineConfig::table1(),
                          {{StepKind::L1dCache, 1}});
    std::vector<Cell> cells(20, Cell{1, {2.0}});
    auto profiles = makeLatticeProfiles(1, cells);
    AdaptController controller(lattice);
    ControllerResult res =
        controller.run(profiles, phasesOf(cells));

    EXPECT_EQ(res.switches.total(), 0u);
    EXPECT_EQ(res.switches.penaltyCycles, 0u);
    EXPECT_DOUBLE_EQ(res.totals.cycles, 20 * 2.0 * 100'000.0);
    EXPECT_EQ(res.phaseChanges, 0u);
}

TEST(AdaptController, RunsAreDeterministic)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(8);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptController controller(lattice);
    ControllerResult a = controller.run(profiles, phasesOf(cells));
    ControllerResult b = controller.run(profiles, phasesOf(cells));
    EXPECT_EQ(a.activeConfig, b.activeConfig);
    EXPECT_DOUBLE_EQ(a.totals.edp, b.totals.edp);
    EXPECT_EQ(a.switches.penaltyCycles, b.switches.penaltyCycles);
}

TEST(AdaptController, EverySwitchIsCharged)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(8);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptController controller(lattice);
    ControllerResult res =
        controller.run(profiles, phasesOf(cells));
    ASSERT_GT(res.switches.total(), 0u);
    PenaltyConfig pc;
    Cycles floor = res.switches.total() *
                   std::min(pc.predictedSwitchCycles,
                            pc.unpredictedSwitchCycles);
    EXPECT_GE(res.switches.penaltyCycles, floor);
    // Config changes in the per-interval record match the stats.
    std::uint64_t observed = 0;
    for (std::size_t t = 1; t < res.activeConfig.size(); ++t) {
        if (res.activeConfig[t] != res.activeConfig[t - 1])
            ++observed;
    }
    EXPECT_EQ(observed, res.switches.total());
}

TEST(AdaptReport, BaselineOrderingOnPlantedProfiles)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(20);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));

    // The oracle dominates every other schedule of lattice configs,
    // and a per-phase oracle can never lose to the best single
    // config under the additive interval-EDP objective.
    EXPECT_GE(r.edpSavings(r.oracle) + 1e-12,
              r.edpSavings(r.staticBest));
    EXPECT_GE(r.edpSavings(r.staticBest) + 1e-12, 0.0);
    EXPECT_LE(r.policyTotals.edp, r.alwaysBig.edp * 1.05)
        << "the policy must stay near the always-big baseline on "
           "profiles with an exploitable small-config phase";
    EXPECT_EQ(r.intervals, cells.size());
    EXPECT_EQ(r.numConfigs, lattice.size());
}

TEST(AdaptReport, PolicyApproachesOracleOnStablePhases)
{
    ConfigLattice lattice = ConfigLattice::small();
    // Long, strongly separated phases: the policy should find each
    // phase's planted best and capture most of the oracle saving.
    std::vector<Cell> cells;
    for (int i = 0; i < 120; ++i)
        cells.push_back({1, {1.0, 1.8, 2.0, 2.6}});
    for (int i = 0; i < 120; ++i)
        cells.push_back({2, {3.0, 3.0, 3.0, 3.0}});
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));
    ASSERT_GT(r.edpSavings(r.oracle), 0.0);
    EXPECT_GT(r.oracleFraction(), 0.80);
    // Phase 2 is insensitive to the configuration, so its oracle
    // choice is the leakage-minimal small point.
    for (const PhaseChoice &pc : r.perPhase) {
        if (pc.phase == 2)
            EXPECT_EQ(pc.oracleConfig, lattice.size() - 1);
    }
}

TEST(AdaptReport, JsonCarriesTheHeadlineNumbers)
{
    ConfigLattice lattice = ConfigLattice::small();
    std::vector<Cell> cells = twoPhaseCells(10);
    auto profiles = makeLatticeProfiles(lattice.size(), cells);
    AdaptReport r = runAdaptation("synthetic",
                                  policyPresetByName("greedy"),
                                  lattice, profiles,
                                  phasesOf(cells));
    std::string json = toJson(r);
    EXPECT_NE(json.find("\"workload\": \"synthetic\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"greedy\""),
              std::string::npos);
    EXPECT_NE(json.find("\"oracle_fraction\":"), std::string::npos);
    EXPECT_NE(json.find("\"per_phase\": ["), std::string::npos);
    // Serialization is deterministic.
    EXPECT_EQ(json, toJson(r));
}

// The bytes below were recorded from the per-report writers that
// preceded common/json; the shared writer must reproduce them.
TEST(AdaptReport, JsonBytesArePinned)
{
    AdaptReport r;
    r.workload = "tab\there";
    r.policy = "greedy";
    r.lattice = "big/4";
    r.numConfigs = 4;
    r.intervals = 10;
    r.numPhases = 2;
    r.switches.predicted = 3;
    r.switches.exploration = 1;
    r.switches.reactive = 2;
    r.switches.penaltyCycles = 500;
    r.phaseChanges = 6;
    r.unanticipatedChanges = 1;
    r.lengthGateSkips = 2;
    // %.10g and %.6g print these differently.
    r.policyTotals = {1234567.891, 2.0 / 3.0, 823045.2};
    r.alwaysBig = {1000000.0, 1.0, 1000000.0};
    r.staticBest = {1100000.0, 0.8, 880000.0};
    r.staticBestConfig = "small";
    r.oracle = {1050000.0, 0.7, 735000.0};
    const std::string head =
        "{\"workload\": \"tab\\there\", \"policy\": \"greedy\", "
        "\"lattice\": \"big/4\", \"num_configs\": 4, "
        "\"intervals\": 10, \"num_phases\": 2, \"switches\": 6, "
        "\"switches_predicted\": 3, \"switches_exploration\": 1, "
        "\"switches_reactive\": 2, \"penalty_cycles\": 500, "
        "\"phase_changes\": 6, \"unanticipated_changes\": 1, "
        "\"length_gate_skips\": 2, \"policy_totals\": "
        "{\"cycles\": 1234567.891, \"energy\": 0.6666666667, "
        "\"edp\": 823045.2}, \"always_big\": {\"cycles\": 1000000, "
        "\"energy\": 1, \"edp\": 1000000}, \"static_best\": "
        "{\"cycles\": 1100000, \"energy\": 0.8, \"edp\": 880000}, "
        "\"static_best_config\": \"small\", \"oracle\": "
        "{\"cycles\": 1050000, \"energy\": 0.7, \"edp\": 735000}, "
        "\"edp_savings_policy\": 0.1769548, "
        "\"edp_savings_static\": 0.12, \"edp_savings_oracle\": 0.265, "
        "\"oracle_fraction\": 0.6677539623, "
        "\"slowdown\": 0.234567891, \"per_phase\": ";
    EXPECT_EQ(toJson(r), head + "[]}");
    r.perPhase.push_back({1, 6, 0, 2});
    r.perPhase.push_back({0, 4, 1, 1});
    const std::string two_phases =
        head +
        "[{\"phase\": 1, \"intervals\": 6, \"policy_config\": 0, "
        "\"oracle_config\": 2}, {\"phase\": 0, \"intervals\": 4, "
        "\"policy_config\": 1, \"oracle_config\": 1}]}";
    EXPECT_EQ(toJson(r), two_phases);
    EXPECT_EQ(json::lines(std::vector<AdaptReport>{}), "[\n]\n");
    EXPECT_EQ(json::lines(std::vector<AdaptReport>{r, r}),
              "[\n  " + two_phases + ",\n  " + two_phases + "\n]\n");
}

TEST(AdaptReport, PresetsAreNamedAndValidated)
{
    EXPECT_EQ(policyPresetByName("greedy").name, "greedy");
    PolicyPreset nopred = policyPresetByName("greedy-nopred");
    EXPECT_FALSE(nopred.options.anticipate);
    EXPECT_FALSE(nopred.options.lengthGate);
    PolicyPreset tage = policyPresetByName("greedy-tage");
    EXPECT_NE(tage.options.changePredictor.make(), nullptr);
    EXPECT_EQ(tage.options.changePredictor.make()->name(), "TAGE");
    EXPECT_THROW((void)policyPresetByName("nosuch"), tpcp::Error);
    EXPECT_EQ(policyPresetNames().size(), 3u);
}
