// Pruning by inference: analyzer-vs-simulation identity on a seeded fault
// sample, plans that depend on each fault alone, and the BatchRunner
// integration invariant (pruned campaign == full campaign, record for
// record, with provenance flags on everything not simulated). The identity
// checks cover every fault kind pruning serves — gpr, fp and mem — so the
// walker's data, FP and memory evaluation are each held to the simulator.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "npb/npb.hpp"
#include "orch/batch_runner.hpp"
#include "prune/prune.hpp"
#include "sim/machine.hpp"

using namespace serep;

namespace {

const npb::Scenario kSmall{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                           npb::Klass::Mini};
const npb::Scenario kSmallV7{isa::Profile::V7, npb::App::DC, npb::Api::Serial,
                             1, npb::Klass::Mini};

/// A pruning input: a scenario and the fault kind its campaign injects.
struct Case {
    npb::Scenario scenario;
    const char* kind; ///< "gpr", "fp" or "mem"
};

/// gpr on both ISAs, fp on V8 (the only ISA with FP registers), mem on both.
const Case kCases[] = {{kSmall, "gpr"},
                       {kSmallV7, "gpr"},
                       {kSmall, "fp"},
                       {kSmall, "mem"},
                       {kSmallV7, "mem"}};

core::CampaignConfig case_config(const Case& c, unsigned n, std::uint64_t seed) {
    core::CampaignConfig cfg;
    cfg.n_faults = n;
    cfg.seed = seed;
    cfg.include_fp_regs = std::string(c.kind) == "fp";
    cfg.memory_faults = std::string(c.kind) == "mem";
    return cfg;
}

/// The seeded fault list an `n`-fault campaign on `s` injects.
std::vector<core::Fault> fault_list(const npb::Scenario& s, std::size_t n,
                                    std::uint64_t seed) {
    sim::Machine base = npb::make_machine(s, false);
    sim::Machine g = base;
    g.run_until(std::numeric_limits<std::uint64_t>::max() >> 1);
    core::CampaignConfig cfg;
    cfg.n_faults = n;
    cfg.seed = seed;
    return core::make_fault_list(base, core::capture_golden(g), cfg);
}

void expect_same_plan(const prune::FaultPlan& got,
                      const prune::FaultPlan& want, std::size_t i) {
    EXPECT_EQ(static_cast<int>(got.action), static_cast<int>(want.action))
        << "fault " << i;
    EXPECT_EQ(got.outcome, want.outcome) << "fault " << i;
    EXPECT_EQ(got.retired, want.retired) << "fault " << i;
}

} // namespace

TEST(PruneAnalyze, InferredOutcomesMatchSimulation) {
    // Ground-truth differential: simulate every fault of a seeded list and
    // require every Infer plan to predict outcome AND retired-count exactly.
    for (const Case& c : kCases) {
        SCOPED_TRACE(c.scenario.name() + " " + c.kind);
        sim::Machine base = npb::make_machine(c.scenario, false);
        sim::Machine g = base;
        g.run_until(std::numeric_limits<std::uint64_t>::max() >> 1);
        const core::GoldenRef ref = core::capture_golden(g);

        const core::CampaignConfig cfg = case_config(c, 48, 0xDAC2018);
        const std::vector<core::Fault> faults =
            core::make_fault_list(base, ref, cfg);
        const prune::PruneAnalysis pa =
            prune::analyze(c.scenario, sim::Engine::Trace, faults);
        ASSERT_EQ(pa.plan.size(), faults.size());
        EXPECT_EQ(pa.n_simulate + pa.n_infer, faults.size());
        EXPECT_GT(pa.n_infer, 0u);            // pruning must actually prune
        EXPECT_LT(pa.n_simulate, faults.size());

        const std::uint64_t budget =
            static_cast<std::uint64_t>(static_cast<double>(ref.total_retired) *
                                       cfg.watchdog_factor) +
            200'000;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            const prune::FaultPlan& p = pa.plan[i];
            if (p.action != prune::FaultPlan::Action::Infer) continue;
            sim::Machine run = base;
            run.run_until(faults[i].at_retired);
            core::apply_fault(run, faults[i].target);
            run.run_until(budget);
            const bool wd = run.status() == sim::RunStatus::Running;
            EXPECT_EQ(p.outcome, core::classify(run, ref, wd)) << "fault " << i;
            EXPECT_EQ(p.retired, run.total_retired()) << "fault " << i;
        }
    }
}

TEST(PruneAnalyze, PlanIsDeterministic) {
    const std::vector<core::Fault> faults = fault_list(kSmallV7, 24, 7);
    const prune::PruneAnalysis a =
        prune::analyze(kSmallV7, sim::Engine::Trace, faults);
    const prune::PruneAnalysis b =
        prune::analyze(kSmallV7, sim::Engine::Trace, faults);
    ASSERT_EQ(a.plan.size(), b.plan.size());
    for (std::size_t i = 0; i < a.plan.size(); ++i)
        expect_same_plan(a.plan[i], b.plan[i], i);
}

TEST(PruneAnalyze, EachFaultIsPlannedAlone) {
    // A fault's plan depends only on the golden run and the fault itself,
    // so a shard (which analyzes its slice of a job's list) plans every
    // fault as the unsharded run does, and a repeated fault is planned
    // twice the same way.
    const std::vector<core::Fault> faults = fault_list(kSmall, 48, 0xDAC2018);
    const prune::PruneAnalysis whole =
        prune::analyze(kSmall, sim::Engine::Trace, faults);
    ASSERT_EQ(whole.plan.size(), faults.size());

    const auto mid =
        faults.begin() + static_cast<std::ptrdiff_t>(faults.size() / 2);
    std::vector<prune::FaultPlan> halves =
        prune::analyze(kSmall, sim::Engine::Trace, {faults.begin(), mid}).plan;
    const std::vector<prune::FaultPlan> upper =
        prune::analyze(kSmall, sim::Engine::Trace, {mid, faults.end()}).plan;
    halves.insert(halves.end(), upper.begin(), upper.end());
    ASSERT_EQ(halves.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        expect_same_plan(halves[i], whole.plan[i], i);

    std::size_t first = 0;
    while (first < faults.size() &&
           whole.plan[first].action != prune::FaultPlan::Action::Simulate)
        ++first;
    ASSERT_LT(first, faults.size()) << "no Simulate fault: the test is vacuous";
    std::vector<core::Fault> doubled = faults;
    doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(first) + 1,
                   faults[first]);
    const prune::PruneAnalysis d =
        prune::analyze(kSmall, sim::Engine::Trace, doubled);
    ASSERT_EQ(d.plan.size(), doubled.size());
    for (std::size_t j = 0; j < doubled.size(); ++j)
        expect_same_plan(d.plan[j], whole.plan[j <= first ? j : j - 1], j);
}

TEST(BatchRunner, PrunedCampaignMatchesFullCampaignRecordForRecord) {
    const unsigned n_faults = 40;
    orch::BatchRunner full;
    orch::BatchOptions opts;
    opts.prune = true;
    opts.prune_verify = 8; // exercise the in-run differential check too
    orch::BatchRunner pruned(opts);
    for (const Case& c : kCases) {
        full.add(c.scenario, case_config(c, n_faults, 0xDAC2018));
        pruned.add(c.scenario, case_config(c, n_faults, 0xDAC2018));
    }
    const auto truth = full.run_all();
    const auto got = pruned.run_all(); // throws on any verify mismatch
    const std::size_t jobs = std::size(kCases);

    ASSERT_EQ(got.size(), truth.size());
    std::size_t inferred = 0;
    for (std::size_t j = 0; j < got.size(); ++j) {
        SCOPED_TRACE(got[j].scenario.name() + " " + kCases[j].kind);
        EXPECT_EQ(got[j].counts, truth[j].counts);
        // CSV carries no provenance column: pruned output is byte-identical.
        EXPECT_EQ(core::campaign_csv(got[j]), core::campaign_csv(truth[j]));
        ASSERT_EQ(got[j].records.size(), truth[j].records.size());
        std::size_t job_inferred = 0;
        for (std::size_t i = 0; i < got[j].records.size(); ++i) {
            EXPECT_EQ(got[j].records[i].outcome, truth[j].records[i].outcome);
            EXPECT_EQ(got[j].records[i].retired, truth[j].records[i].retired);
            EXPECT_FALSE(truth[j].records[i].inferred);
            job_inferred += got[j].records[i].inferred;
        }
        EXPECT_GT(job_inferred, 0u);
        inferred += job_inferred;
    }
    // The pruned run simulated strictly fewer faults and flagged the rest.
    EXPECT_EQ(pruned.simulated_runs() + inferred, jobs * n_faults);
    EXPECT_EQ(pruned.inferred_records(), inferred);
    EXPECT_LT(pruned.simulated_runs(), jobs * n_faults);
    EXPECT_EQ(pruned.verified_records(), jobs * opts.prune_verify);
    EXPECT_EQ(full.simulated_runs(), jobs * n_faults);
    EXPECT_EQ(full.inferred_records(), 0u);
}
