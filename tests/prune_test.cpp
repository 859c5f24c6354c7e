// Fault-equivalence pruning: static-liveness classification on hand-built
// code, analyzer-vs-simulation identity on a seeded fault sample, and the
// BatchRunner integration invariant (pruned campaign == full campaign,
// record for record, with provenance flags on everything not simulated).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/campaign.hpp"
#include "kasm/image.hpp"
#include "npb/npb.hpp"
#include "orch/batch_runner.hpp"
#include "prune/prune.hpp"
#include "sim/machine.hpp"

using namespace serep;
using isa::Cond;
using isa::Instr;
using isa::Op;

namespace {

constexpr std::uint64_t kBase = 0x1000;

constexpr std::uint64_t bit(unsigned r) { return std::uint64_t{1} << r; }

Instr ins(Op op, std::uint8_t rd = isa::kNoReg, std::uint8_t rn = isa::kNoReg,
          std::uint8_t rm = isa::kNoReg, std::int64_t imm = 0,
          Cond cond = Cond::AL) {
    Instr i;
    i.op = op;
    i.rd = rd;
    i.rn = rn;
    i.rm = rm;
    i.imm = imm;
    i.cond = cond;
    return i;
}

kasm::Image image_of(isa::Profile p, std::vector<Instr> code) {
    kasm::Image img;
    img.profile = p;
    img.code = std::move(code);
    img.code_base = kBase;
    return img;
}

std::uint64_t addr(std::size_t i) { return kBase + i * isa::kInstrBytes; }

const npb::Scenario kSmall{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                           npb::Klass::Mini};
const npb::Scenario kSmallV7{isa::Profile::V7, npb::App::DC, npb::Api::Serial,
                             1, npb::Klass::Mini};

} // namespace

TEST(StaticLiveness, OverwrittenRegistersAreDeadUntilTheSink) {
    // 0: ADD r3, r1, r2   reads r1, r2
    // 1: MOVI r1, #0      overwrites r1
    // 2: MOVI r2, #0      overwrites r2
    // 3: RET              sink: everything live
    const kasm::Image img = image_of(
        isa::Profile::V8, {ins(Op::ADD, 3, 1, 2), ins(Op::MOVI, 1, isa::kNoReg,
                                                      isa::kNoReg, 0),
                           ins(Op::MOVI, 2, isa::kNoReg, isa::kNoReg, 0),
                           ins(Op::RET)});
    // The reads at instruction 0 make r1/r2 live on entry.
    EXPECT_NE(prune::static_live_mask(img, addr(0)) & bit(1), 0u);
    EXPECT_NE(prune::static_live_mask(img, addr(0)) & bit(2), 0u);
    // Past the ADD, both are written on the only path before any read.
    EXPECT_EQ(prune::static_live_mask(img, addr(1)) & bit(1), 0u);
    EXPECT_EQ(prune::static_live_mask(img, addr(1)) & bit(2), 0u);
    // At instruction 2 only r2 is still about to be overwritten; r1 now
    // holds a value the sink may consume.
    EXPECT_EQ(prune::static_live_mask(img, addr(2)) & bit(2), 0u);
    EXPECT_NE(prune::static_live_mask(img, addr(2)) & bit(1), 0u);
    // Indirect control (RET) is a sink: conservatively all-live.
    EXPECT_EQ(prune::static_live_mask(img, addr(3)), ~std::uint64_t{0});
}

TEST(StaticLiveness, FlagsLiveBeforeBranchDeadBeforeRedefinition) {
    const std::uint64_t flags = prune::static_live_flags_bit();
    // 0: CMPI r1, #0      defines NZCV (kills the incoming value)
    // 1: BCOND EQ -> 3    consumes NZCV
    // 2: RET
    // 3: RET
    const kasm::Image img = image_of(
        isa::Profile::V8,
        {ins(Op::CMPI, isa::kNoReg, 1, isa::kNoReg, 0),
         ins(Op::BCOND, isa::kNoReg, isa::kNoReg, isa::kNoReg,
             static_cast<std::int64_t>(addr(3)), Cond::EQ),
         ins(Op::RET), ins(Op::RET)});
    EXPECT_NE(prune::static_live_mask(img, addr(1)) & flags, 0u);
    // The compare overwrites the flags before this branch can read them.
    EXPECT_EQ(prune::static_live_mask(img, addr(0)) & flags, 0u);
}

TEST(StaticLiveness, ConditionalBranchMergesBothPaths) {
    // May-read semantics: r1 is overwritten on the fallthrough path but
    // read on the taken path, so it stays live at the branch.
    // 0: BCOND EQ -> 3
    // 1: MOVI r1, #0
    // 2: RET
    // 3: MOV r2, r1
    // 4: RET
    const kasm::Image img = image_of(
        isa::Profile::V8,
        {ins(Op::BCOND, isa::kNoReg, isa::kNoReg, isa::kNoReg,
             static_cast<std::int64_t>(addr(3)), Cond::EQ),
         ins(Op::MOVI, 1, isa::kNoReg, isa::kNoReg, 0), ins(Op::RET),
         ins(Op::MOV, 2, 1), ins(Op::RET)});
    EXPECT_NE(prune::static_live_mask(img, addr(0)) & bit(1), 0u);

    // When the taken path overwrites r1 too, both paths kill it.
    kasm::Image both = img;
    both.code[3] = ins(Op::MOVI, 1, isa::kNoReg, isa::kNoReg, 7);
    EXPECT_EQ(prune::static_live_mask(both, addr(0)) & bit(1), 0u);
}

TEST(StaticLiveness, V7PredicatedWriteDoesNotKill) {
    // A guarded write may not execute, so it cannot kill its destination,
    // and the guard itself consumes the flags.
    // 0: MOVI r1, #7 (cond NE)
    // 1: RET
    const kasm::Image pred = image_of(
        isa::Profile::V7,
        {ins(Op::MOVI, 1, isa::kNoReg, isa::kNoReg, 7, Cond::NE),
         ins(Op::RET)});
    EXPECT_NE(prune::static_live_mask(pred, addr(0)) & bit(1), 0u);
    EXPECT_NE(prune::static_live_mask(pred, addr(0)) &
                  prune::static_live_flags_bit(),
              0u);

    // The same write unconditionally does kill r1.
    const kasm::Image uncond = image_of(
        isa::Profile::V7,
        {ins(Op::MOVI, 1, isa::kNoReg, isa::kNoReg, 7), ins(Op::RET)});
    EXPECT_EQ(prune::static_live_mask(uncond, addr(0)) & bit(1), 0u);
}

TEST(StaticLiveness, OutsideImageIsAllLive) {
    const kasm::Image img = image_of(isa::Profile::V8, {ins(Op::RET)});
    EXPECT_EQ(prune::static_live_mask(img, kBase - 4), ~std::uint64_t{0});
    EXPECT_EQ(prune::static_live_mask(img, addr(1)), ~std::uint64_t{0});
    EXPECT_EQ(prune::static_live_mask(img, addr(0) + 2), ~std::uint64_t{0});
}

TEST(PruneAnalyze, InferredAndFollowedOutcomesMatchSimulation) {
    // Ground-truth differential: simulate every fault of a seeded list and
    // require every Infer plan to predict outcome AND retired-count exactly,
    // and every Follow to land in a class whose representative really does
    // share its simulated future.
    sim::Machine base = npb::make_machine(kSmall, false);
    sim::Machine g = base;
    g.run_until(std::numeric_limits<std::uint64_t>::max() >> 1);
    const core::GoldenRef ref = core::capture_golden(g);

    core::CampaignConfig cfg;
    cfg.n_faults = 48;
    cfg.seed = 0xDAC2018;
    const std::vector<core::Fault> faults =
        core::make_fault_list(base, ref, cfg);
    const prune::PruneAnalysis pa =
        prune::analyze(kSmall, sim::Engine::Trace, faults);
    ASSERT_EQ(pa.plan.size(), faults.size());
    EXPECT_EQ(pa.n_simulate + pa.n_follow + pa.n_infer, faults.size());
    EXPECT_GT(pa.n_infer, 0u);            // pruning must actually prune
    EXPECT_LT(pa.n_simulate, faults.size());

    const std::uint64_t budget =
        static_cast<std::uint64_t>(static_cast<double>(ref.total_retired) *
                                   cfg.watchdog_factor) +
        200'000;
    std::vector<core::Outcome> outcome(faults.size());
    std::vector<std::uint64_t> retired(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        sim::Machine run = base;
        run.run_until(faults[i].at_retired);
        core::apply_fault(run, faults[i].target);
        run.run_until(budget);
        const bool wd = run.status() == sim::RunStatus::Running;
        outcome[i] = core::classify(run, ref, wd);
        retired[i] = run.total_retired();
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const prune::FaultPlan& p = pa.plan[i];
        if (p.action == prune::FaultPlan::Action::Infer) {
            EXPECT_EQ(p.outcome, outcome[i]) << "fault " << i;
            EXPECT_EQ(p.retired, retired[i]) << "fault " << i;
        } else if (p.action == prune::FaultPlan::Action::Follow) {
            ASSERT_LT(p.rep, faults.size());
            EXPECT_EQ(pa.plan[p.rep].action, prune::FaultPlan::Action::Simulate);
            EXPECT_EQ(outcome[i], outcome[p.rep]) << "fault " << i;
            EXPECT_EQ(retired[i], retired[p.rep]) << "fault " << i;
        }
    }
}

TEST(PruneAnalyze, PlanIsDeterministic) {
    sim::Machine base = npb::make_machine(kSmallV7, false);
    sim::Machine g = base;
    g.run_until(std::numeric_limits<std::uint64_t>::max() >> 1);
    const core::GoldenRef ref = core::capture_golden(g);
    core::CampaignConfig cfg;
    cfg.n_faults = 24;
    cfg.seed = 7;
    const std::vector<core::Fault> faults =
        core::make_fault_list(base, ref, cfg);
    const prune::PruneAnalysis a =
        prune::analyze(kSmallV7, sim::Engine::Trace, faults);
    const prune::PruneAnalysis b =
        prune::analyze(kSmallV7, sim::Engine::Trace, faults);
    ASSERT_EQ(a.plan.size(), b.plan.size());
    for (std::size_t i = 0; i < a.plan.size(); ++i) {
        EXPECT_EQ(a.plan[i].action, b.plan[i].action) << i;
        EXPECT_EQ(a.plan[i].rep, b.plan[i].rep) << i;
        EXPECT_EQ(a.plan[i].outcome, b.plan[i].outcome) << i;
        EXPECT_EQ(a.plan[i].retired, b.plan[i].retired) << i;
    }
}

TEST(BatchRunner, PrunedCampaignMatchesFullCampaignRecordForRecord) {
    core::CampaignConfig cfg;
    cfg.n_faults = 40;
    cfg.seed = 0xDAC2018;

    orch::BatchRunner full;
    full.add(kSmall, cfg);
    full.add(kSmallV7, cfg);
    const auto truth = full.run_all();

    orch::BatchOptions opts;
    opts.prune = true;
    opts.prune_verify = 8; // exercise the in-run differential check too
    orch::BatchRunner pruned(opts);
    pruned.add(kSmall, cfg);
    pruned.add(kSmallV7, cfg);
    const auto got = pruned.run_all(); // throws on any verify mismatch

    ASSERT_EQ(got.size(), truth.size());
    std::size_t inferred = 0;
    for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].counts, truth[j].counts);
        // CSV carries no provenance column: pruned output is byte-identical.
        EXPECT_EQ(core::campaign_csv(got[j]), core::campaign_csv(truth[j]));
        ASSERT_EQ(got[j].records.size(), truth[j].records.size());
        for (std::size_t i = 0; i < got[j].records.size(); ++i) {
            EXPECT_EQ(got[j].records[i].outcome, truth[j].records[i].outcome);
            EXPECT_EQ(got[j].records[i].retired, truth[j].records[i].retired);
            EXPECT_FALSE(truth[j].records[i].inferred);
            inferred += got[j].records[i].inferred;
        }
    }
    // The pruned run simulated strictly fewer faults and flagged the rest.
    EXPECT_EQ(pruned.simulated_runs() + inferred, 2 * cfg.n_faults);
    EXPECT_EQ(pruned.inferred_records(), inferred);
    EXPECT_GT(inferred, 0u);
    EXPECT_LT(pruned.simulated_runs(), 2 * cfg.n_faults);
    EXPECT_EQ(pruned.verified_records(), 2 * opts.prune_verify);
    EXPECT_EQ(full.simulated_runs(), 2 * cfg.n_faults);
    EXPECT_EQ(full.inferred_records(), 0u);
}
