// Fault-injection framework tests: classification invariants, determinism,
// forced-fault sanity, campaign mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/campaign.hpp"
#include "mine/mining.hpp"
#include "orch/batch_runner.hpp"
#include "prof/profile.hpp"

using namespace serep;
using core::CampaignConfig;
using core::Outcome;
using npb::Api;
using npb::App;
using npb::Klass;
using npb::Scenario;

namespace {

const Scenario kSmall{isa::Profile::V8, App::EP, Api::Serial, 1, Klass::Mini};

/// One campaign on a BatchRunner `threads` wide (the runner's width is the
/// only thread knob; results must not depend on it).
core::CampaignResult run_one(const Scenario& s, const CampaignConfig& cfg,
                             unsigned threads = 2) {
    orch::BatchOptions opts;
    opts.threads = threads;
    orch::BatchRunner runner(opts);
    runner.add(s, cfg);
    return std::move(runner.run_all().front());
}

sim::Machine golden_of(const Scenario& s) {
    sim::Machine m = npb::make_machine(s, false);
    m.run_until(~0ULL >> 1);
    return m;
}

} // namespace

TEST(Fault, GoldenCaptureIsStable) {
    auto m1 = golden_of(kSmall);
    auto m2 = golden_of(kSmall);
    const auto g1 = core::capture_golden(m1);
    const auto g2 = core::capture_golden(m2);
    EXPECT_EQ(g1.total_retired, g2.total_retired);
    EXPECT_EQ(g1.arch_hash, g2.arch_hash);
    EXPECT_EQ(g1.kern_hash, g2.kern_hash);
    EXPECT_EQ(g1.data_hash, g2.data_hash);
    EXPECT_EQ(g1.outputs, g2.outputs);
    EXPECT_GT(g1.app_start, 0u);
    EXPECT_LT(g1.app_start, g1.total_retired);
}

TEST(Fault, FaultFreeRunClassifiesVanished) {
    auto m = golden_of(kSmall);
    const auto g = core::capture_golden(m);
    auto n = golden_of(kSmall);
    EXPECT_EQ(core::classify(n, g, false), Outcome::Vanished);
}

TEST(Fault, FlipIsVisibleInArchHash) {
    auto m = golden_of(kSmall);
    const auto h0 = core::arch_state_hash(m);
    m.flip_gpr(0, 5, 17);
    EXPECT_NE(core::arch_state_hash(m), h0);
    m.flip_gpr(0, 5, 17);
    EXPECT_EQ(core::arch_state_hash(m), h0);
}

TEST(Fault, PcCorruptionBecomesUtOrHang) {
    // Flip a high PC bit mid-run on V7 (PC is architectural there).
    const Scenario s{isa::Profile::V7, App::IS, Api::Serial, 1, Klass::Mini};
    auto gm = golden_of(s);
    const auto g = core::capture_golden(gm);
    sim::Machine m = npb::make_machine(s, false);
    m.run_until(g.app_start + (g.total_retired - g.app_start) / 2);
    m.flip_gpr(0, 15, 27); // PC bit 27 -> wild fetch
    m.run_until(g.total_retired * 4);
    const auto o = core::classify(m, g, m.status() == sim::RunStatus::Running);
    EXPECT_TRUE(o == Outcome::UT || o == Outcome::Hang)
        << core::outcome_name(o);
}

TEST(Fault, DeadRegisterFaultVanishesOrLeavesTrace) {
    // Flipping a high callee-saved register the small app barely uses,
    // right before the end, must not break the output.
    auto gm = golden_of(kSmall);
    const auto g = core::capture_golden(gm);
    sim::Machine m = npb::make_machine(kSmall, false);
    m.run_until(g.total_retired - 50);
    m.flip_gpr(0, 28, 60); // x28, high bit
    m.run_until(g.total_retired * 4);
    const auto o = core::classify(m, g, false);
    EXPECT_TRUE(o == Outcome::Vanished || o == Outcome::ONA)
        << core::outcome_name(o);
}

TEST(Fault, ClassifyComparesEveryByteOfEachRegion) {
    // Two MPI processes, so process 1's static data is covered too. A bit
    // flipped into the finished golden machine at a region's edge must be
    // seen; the first byte past the static data is not compared at all.
    const Scenario s{isa::Profile::V8, App::EP, Api::MPI, 2, Klass::Mini};
    sim::Machine m = golden_of(s);
    const auto g = core::capture_golden(m);
    ASSERT_EQ(m.config().procs, 2u);
    ASSERT_EQ(core::classify(m, g, false), Outcome::Vanished);
    const auto flipped = [&](std::uint64_t phys, unsigned bit) {
        m.mem().flip_phys_bit(phys, bit);
        const Outcome o = core::classify(m, g, false);
        m.mem().flip_phys_bit(phys, bit);
        return o;
    };
    const std::uint64_t kern = m.mem().kern_size();
    const std::uint64_t udata = m.image().udata_size;
    ASSERT_GT(udata, 0u);
    for (const unsigned bit : {0u, 7u}) {
        SCOPED_TRACE("bit " + std::to_string(bit));
        EXPECT_EQ(flipped(0, bit), Outcome::ONA);
        EXPECT_EQ(flipped(kern - 1, bit), Outcome::ONA);
        for (unsigned p = 0; p < 2; ++p) {
            SCOPED_TRACE("process " + std::to_string(p));
            const std::uint64_t base = kern + p * m.mem().user_size();
            EXPECT_EQ(flipped(base, bit), Outcome::OMM);
            EXPECT_EQ(flipped(base + udata - 1, bit), Outcome::OMM);
            EXPECT_EQ(flipped(base + udata, bit), Outcome::Vanished);
        }
    }
    EXPECT_EQ(core::classify(m, g, false), Outcome::Vanished);
}

TEST(Campaign, FaultListDeterministicAndInWindow) {
    auto gm = golden_of(kSmall);
    const auto g = core::capture_golden(gm);
    CampaignConfig cfg;
    cfg.n_faults = 64;
    const auto f1 = core::make_fault_list(gm, g, cfg);
    const auto f2 = core::make_fault_list(gm, g, cfg);
    ASSERT_EQ(f1.size(), 64u);
    for (std::size_t i = 0; i < f1.size(); ++i) {
        EXPECT_EQ(f1[i].at_retired, f2[i].at_retired);
        EXPECT_GE(f1[i].at_retired, g.app_start);
        EXPECT_LT(f1[i].at_retired, g.total_retired);
        EXPECT_LT(f1[i].target.reg, 32u);
        EXPECT_LT(f1[i].target.bit, 64u);
    }
    // sorted by time (checkpoint fast-forward requirement)
    for (std::size_t i = 1; i < f1.size(); ++i)
        EXPECT_LE(f1[i - 1].at_retired, f1[i].at_retired);
}

TEST(Campaign, TargetSpaceMatchesProfile) {
    const Scenario s7{isa::Profile::V7, App::IS, Api::Serial, 1, Klass::Mini};
    auto gm = golden_of(s7);
    const auto g = core::capture_golden(gm);
    CampaignConfig cfg;
    cfg.n_faults = 300;
    unsigned max_reg = 0, max_bit = 0;
    for (const auto& f : core::make_fault_list(gm, g, cfg)) {
        max_reg = std::max(max_reg, f.target.reg);
        max_bit = std::max(max_bit, f.target.bit);
    }
    EXPECT_LT(max_reg, 16u); // V7: 16 GPRs incl. PC
    EXPECT_LT(max_bit, 32u); // V7: 32-bit registers
    EXPECT_GT(max_reg, 10u); // and the space is actually covered
}

TEST(Campaign, CountsSumToTotalAndDeterministic) {
    CampaignConfig cfg;
    cfg.n_faults = 40;
    const auto r1 = run_one(kSmall, cfg, 2);
    EXPECT_EQ(r1.total(), 40u);
    double pct_sum = 0;
    for (unsigned o = 0; o < core::kOutcomeCount; ++o)
        pct_sum += r1.pct(static_cast<Outcome>(o));
    EXPECT_NEAR(pct_sum, 100.0, 1e-9);

    const auto r2 = run_one(kSmall, cfg, 1); // thread count must not matter
    EXPECT_EQ(r1.counts, r2.counts);
    for (std::size_t i = 0; i < r1.records.size(); ++i)
        EXPECT_EQ(r1.records[i].outcome, r2.records[i].outcome) << i;
}

TEST(Campaign, SomeFaultsAreMaskedSomeAreNot) {
    CampaignConfig cfg;
    cfg.n_faults = 120;
    const auto r = run_one(kSmall, cfg);
    // uniform random register strikes: a healthy fraction must vanish and
    // at least some must do damage (very weak bounds by design)
    EXPECT_GT(r.counts[0] + r.counts[1], 20u); // Vanished+ONA
    EXPECT_GT(r.total() - (r.counts[0] + r.counts[1]), 0u);
}

TEST(Campaign, CsvExportHasHeaderAndRows) {
    CampaignConfig cfg;
    cfg.n_faults = 10;
    const auto r = run_one(kSmall, cfg);
    const auto csv = core::campaign_csv(r);
    EXPECT_NE(csv.find("scenario,at,kind"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
              11u);
}

TEST(Profile, MetricsAreConsistent) {
    const auto p = prof::profile_scenario(kSmall);
    EXPECT_GT(p.instructions, 1000u);
    EXPECT_EQ(p.instructions, p.user_instr + p.kernel_instr);
    EXPECT_GT(p.branch_pct, 1.0);
    EXPECT_LT(p.branch_pct, 60.0);
    EXPECT_GT(p.mem_pct, 0.5);
    EXPECT_GT(p.fp_pct, 0.0); // EP on V8 uses FP instructions
    EXPECT_GT(p.vuln_window, 0.0);
    EXPECT_LE(p.balance_dev_pct, 100.0);
}

TEST(Profile, SoftfloatShareOnlyOnV7) {
    const Scenario s7{isa::Profile::V7, App::EP, Api::Serial, 1, Klass::Mini};
    const auto p7 = prof::profile_scenario(s7);
    const auto p8 = prof::profile_scenario(kSmall);
    EXPECT_GT(p7.softfloat_share, 10.0); // EP is FP-heavy: big library share
    EXPECT_EQ(p8.softfloat_share, 0.0);
    EXPECT_GT(p7.instructions, p8.instructions * 2); // the paper's v7 cost
}

TEST(Profile, OmpShowsApiAndKernelExposure) {
    const Scenario s{isa::Profile::V8, App::EP, Api::OMP, 2, Klass::Mini};
    const auto p = prof::profile_scenario(s);
    EXPECT_GT(p.api_share, 0.0);
    EXPECT_GT(p.kernel_share, 0.0);
    EXPECT_GT(p.ctx_switches, 0u);
}

TEST(Mining, StatsBasics) {
    using mine::pearson;
    using mine::spearman;
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    const std::vector<double> yd = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yd), -1.0, 1e-12);
    const std::vector<double> ym = {1, 4, 9, 16, 25}; // monotone, nonlinear
    EXPECT_NEAR(spearman(x, ym), 1.0, 1e-12);
    EXPECT_NEAR(mine::mean({2, 4}), 3.0, 1e-12);
    EXPECT_NEAR(mine::stdev({2, 4}), std::sqrt(2.0), 1e-12);
}

TEST(Mining, MismatchIsSymmetricAndZeroOnSelf) {
    CampaignConfig cfg;
    cfg.n_faults = 30;
    const auto a = run_one(kSmall, cfg);
    cfg.seed = 999;
    const auto b = run_one(kSmall, cfg);
    EXPECT_DOUBLE_EQ(mine::mismatch(a, a), 0.0);
    EXPECT_DOUBLE_EQ(mine::mismatch(a, b), mine::mismatch(b, a));
}

TEST(Mining, DatasetJoinAndCorrelation) {
    mine::Dataset d;
    CampaignConfig cfg;
    cfg.n_faults = 25;
    for (App app : {App::EP, App::IS}) {
        const Scenario s{isa::Profile::V8, app, Api::Serial, 1, Klass::Mini};
        d.add(run_one(s, cfg), prof::profile_scenario(s));
    }
    EXPECT_EQ(d.rows().size(), 2u);
    EXPECT_EQ(d.column("pct_Vanished").size(), 2u);
    const auto csv = d.to_csv();
    EXPECT_NE(csv.find("pct_UT"), std::string::npos);
    const auto cor = mine::correlations(d, "pct_UT");
    EXPECT_FALSE(cor.empty());
}

TEST(Mining, FbIndexNormalizesToBaseline) {
    const auto p = prof::profile_scenario(kSmall);
    EXPECT_DOUBLE_EQ(mine::fb_index(p, p), 1.0);
}
