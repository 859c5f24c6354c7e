// src/stats/ — the reliability-analytics subsystem.
//
// Three contracts are gated here:
//  * CI math is *correct*: Wilson and Clopper-Pearson against closed-form
//    edge cases (n=0, k=0, k=n), published reference values, and — for the
//    continued-fraction incomplete beta — an independent in-test numerical
//    integration of the Beta density.
//  * Reports are *deterministic*: a report rendered from unmerged shard
//    databases is byte-identical to one rendered from the merged CSV or the
//    merged JSONL, and config-hash validation refuses foreign shards.
//  * Confidence-driven sizing is *reproducible*: `--target-ci` injects a
//    stable content-id prefix of the fixed-count campaign — measurably
//    fewer faults, every tracked rate inside the target half-width, and
//    every injected record bit-identical to the fixed campaign's record at
//    the same ordinal (the ISSUE 4 acceptance gate).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "harness.hpp"
#include "orch/batch_runner.hpp"
#include "orch/shard.hpp"
#include "stats/ci.hpp"
#include "stats/report.hpp"
#include "stats/sizing.hpp"
#include "stats/tally.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

using namespace serep;

namespace {

const npb::Scenario kSmall{isa::Profile::V7, npb::App::DC, npb::Api::Serial, 1,
                           npb::Klass::Mini};
const npb::Scenario kSmallV8{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                             npb::Klass::Mini};

core::CampaignConfig small_config(unsigned faults, std::uint64_t seed) {
    core::CampaignConfig cfg;
    cfg.n_faults = faults;
    cfg.seed = seed;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- CI math

TEST(CiMath, PointRateAndVacuousIntervals) {
    EXPECT_EQ(stats::point_rate(0, 0), 0.0);
    EXPECT_EQ(stats::point_rate(3, 4), 0.75);
    for (auto iv : {stats::wilson(0, 0), stats::clopper_pearson(0, 0)}) {
        EXPECT_EQ(iv.lo, 0.0);
        EXPECT_EQ(iv.hi, 1.0);
        EXPECT_EQ(iv.half_width(), 0.5);
    }
}

TEST(CiMath, ZForCommonConfidences) {
    EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.95), 1.959963984540054);
    EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.90), 1.6448536269514722);
    EXPECT_DOUBLE_EQ(stats::z_for_confidence(0.99), 2.5758293035489004);
    // The Acklam fallback agrees with the pinned table to ~1e-8.
    EXPECT_NEAR(stats::z_for_confidence(0.9500000001), 1.959963984540054, 1e-6);
    EXPECT_THROW(stats::z_for_confidence(0.0), util::Error);
    EXPECT_THROW(stats::z_for_confidence(1.0), util::Error);
}

TEST(CiMath, WilsonClosedFormEdges) {
    const double z = stats::z_for_confidence(0.95);
    // k = 0: interval is exactly [0, z^2 / (n + z^2)].
    for (std::uint64_t n : {1u, 7u, 40u, 1000u}) {
        const stats::Interval iv = stats::wilson(0, n, 0.95);
        EXPECT_NEAR(iv.lo, 0.0, 1e-12) << n;
        EXPECT_NEAR(iv.hi, z * z / (static_cast<double>(n) + z * z), 1e-12)
            << n;
        // k = n mirrors it.
        const stats::Interval top = stats::wilson(n, n, 0.95);
        EXPECT_NEAR(top.lo, 1.0 - iv.hi, 1e-12) << n;
        EXPECT_NEAR(top.hi, 1.0, 1e-12) << n;
    }
    EXPECT_THROW(stats::wilson(5, 4), util::Error);
}

TEST(CiMath, WilsonPublishedValues) {
    // Newcombe (1998), example: 81/263 at 95% -> (0.2553, 0.3662).
    const stats::Interval a = stats::wilson(81, 263, 0.95);
    EXPECT_NEAR(a.lo, 0.2552885, 1e-6);
    EXPECT_NEAR(a.hi, 0.3662096, 1e-6);
    const stats::Interval b = stats::wilson(10, 100, 0.95);
    EXPECT_NEAR(b.lo, 0.0552291, 1e-6);
    EXPECT_NEAR(b.hi, 0.1743657, 1e-6);
    // Symmetry: flipping successes and failures mirrors the interval.
    for (std::uint64_t k : {0u, 3u, 50u, 81u}) {
        const stats::Interval fwd = stats::wilson(k, 100, 0.95);
        const stats::Interval rev = stats::wilson(100 - k, 100, 0.95);
        EXPECT_NEAR(fwd.lo, 1.0 - rev.hi, 1e-12) << k;
        EXPECT_NEAR(fwd.hi, 1.0 - rev.lo, 1e-12) << k;
    }
}

TEST(CiMath, ClopperPearsonClosedFormEdges) {
    // k = 0: hi = 1 - (alpha/2)^(1/n), lo = 0; k = n mirrors.
    for (std::uint64_t n : {1u, 8u, 40u}) {
        const double nd = static_cast<double>(n);
        const stats::Interval bot = stats::clopper_pearson(0, n, 0.95);
        EXPECT_EQ(bot.lo, 0.0);
        EXPECT_NEAR(bot.hi, 1.0 - std::pow(0.025, 1.0 / nd), 1e-10) << n;
        const stats::Interval top = stats::clopper_pearson(n, n, 0.95);
        EXPECT_EQ(top.hi, 1.0);
        EXPECT_NEAR(top.lo, std::pow(0.025, 1.0 / nd), 1e-10) << n;
    }
}

TEST(CiMath, ClopperPearsonPublishedValues) {
    struct Case {
        std::uint64_t k, n;
        double lo, hi;
    };
    // Reference values from Beta-quantile inversion (81/263 also appears in
    // Newcombe 1998 as the "exact" interval 0.2527-0.3676).
    const Case cases[] = {{81, 263, 0.252737, 0.367622},
                          {10, 100, 0.049005, 0.176223},
                          {5, 10, 0.187086, 0.812914},
                          {1, 8, 0.003160, 0.526510}};
    for (const Case& c : cases) {
        const stats::Interval iv = stats::clopper_pearson(c.k, c.n, 0.95);
        EXPECT_NEAR(iv.lo, c.lo, 1e-4) << c.k << "/" << c.n;
        EXPECT_NEAR(iv.hi, c.hi, 1e-4) << c.k << "/" << c.n;
        // CP always contains Wilson's point estimate and is no tighter.
        const stats::Interval w = stats::wilson(c.k, c.n, 0.95);
        EXPECT_LE(iv.lo, stats::point_rate(c.k, c.n));
        EXPECT_GE(iv.hi, stats::point_rate(c.k, c.n));
        EXPECT_GE(iv.half_width(), w.half_width() * 0.99);
    }
}

namespace {

/// Independent check oracle: integrate the Beta(a, b) density over [0, x]
/// with composite Simpson — no shared code with betainc_reg's continued
/// fraction.
double beta_cdf_simpson(double a, double b, double x, int n = 20001) {
    auto pdf = [&](double t) {
        if (t <= 0 || t >= 1) return 0.0;
        return std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                        (a - 1) * std::log(t) + (b - 1) * std::log1p(-t));
    };
    const double h = x / (n - 1);
    double s = pdf(0) + pdf(x);
    for (int i = 1; i < n - 1; ++i) s += pdf(i * h) * (i % 2 ? 4 : 2);
    return s * h / 3;
}

} // namespace

TEST(CiMath, ClopperPearsonMatchesIndependentIntegration) {
    // The defining property of the CP bounds: exactly alpha/2 tail mass on
    // each side, checked against Simpson integration of the Beta density.
    for (const auto& [k, n] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {5, 50}, {20, 60}, {81, 263}}) {
        const double kd = static_cast<double>(k), nd = static_cast<double>(n);
        const stats::Interval iv = stats::clopper_pearson(k, n, 0.95);
        EXPECT_NEAR(beta_cdf_simpson(kd, nd - kd + 1, iv.lo), 0.025, 1e-5)
            << k << "/" << n;
        EXPECT_NEAR(beta_cdf_simpson(kd + 1, nd - kd, iv.hi), 0.975, 1e-5)
            << k << "/" << n;
    }
    // betainc_reg's own identities.
    EXPECT_EQ(stats::betainc_reg(3, 4, 0.0), 0.0);
    EXPECT_EQ(stats::betainc_reg(3, 4, 1.0), 1.0);
    for (double x : {0.1, 0.37, 0.8})
        EXPECT_NEAR(stats::betainc_reg(2.5, 7.0, x) +
                        stats::betainc_reg(7.0, 2.5, 1 - x),
                    1.0, 1e-12);
}

TEST(CiMath, IntervalsShrinkWithSampleSize) {
    double w_prev = 1, cp_prev = 1;
    for (std::uint64_t n : {10u, 40u, 160u, 640u}) {
        const double w = stats::wilson(n / 4, n, 0.95).half_width();
        const double cp = stats::clopper_pearson(n / 4, n, 0.95).half_width();
        EXPECT_LT(w, w_prev);
        EXPECT_LT(cp, cp_prev);
        w_prev = w;
        cp_prev = cp;
    }
}

TEST(CiMath, MinTrialsForHalfWidthIsTight) {
    for (double target : {0.2, 0.1, 0.05, 0.02}) {
        const std::uint64_t n = stats::min_trials_for_half_width(target, 0.95);
        EXPECT_LE(stats::wilson(0, n, 0.95).half_width(), target) << target;
        if (n > 1) {
            EXPECT_GT(stats::wilson(0, n - 1, 0.95).half_width(), target)
                << target;
        }
    }
}

// ------------------------------------------------------------------ tally

TEST(Tally, ParseScenarioName) {
    const stats::GroupKey key = stats::parse_scenario_name("ARMv8-CG-MPI-4");
    EXPECT_EQ(key.isa, "ARMv8");
    EXPECT_EQ(key.app, "CG");
    EXPECT_EQ(key.api, "MPI");
    EXPECT_EQ(key.cores, 4u);
    EXPECT_THROW(stats::parse_scenario_name("ARMv8-CG-MPI"),
                 util::ValidationError);
    EXPECT_THROW(stats::parse_scenario_name("ARMv8-CG-MPI-x"),
                 util::ValidationError);
    EXPECT_THROW(stats::parse_scenario_name(""), util::ValidationError);
    // 2^32 + 1 cores must not narrow into a 1-core group.
    EXPECT_THROW(stats::parse_scenario_name("ARMv8-CG-MPI-4294967297"),
                 util::ValidationError);
}

namespace {

/// Fold `db` into a fresh tally; the ValidationError message, or "" when
/// the database folded.
std::string fold_error(const std::string& db) {
    stats::OutcomeTally t;
    try {
        t.add_database(db, "in");
    } catch (const util::ValidationError& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Tally, RegisterCellsAreReadWholeAndBoundedTo32Bits) {
    // A per-fault CSV's reg cell is read whole and a campaign JSONL's "reg"
    // is bounded to 32 bits: a stray byte, a sign, a blank or 2^32 + 3 is
    // refused naming the row or line (exit 3), never tallied as register 3.
    const std::string head = "scenario,at,kind,core,reg,bit,phys,outcome,retired\n"
                             "ARMv8-EP-SER-1,100,gpr,0,3,5,0,Vanished,900\n";
    const auto csv = [&](const std::string& reg) {
        return head + "ARMv8-EP-SER-1,200,gpr,0," + reg + ",5,0,OMM,900\n";
    };
    for (const char* bad : {"3abc", " 3", "+3", "-1", "4294967299",
                            "99999999999999999999", "", "3.0"}) {
        const std::string err = fold_error(csv(bad));
        EXPECT_NE(err.find("in row 2: malformed reg '" + std::string(bad) + "'"),
                  std::string::npos)
            << bad << ": " << err;
    }
    stats::OutcomeTally good;
    good.add_database(csv("4294967295"), "in");
    good.add_database(csv("0x10"), "in2");
    std::set<unsigned> regs;
    for (const auto& [rk, rc] : good.registers()) regs.insert(rk.reg);
    EXPECT_EQ(regs, (std::set<unsigned>{3, 16, 4294967295u}));

    const auto jsonl = [](const std::string& reg) {
        return std::string(R"({"scenario":"ARMv8-EP-SER-1","records":[)"
                           R"({"kind":"gpr","reg":3,"outcome":"ONA"}]})") +
               "\n" + R"({"scenario":"ARMv8-EP-SER-1","records":[)" +
               R"({"kind":"gpr","reg":)" + reg + R"(,"outcome":"OMM"}]})" + "\n";
    };
    for (const char* bad : {"4294967299", "99999999999999999999", "-1", "3.5",
                            "\"3\""}) {
        const std::string err = fold_error(jsonl(bad));
        EXPECT_NE(err.find("in line 2: 'reg'"), std::string::npos)
            << bad << ": " << err;
    }
    EXPECT_EQ(fold_error(jsonl("4294967295")), "");
}

TEST(Tally, FoldsInProcessResults) {
    orch::BatchRunner runner;
    runner.add(kSmall, small_config(30, 0xDAC2018));
    const auto results = runner.run_all();
    stats::OutcomeTally tally;
    tally.add_result(results[0]);
    ASSERT_EQ(tally.groups().size(), 1u);
    const auto& [key, counts] = *tally.groups().begin();
    EXPECT_EQ(key.scenario(), kSmall.name());
    EXPECT_EQ(key.kind, "gpr");
    EXPECT_EQ(counts.total(), 30u);
    EXPECT_EQ(counts.counts, results[0].counts);
    EXPECT_EQ(counts.masked() + counts.failed(), 30u);
    // Register breakdown sums to the same total for register campaigns.
    std::uint64_t reg_total = 0;
    for (const auto& [rk, rc] : tally.registers()) reg_total += rc.total();
    EXPECT_EQ(reg_total, 30u);
}

namespace {

std::vector<orch::ShardJobSpec> tally_jobs() {
    return {{kSmall, small_config(30, 0xABCDEF)},
            {kSmallV8, small_config(25, 0x1234)}};
}

/// The unsharded reference streams (what BatchRunner emits in one process).
void reference_streams(std::string& csv, std::string& jsonl) {
    orch::BatchRunner runner;
    for (const orch::ShardJobSpec& spec : tally_jobs())
        runner.add(spec.scenario, spec.cfg);
    test::CampaignStreams out = test::campaign_streams(runner.run_all());
    csv = std::move(out.csv);
    jsonl = std::move(out.jsonl);
}

/// The weighted cut over the job order — the scenario-major line of every
/// job list here, which has one job per scenario.
orch::ShardCut weighted_cut(const std::vector<double>& weights, unsigned index,
                            unsigned count,
                            std::uint32_t resolution = 1u << 20) {
    std::vector<std::size_t> line(weights.size());
    std::iota(line.begin(), line.end(), std::size_t{0});
    return orch::make_shard_cut("weighted", weights, line, index, count,
                                resolution);
}

std::vector<std::string> run_all_shards(unsigned count) {
    std::vector<std::string> dbs;
    for (unsigned i = 0; i < count; ++i) {
        std::ostringstream os;
        orch::run_shard(tally_jobs(), orch::uniform_cut(tally_jobs(), i, count),
                        orch::BatchOptions{}, os);
        dbs.push_back(os.str());
    }
    return dbs;
}

} // namespace

TEST(Tally, ReportByteIdenticalAcrossInputShapes) {
    // The determinism contract: unmerged shard DBs, the merged per-fault
    // CSV, and the merged campaign JSONL all render the exact same report,
    // in every output format.
    std::string ref_csv, ref_jsonl;
    reference_streams(ref_csv, ref_jsonl);
    const std::vector<std::string> dbs = run_all_shards(3);

    stats::OutcomeTally from_shards, from_csv, from_jsonl;
    for (std::size_t i = 0; i < dbs.size(); ++i)
        from_shards.add_database(dbs[i], "shard" + std::to_string(i));
    from_csv.add_database(ref_csv, "ref.csv");
    from_jsonl.add_database(ref_jsonl, "ref.jsonl");
    EXPECT_EQ(from_shards.total_records(), 55u);
    EXPECT_EQ(from_csv.total_records(), 55u);
    EXPECT_EQ(from_jsonl.total_records(), 55u);

    for (const auto format : {stats::ReportOptions::Format::Markdown,
                              stats::ReportOptions::Format::Csv,
                              stats::ReportOptions::Format::FigureJson}) {
        stats::ReportOptions opts;
        opts.format = format;
        const std::string a = stats::render_report(from_shards, opts);
        const std::string b = stats::render_report(from_csv, opts);
        const std::string c = stats::render_report(from_jsonl, opts);
        EXPECT_EQ(a, b) << "format " << static_cast<int>(format);
        EXPECT_EQ(a, c) << "format " << static_cast<int>(format);
        EXPECT_FALSE(a.empty());
    }
}

TEST(Tally, ShardConfigHashValidation) {
    const std::vector<std::string> dbs = run_all_shards(2);

    // A shard of a *different* campaign (other seed) must be refused.
    auto other = tally_jobs();
    other[0].cfg.seed = 0xBAD5EED;
    std::ostringstream os;
    orch::run_shard(other, orch::uniform_cut(other, 1, 2), orch::BatchOptions{},
                    os);

    stats::OutcomeTally tally;
    tally.add_database(dbs[0], "shard0");
    EXPECT_THROW(tally.add_database(os.str(), "foreign"),
                 util::ValidationError);
    // The same shard twice must be refused too.
    EXPECT_THROW(tally.add_database(dbs[0], "shard0-again"),
                 util::ValidationError);
    // Cover bookkeeping: partial until the sibling folds (serep report
    // refuses partial covers unless --partial is passed).
    EXPECT_FALSE(tally.shard_cover_complete());
    EXPECT_EQ(tally.shards_seen(), 1u);
    EXPECT_EQ(tally.shard_count(), 2u);
    tally.add_database(dbs[1], "shard1");
    EXPECT_TRUE(tally.shard_cover_complete());
    EXPECT_EQ(tally.total_records(), 55u);
    // Garbage is a validation error, not a crash.
    EXPECT_THROW(tally.add_database("gibberish", "bad"),
                 util::ValidationError);
    EXPECT_THROW(stats::OutcomeTally{}.add_database("", "empty"),
                 util::ValidationError);
}

TEST(Tally, RefusesShardSetMixedWithItsMergedDatabase) {
    // A merged database *contains* the shards' records; folding both would
    // double every count and shrink every CI by ~1/sqrt(2) — refused.
    const std::vector<std::string> dbs = run_all_shards(2);
    std::string ref_csv, ref_jsonl;
    reference_streams(ref_csv, ref_jsonl);

    stats::OutcomeTally shard_first;
    shard_first.add_database(dbs[0], "shard0");
    EXPECT_THROW(shard_first.add_database(ref_jsonl, "merged.jsonl"),
                 util::ValidationError);
    stats::OutcomeTally plain_first;
    plain_first.add_database(ref_csv, "merged.csv");
    EXPECT_THROW(plain_first.add_database(dbs[1], "shard1"),
                 util::ValidationError);
}

TEST(Tally, RejectsMixedPartitionSchemes) {
    // A uniform shard and a weighted shard of the *same* campaign share the
    // config hash but do not tile the fault space together: blending them
    // would double-count some faults and drop others. Both the tally and
    // the merger must refuse the mix via the manifest's partition id.
    const std::vector<std::string> uniform = run_all_shards(2);

    const std::vector<double> weights = orch::probe_job_weights(tally_jobs());
    std::ostringstream os;
    orch::run_shard(tally_jobs(), weighted_cut(weights, 1, 2),
                    orch::BatchOptions{}, os);
    const std::string weighted = os.str();

    stats::OutcomeTally tally;
    tally.add_database(uniform[0], "uniform0");
    EXPECT_THROW(tally.add_database(weighted, "weighted1"),
                 util::ValidationError);
    EXPECT_THROW(orch::merge_shards({uniform[0], weighted}),
                 util::ValidationError);
    // Two differently-weighted cuts are a mix too, even though both say
    // "weighted": the partition id hashes the whole cut matrix.
    std::vector<double> other_weights = weights;
    other_weights[0] *= 3;
    std::ostringstream os2;
    orch::run_shard(tally_jobs(), weighted_cut(other_weights, 0, 2),
                    orch::BatchOptions{}, os2);
    stats::OutcomeTally wtally;
    wtally.add_database(weighted, "weighted1");
    EXPECT_THROW(wtally.add_database(os2.str(), "weighted-other"),
                 util::ValidationError);
}

TEST(Report, OutcomeTableCarriesExtraColumns) {
    orch::BatchRunner runner;
    runner.add(kSmall, small_config(20, 0xDAC2018));
    const auto results = runner.run_all();
    stats::OutcomeTally tally;
    tally.add_result(results[0]);

    stats::GroupKey key = stats::parse_scenario_name(kSmall.name());
    key.kind = "gpr";
    stats::ExtraColumns extra;
    extra.names = {"F*B"};
    extra.cells[key] = {"1.234"};
    const std::string table =
        stats::render_outcome_table(tally, stats::ReportOptions{}, &extra);
    EXPECT_NE(table.find("F*B"), std::string::npos);
    EXPECT_NE(table.find("1.234"), std::string::npos);
    EXPECT_NE(table.find(kSmall.name()), std::string::npos);
    // Arity mismatch is a programming error and must throw.
    extra.cells[key] = {"1.234", "extra"};
    EXPECT_THROW(stats::render_outcome_table(tally, stats::ReportOptions{},
                                             &extra),
                 util::Error);
}

// ----------------------------------------------------- weighted shard cuts

TEST(WeightedShard, PlansPartitionEveryJobExactly) {
    const std::vector<double> weights = {3.0, 1.0, 0.25, 0.0};
    for (unsigned count : {1u, 2u, 3u, 5u}) {
        std::vector<orch::ShardCut> plans;
        for (unsigned s = 0; s < count; ++s)
            plans.push_back(weighted_cut(weights, s, count, 1u << 12));
        for (std::size_t j = 0; j < weights.size(); ++j) {
            // The shards' ranges tile [0, resolution) without gap or overlap.
            std::uint32_t edge = 0;
            for (unsigned s = 0; s < count; ++s) {
                EXPECT_EQ(plans[s].job_ranges[j].first, edge)
                    << "job " << j << " shard " << s << " count " << count;
                EXPECT_LE(plans[s].job_ranges[j].first,
                          plans[s].job_ranges[j].second);
                edge = plans[s].job_ranges[j].second;
            }
            EXPECT_EQ(edge, 1u << 12) << "job " << j << " count " << count;
        }
    }
    EXPECT_THROW(weighted_cut({}, 0, 2), util::UsageError);
    EXPECT_THROW(weighted_cut({1.0}, 2, 2), util::UsageError);
}

TEST(WeightedShard, PlansBalanceWeightedWork) {
    // Skewed jobs: the heavy job is split, the light ones land whole.
    const std::vector<double> weights = {10.0, 1.0, 1.0, 1.0, 1.0};
    const double total = 14.0;
    const unsigned count = 2;
    for (unsigned s = 0; s < count; ++s) {
        const orch::ShardCut plan =
            weighted_cut(weights, s, count, 1u << 20);
        double work = 0;
        for (std::size_t j = 0; j < weights.size(); ++j)
            work += weights[j] *
                    (plan.job_ranges[j].second - plan.job_ranges[j].first) /
                    static_cast<double>(1u << 20);
        EXPECT_NEAR(work, total / count, total * 0.001) << "shard " << s;
    }
}

TEST(WeightedShard, WeightedShardsMergeByteIdenticalToUnsharded) {
    std::string ref_csv, ref_jsonl;
    reference_streams(ref_csv, ref_jsonl);

    const std::vector<double> weights = orch::probe_job_weights(tally_jobs());
    ASSERT_EQ(weights.size(), 2u);
    EXPECT_GT(weights[0], 0.0);
    EXPECT_GT(weights[1], 0.0);

    std::vector<std::string> dbs;
    std::size_t owned_total = 0;
    for (unsigned s = 0; s < 2; ++s) {
        const orch::ShardCut plan =
            weighted_cut(weights, s, 2);
        std::ostringstream os;
        const orch::ShardRunStats st =
            orch::run_shard(tally_jobs(), plan, orch::BatchOptions{}, os);
        owned_total += st.owned;
        dbs.push_back(os.str());
    }
    EXPECT_EQ(owned_total, 55u); // exact disjoint cover

    std::ostringstream csv, jsonl;
    const auto merged = orch::merge_shards(dbs, &csv, &jsonl);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(csv.str(), ref_csv);
    EXPECT_EQ(jsonl.str(), ref_jsonl);
}

TEST(WeightedShard, UnownedJobsSkipGoldenRunsAndStillMerge) {
    // The cut's payoff: a shard whose id range for a job is empty
    // does not run that job at all — its manifest carries "golden": null —
    // and the merger takes the reference from the owning shard. Weights
    // 1:1000 put job 0 wholly on shard 0, so shard 1 skips its golden.
    std::string ref_csv, ref_jsonl;
    reference_streams(ref_csv, ref_jsonl);

    const std::vector<double> weights = {1.0, 1000.0};
    std::vector<std::string> dbs;
    for (unsigned s = 0; s < 2; ++s) {
        std::ostringstream os;
        orch::run_shard(tally_jobs(), weighted_cut(weights, s, 2),
                        orch::BatchOptions{}, os);
        dbs.push_back(os.str());
    }
    EXPECT_EQ(dbs[0].find("\"golden\":null"), std::string::npos);
    EXPECT_NE(dbs[1].find("\"golden\":null"), std::string::npos);

    std::ostringstream csv, jsonl;
    const auto merged = orch::merge_shards(dbs, &csv, &jsonl);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(csv.str(), ref_csv);
    EXPECT_EQ(jsonl.str(), ref_jsonl);
    // The merged golden reference for the job shard 1 skipped is intact.
    EXPECT_GT(merged[0].golden.total_retired, 0u);

    // A shard set where *no* shard ran a job must be refused outright
    // (doctored DBs: null out the only golden).
    std::vector<std::string> doctored = dbs;
    const std::size_t pos = doctored[0].find("\"golden\":{");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t end = doctored[0].find('}', pos);
    doctored[0].replace(pos, end - pos + 1, "\"golden\":null");
    EXPECT_THROW(orch::merge_shards(doctored), util::Error);
}

// ------------------------------------------- confidence-driven campaign sizing

TEST(Sizing, ContentIdOrderIsAPureFunctionOfContent) {
    sim::Machine m = npb::make_machine(kSmall, false);
    sim::Machine golden = m;
    golden.run_until(~0ULL >> 1);
    const core::GoldenRef ref = core::capture_golden(golden);
    const auto faults = core::make_fault_list(m, ref, small_config(100, 0xFEED));
    const std::vector<std::uint32_t> order = stats::content_id_order(faults);
    ASSERT_EQ(order.size(), faults.size());
    // A permutation of 0..n-1, sorted by stable content id.
    std::set<std::uint32_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), faults.size());
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(orch::fault_id(faults[order[i - 1]]),
                  orch::fault_id(faults[order[i]]));
}

TEST(Sizing, AdaptiveCampaignMeetsTargetWithFewerFaultsBitIdentically) {
    // The ISSUE 4 acceptance gate, on a class-S scenario: the sequential
    // stopping rule must (1) inject measurably fewer faults than the fixed
    // campaign, (2) leave every tracked outcome rate's 95% CI half-width at
    // or under the target, and (3) produce records bit-identical to the
    // fixed campaign's at the same ordinals — the injected set being a
    // prefix of the stable content-id order.
    npb::Scenario scen = kSmall;
    scen.klass = npb::Klass::S;
    const core::CampaignConfig cfg = small_config(400, 0xDAC2018);
    constexpr double kTarget = 0.08;

    orch::BatchRunner fixed_runner;
    fixed_runner.add(scen, cfg);
    const core::CampaignResult fixed = fixed_runner.run_all()[0];
    ASSERT_EQ(fixed.records.size(), 400u);

    stats::StatsOptions sopts;
    sopts.target_half_width = kTarget;
    sopts.confidence = 0.95;
    sopts.batch_faults = 50;
    const std::vector<stats::AdaptiveJobResult> adaptive =
        stats::run_adaptive_campaign({{scen, cfg}}, orch::BatchOptions{}, sopts);
    ASSERT_EQ(adaptive.size(), 1u);
    const stats::AdaptiveJobResult& a = adaptive[0];

    // (1) measurably fewer faults (>= 25% saved on this scenario).
    EXPECT_TRUE(a.converged);
    EXPECT_EQ(a.fault_space, 400u);
    ASSERT_EQ(a.result.records.size(), a.ordinals.size());
    EXPECT_LT(a.result.records.size(), 300u);
    EXPECT_GE(a.result.records.size(), 20u);

    // (2) every outcome rate inside the target half-width.
    const std::uint64_t n = a.result.records.size();
    EXPECT_LE(a.max_half_width, kTarget);
    for (unsigned o = 0; o < core::kOutcomeCount; ++o)
        EXPECT_LE(stats::wilson(a.result.counts[o], n, 0.95).half_width(),
                  kTarget)
            << core::outcome_name(static_cast<core::Outcome>(o));

    // (3) the injected set is the content-id-order prefix...
    sim::Machine base = npb::make_machine(scen, false);
    const auto full = core::make_fault_list(base, fixed.golden, cfg);
    ASSERT_EQ(full.size(), 400u);
    const std::vector<std::uint32_t> order = stats::content_id_order(full);
    const std::set<std::uint32_t> injected(a.ordinals.begin(), a.ordinals.end());
    ASSERT_EQ(injected.size(), a.ordinals.size());
    const std::set<std::uint32_t> prefix(order.begin(), order.begin() + n);
    EXPECT_EQ(injected, prefix);

    // ...and every record is bit-identical to the fixed campaign's at the
    // same ordinal (golden references agree too).
    EXPECT_EQ(a.result.golden.total_retired, fixed.golden.total_retired);
    for (std::size_t i = 0; i < a.ordinals.size(); ++i) {
        const core::FaultRecord& got = a.result.records[i];
        const core::FaultRecord& want = fixed.records[a.ordinals[i]];
        ASSERT_EQ(got.fault.at_retired, want.fault.at_retired) << i;
        EXPECT_EQ(got.fault.target.kind, want.fault.target.kind) << i;
        EXPECT_EQ(got.fault.target.core, want.fault.target.core) << i;
        EXPECT_EQ(got.fault.target.reg, want.fault.target.reg) << i;
        EXPECT_EQ(got.fault.target.bit, want.fault.target.bit) << i;
        EXPECT_EQ(got.fault.target.phys, want.fault.target.phys) << i;
        EXPECT_EQ(got.outcome, want.outcome) << i;
        EXPECT_EQ(got.retired, want.retired) << i;
    }
}

TEST(Sizing, MultiKindCampaignRunsOneGoldenPerScenarioInJobOrder) {
    // Kind-major jobs (gpr, then mem) over more scenarios than one ladder
    // chunk holds: the sizer chunks by scenario-complete waves, so each
    // scenario's golden run serves both of its jobs, and results still come
    // back in job order, equal to two single-kind campaigns'.
    std::vector<npb::Scenario> scenarios;
    for (const npb::Scenario& s : npb::paper_scenarios(npb::Klass::Mini))
        if (s.api == npb::Api::Serial &&
            scenarios.size() <= orch::kMaxLaddersInFlight)
            scenarios.push_back(s);
    ASSERT_GT(scenarios.size(), orch::kMaxLaddersInFlight);
    const auto jobs_of = [&](std::initializer_list<bool> mem_kinds) {
        std::vector<orch::ShardJobSpec> jobs;
        for (const bool mem : mem_kinds)
            for (const npb::Scenario& s : scenarios) {
                core::CampaignConfig cfg = small_config(40, 0xDAC2018);
                cfg.memory_faults = mem;
                jobs.push_back({s, cfg});
            }
        return jobs;
    };
    stats::StatsOptions sopts;
    sopts.target_half_width = 0.3;
    sopts.batch_faults = 8;
    sopts.min_faults = 8;
    orch::BatchOptions opts;
    opts.threads = 4;

    telemetry::reset();
    telemetry::set_enabled(true);
    const auto both =
        stats::run_adaptive_campaign(jobs_of({false, true}), opts, sopts);
    telemetry::set_enabled(false);
    EXPECT_EQ(telemetry::counter_value("batch.golden_runs"), scenarios.size());

    const auto gpr =
        stats::run_adaptive_campaign(jobs_of({false}), opts, sopts);
    const auto mem = stats::run_adaptive_campaign(jobs_of({true}), opts, sopts);
    ASSERT_EQ(both.size(), 2 * scenarios.size());
    for (std::size_t j = 0; j < both.size(); ++j) {
        const stats::AdaptiveJobResult& want =
            j < scenarios.size() ? gpr[j] : mem[j - scenarios.size()];
        EXPECT_EQ(both[j].result.scenario.name(), want.result.scenario.name());
        EXPECT_EQ(both[j].ordinals, want.ordinals) << "job " << j;
        EXPECT_EQ(core::campaign_csv(both[j].result),
                  core::campaign_csv(want.result))
            << "job " << j;
    }
}

TEST(Sizing, AdaptiveCampaignExhaustsSpaceOnUnreachableTarget) {
    // A target no 30-fault space can reach: the sizer must inject the whole
    // fixed campaign (equal counts) and report non-convergence.
    const core::CampaignConfig cfg = small_config(30, 0xDAC2018);
    stats::StatsOptions sopts;
    sopts.target_half_width = 0.01;
    sopts.batch_faults = 16;
    const auto adaptive =
        stats::run_adaptive_campaign({{kSmall, cfg}}, orch::BatchOptions{}, sopts);
    ASSERT_EQ(adaptive.size(), 1u);
    EXPECT_FALSE(adaptive[0].converged);
    EXPECT_EQ(adaptive[0].result.records.size(), 30u);
    EXPECT_GT(adaptive[0].max_half_width, 0.01);

    orch::BatchRunner fixed_runner;
    fixed_runner.add(kSmall, cfg);
    const core::CampaignResult fixed = fixed_runner.run_all()[0];
    EXPECT_EQ(adaptive[0].result.counts, fixed.counts);
    // With every ordinal injected, the assembled records equal the fixed
    // campaign's list exactly — so the CSV databases match byte for byte.
    EXPECT_EQ(core::campaign_csv(adaptive[0].result), core::campaign_csv(fixed));
}

TEST(Sizing, RejectsNonsenseOptions) {
    const std::vector<orch::ShardJobSpec> jobs = {{kSmall, small_config(10, 1)}};
    stats::StatsOptions bad;
    bad.target_half_width = 0;
    EXPECT_THROW(stats::run_adaptive_campaign(jobs, {}, bad), util::UsageError);
    bad.target_half_width = 0.7;
    EXPECT_THROW(stats::run_adaptive_campaign(jobs, {}, bad), util::UsageError);
    bad = {};
    bad.batch_faults = 0;
    EXPECT_THROW(stats::run_adaptive_campaign(jobs, {}, bad), util::UsageError);
    EXPECT_THROW(stats::run_adaptive_campaign({}, {}, stats::StatsOptions{}),
                 util::UsageError);
}
