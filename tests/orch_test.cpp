// Orchestration layer: work-stealing scheduler, checkpoint ladder
// (delta-snapshot rungs), BatchRunner golden cache, fault-space sharding with
// mergeable outcome databases, and the campaign determinism invariant
// (bit-identical outcomes for any pool width, checkpoint stride, engine and
// shard count).
//
// Every campaign in this file pins its seed explicitly and asserts outcome
// counts / database bytes — never scheduler log order — so results are
// stable under any thread interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "orch/batch_runner.hpp"
#include "orch/checkpoint.hpp"
#include "orch/scheduler.hpp"
#include "orch/shard.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

using namespace serep;

namespace {

const npb::Scenario kSmall{isa::Profile::V7, npb::App::DC, npb::Api::Serial, 1,
                           npb::Klass::Mini};
const npb::Scenario kSmallV8{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                             npb::Klass::Mini};

/// Every call site names its seed: campaigns must not depend on an implicit
/// shared default, and a test's fault list should be obvious from its text.
core::CampaignConfig small_config(unsigned faults, std::uint64_t seed) {
    core::CampaignConfig cfg;
    cfg.n_faults = faults;
    cfg.seed = seed;
    return cfg;
}

} // namespace

TEST(Scheduler, ParallelForExecutesEveryIndexExactlyOnce) {
    orch::Scheduler pool(8);
    constexpr std::size_t n = 5000;
    std::vector<std::atomic<unsigned>> hits(n);
    const std::uint64_t before = pool.tasks_executed();
    pool.parallel_for(n, [&](std::size_t i, unsigned) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(pool.tasks_executed() - before, n);
}

TEST(Scheduler, IdleWorkersStealFromSkewedRanges) {
    orch::Scheduler pool(4);
    constexpr std::size_t n = 400;
    // The caller's initial range [0, 100) is slow; helpers drain their own
    // ranges quickly and must steal from it to finish. Stealing depends on
    // OS thread wake-up timing, so allow a few attempts before judging —
    // every attempt still asserts the exactly-once execution contract.
    for (int attempt = 0; attempt < 5; ++attempt) {
        std::vector<std::atomic<unsigned>> hits(n);
        const std::uint64_t before = pool.tasks_stolen();
        pool.parallel_for(n, [&](std::size_t i, unsigned) {
            if (i < 100) std::this_thread::sleep_for(std::chrono::milliseconds(2));
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
        if (pool.tasks_stolen() - before > 0) return;
    }
    FAIL() << "no steal observed in 5 skewed parallel_for runs";
}

TEST(Scheduler, PropagatesBodyExceptions) {
    orch::Scheduler pool(2);
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i, unsigned) {
                                       if (i == 7) util::fail("boom");
                                   }),
                 util::Error);
}

TEST(CheckpointLadder, RungCountRespectsBudgetAndNearestIsOrdered) {
    sim::Machine m = npb::make_machine(kSmall, false);
    orch::LadderOptions opts;
    opts.stride = 500; // absurdly fine: forces thinning
    opts.max_checkpoints = 8;
    orch::CheckpointLadder ladder = orch::run_golden_with_ladder(m, opts);
    EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
    EXPECT_LE(ladder.checkpoints(), 8u);
    EXPECT_GT(ladder.checkpoints(), 0u);
    EXPECT_GT(ladder.stride(), 500u); // thinning doubled it
    for (std::uint64_t at : {std::uint64_t{0}, m.total_retired() / 3,
                             m.total_retired() - 1}) {
        EXPECT_LE(ladder.nearest_retired(at), at);
        const sim::Machine clone = ladder.clone_nearest(at);
        EXPECT_EQ(clone.total_retired(), ladder.nearest_retired(at));
    }
    EXPECT_GT(ladder.footprint_bytes(), 0u);
    EXPECT_GE(ladder.peak_footprint_bytes(), ladder.footprint_bytes());
}

TEST(CheckpointLadder, RungClonesEqualRunsFromResetAndShrinkPeakBytes) {
    // The ladder's contract on a class-S golden run: a clone of the rung
    // nearest any instant is the machine a run from reset reaches at that
    // rung. And the memory claim: the ladder's peak stays at most half of
    // what a full Machine copy per rung would hold.
    npb::Scenario s = kSmall;
    s.klass = npb::Klass::S;

    orch::LadderOptions opts;
    opts.max_checkpoints = 12;
    sim::Machine golden = npb::make_machine(s, false);
    const orch::CheckpointLadder ladder = orch::run_golden_with_ladder(golden, opts);
    ASSERT_GE(ladder.checkpoints(), 2u);

    const std::uint64_t total = golden.total_retired();
    for (std::uint64_t at : {std::uint64_t{0}, total / 7, total / 2, total - 1}) {
        const sim::Machine clone = ladder.clone_nearest(at);
        sim::Machine from_reset = npb::make_machine(s, false);
        from_reset.run_until(ladder.nearest_retired(at));
        ASSERT_EQ(from_reset.status(), sim::RunStatus::Running) << at;
        EXPECT_EQ(clone.total_retired(), from_reset.total_retired()) << at;
        EXPECT_TRUE(sim::matches_snapshot(clone, from_reset)) << at;
        EXPECT_TRUE(sim::matches_snapshot(from_reset, clone)) << at;
        EXPECT_EQ(core::arch_state_hash(clone), core::arch_state_hash(from_reset))
            << at;
        EXPECT_EQ(clone.mem().hash_range(0, clone.mem().phys_size()),
                  from_reset.mem().hash_range(0, from_reset.mem().phys_size()))
            << at;
    }

    // The acceptance gate: >= 2x below one full copy per rung and the base.
    const std::size_t full_copies = (ladder.checkpoints() + 1) *
                                    sim::machine_footprint_bytes(ladder.base());
    EXPECT_LE(2 * ladder.peak_footprint_bytes(), full_copies)
        << "peak " << ladder.peak_footprint_bytes() << " vs full copies "
        << full_copies;
}

TEST(CheckpointLadder, BaseRungClonesStartWithACleanDirtyBitmap) {
    // A clone of the base tracks the pages written since the base, like a
    // clone of any other rung, so a fault run struck before the first rung
    // compares only the pages it wrote at that rung, not all guest memory.
    const auto all_clean = [](const sim::Machine& m) {
        const std::vector<std::uint8_t>& d = m.mem().dirty_pages();
        return std::all_of(d.begin(), d.end(),
                           [](std::uint8_t b) { return b == 0; });
    };
    sim::Machine m = npb::make_machine(kSmall, false);
    orch::CheckpointLadder ladder = orch::run_golden_with_ladder(m, {});
    sim::Machine clone = ladder.clone_nearest(0);
    EXPECT_TRUE(all_clean(clone));

    // A delta taken from a base clone still restores bit-identically.
    clone.run_until(ladder.next_rung_after(0) / 2);
    const sim::MachineDelta d = sim::make_machine_delta(clone, ladder.base());
    EXPECT_FALSE(d.pages.empty());
    const sim::Machine back = sim::restore_machine_delta(d, ladder.base());
    EXPECT_EQ(core::arch_state_hash(back), core::arch_state_hash(clone));
    EXPECT_EQ(back.mem().hash_range(0, back.mem().phys_size()),
              clone.mem().hash_range(0, clone.mem().phys_size()));
    EXPECT_TRUE(sim::matches_snapshot(back, clone));

    // reset_base installs a freshly built base the same way.
    ladder.release_all();
    ladder.reset_base(npb::make_machine(kSmall, false));
    EXPECT_TRUE(all_clean(ladder.clone_nearest(0)));
}

TEST(CheckpointLadder, RungComparisonSeesSteeringStateAndIgnoresAccelerators) {
    // Both directions of the convergence test: a clone of a rung matches
    // it; one change to any state that can steer later execution does not;
    // clearing the MRU filters, which only moves the credit statistics,
    // does.
    sim::Machine golden = npb::make_machine(kSmallV8, false);
    orch::LadderOptions opts;
    opts.max_checkpoints = 8;
    const orch::CheckpointLadder ladder =
        orch::run_golden_with_ladder(golden, opts);
    const std::uint64_t r1 = ladder.next_rung_after(0);
    const std::uint64_t r2 = ladder.next_rung_after(r1);
    ASSERT_NE(r2, orch::CheckpointLadder::kNoRung);
    EXPECT_EQ(ladder.nearest_retired(r2 - 1), r1);
    EXPECT_EQ(ladder.next_rung_after(golden.total_retired()),
              orch::CheckpointLadder::kNoRung);
    EXPECT_TRUE(ladder.matches_rung(ladder.clone_nearest(r2)));

    const auto differs = [&](const char* what, auto&& change) {
        sim::Machine m = ladder.clone_nearest(r2);
        change(m);
        EXPECT_FALSE(ladder.matches_rung(m)) << what;
    };
    differs("gpr bit", [](sim::Machine& m) { m.flip_gpr(0, 3, 7); });
    differs("fp bit", [](sim::Machine& m) { m.flip_fp(0, 2, 51); });
    differs("nzcv", [](sim::Machine& m) {
        m.core(0).regs.flags().z = !m.core(0).regs.flags().z;
    });
    differs("memory byte", [](sim::Machine& m) {
        m.mem().flip_phys_bit(m.mem().kern_size() + 8, 0);
    });
    differs("text byte", [](sim::Machine& m) {
        m.mem().flip_phys_bit(m.mem().text_base(), 0); // clean in the rung
    });
    differs("memory only the golden run wrote", [&](sim::Machine& m) {
        // Rung state over base memory, with a clean bitmap: the pages
        // to compare come from the rung's side alone.
        m.mem().clear_dirty();
        m.mem().set_payload(ladder.clone_nearest(0).mem().take_payload());
    });
    differs("user page map", [](sim::Machine& m) {
        namespace layout = isa::layout;
        for (std::uint64_t va = layout::kUserBase;
             va < layout::kUserBase + m.mem().user_size();
             va += layout::kPageSize)
            if (!m.mem().user_page_mapped(0, va)) {
                m.mem().map_user_range(0, va, va + layout::kPageSize);
                return;
            }
        FAIL() << "every user page is mapped";
    });
    differs("local_tick", [](sim::Machine& m) { ++m.core(0).local_tick; });
    differs("retired (INSTRET)", [](sim::Machine& m) { ++m.core(0).retired; });
    differs("pending_ipi", [](sim::Machine& m) {
        m.core(0).pending_ipi = !m.core(0).pending_ipi;
    });
    differs("l2 retag", [](sim::Machine& m) {
        sim::Cache& l2 = m.l2_cache();
        for (std::uint32_t cell = 0; cell < l2.sets() * l2.ways(); ++cell) {
            const std::uint64_t line =
                l2.line_at(cell / l2.ways(), cell % l2.ways());
            if (line == ~0ULL) continue;
            const std::uint64_t alias =
                line + (std::uint64_t{l2.sets()} << l2.line_shift());
            ASSERT_TRUE(l2.retag(line, alias));
            return;
        }
        FAIL() << "no resident L2 line";
    });

    sim::Machine cleared = ladder.clone_nearest(r2);
    cleared.set_uncore_hook(nullptr); // clears the MRU line filters
    EXPECT_TRUE(ladder.matches_rung(cleared));

    // The same instructions run with the filters cleared: the replay
    // looks up what the golden run credited, so the hit totals agree
    // and only the credit counters differ.
    sim::Machine replay = ladder.clone_nearest(r1);
    replay.set_uncore_hook(nullptr);
    replay.run_until(r2);
    EXPECT_TRUE(ladder.matches_rung(replay));
    const sim::Machine rung = ladder.clone_nearest(r2);
    const auto hits = [](const sim::Machine& m) {
        return m.l1i(0).hits() + m.l1d(0).hits();
    };
    const auto credits = [](const sim::Machine& m) {
        return m.l1i(0).credits() + m.l1d(0).credits();
    };
    EXPECT_EQ(hits(replay), hits(rung));
    EXPECT_LT(credits(replay), credits(rung));

    // Off a rung instant there is nothing to match.
    replay.run_until(r2 + 1);
    EXPECT_FALSE(ladder.matches_rung(replay));
}

TEST(BatchRunner, OutcomesIdenticalAcrossThreadCountsStridesAndEngines) {
    // The header's hard invariant: same seed => byte-identical counts and
    // CSV whatever the pool width, checkpoint stride (a first stride, the
    // default ladder, or disabled) or execution engine (trace superblocks,
    // the reference switch). Every laddered variant closes some runs at
    // a rung where they converged to the golden machine; the ladder-disabled
    // variant has no rungs, simulates every run to the end, and so is the
    // full-simulation oracle the others are compared against.
    struct Variant {
        unsigned threads;
        orch::LadderOptions ladder;
        sim::Engine engine = sim::Engine::Trace;
    };
    const auto stride = [](std::uint64_t first) {
        orch::LadderOptions l;
        l.stride = first;
        return l;
    };
    orch::LadderOptions off;
    off.enabled = false;
    const Variant variants[] = {
        {1, stride(30'000)}, {2, stride(30'000)}, {8, stride(30'000)},
        {2, stride(7'000)},  {8, stride(911)},
        {2, off},
        {2, {}},                                  // the default ladder
        {2, stride(30'000), sim::Engine::Switch}, // reference engine
        {2, {}, sim::Engine::Switch},
    };
    std::vector<std::array<std::uint64_t, core::kOutcomeCount>> counts;
    std::vector<std::string> csvs, jsons;
    for (const Variant& v : variants) {
        orch::BatchOptions opts;
        opts.threads = v.threads;
        opts.ladder = v.ladder;
        opts.engine = v.engine;
        orch::BatchRunner runner(opts);
        runner.add(kSmall, small_config(40, 0xDAC2018));
        const auto results = runner.run_all();
        ASSERT_EQ(results.size(), 1u);
        // Runs converge only at rungs: never without a ladder.
        if (v.ladder.enabled)
            EXPECT_GT(runner.converged_runs(), 0u) << "variant " << counts.size();
        else
            EXPECT_EQ(runner.converged_runs(), 0u) << "variant " << counts.size();
        counts.push_back(results[0].counts);
        csvs.push_back(core::campaign_csv(results[0]));
        jsons.push_back(core::campaign_json(results[0]));
    }
    for (std::size_t i = 1; i < csvs.size(); ++i) {
        EXPECT_EQ(counts[i], counts[0]) << "variant " << i;
        EXPECT_EQ(csvs[i], csvs[0]) << "variant " << i;
        EXPECT_EQ(jsons[i], jsons[0]) << "variant " << i;
    }
}

std::vector<std::uint64_t> rung_positions(const orch::CheckpointLadder& l) {
    std::vector<std::uint64_t> at;
    for (std::uint64_t r = l.next_rung_after(0); r != orch::CheckpointLadder::kNoRung;
         r = l.next_rung_after(r))
        at.push_back(r);
    return at;
}

TEST(CheckpointLadder, OnePassLadderEndsLikeAStraightRunAndThinsToItsBudget) {
    // The golden runs once, pausing at each stride boundary to offer a rung.
    // It must end exactly where a straight run to the end does, and its
    // rungs must sit at multiples of the final stride within the rung and
    // byte budgets, for every engine.
    npb::Scenario class_s = kSmall;
    class_s.klass = npb::Klass::S;
    const npb::Scenario scenarios[] = {
        {isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1, npb::Klass::Mini},
        {isa::Profile::V8, npb::App::EP, npb::Api::OMP, 4, npb::Klass::Mini},
        {isa::Profile::V7, npb::App::EP, npb::Api::MPI, 4, npb::Klass::Mini},
        class_s,
    };
    const auto cache_counts = [](const sim::Machine& m) {
        std::vector<std::uint64_t> n;
        const auto add = [&](const sim::Cache& c) {
            n.push_back(c.hits());
            n.push_back(c.misses());
        };
        for (unsigned c = 0; c < m.cores(); ++c) {
            add(m.l1i(c));
            add(m.l1d(c));
        }
        add(m.l2());
        return n;
    };

    for (const npb::Scenario& s : scenarios) {
        for (const sim::Engine engine :
             {sim::Engine::Switch, sim::Engine::Trace}) {
            sim::Machine booted = npb::make_machine(s, false);
            booted.set_engine(engine);
            sim::Machine straight = booted;
            straight.run_until(~0ULL >> 1);
            ASSERT_EQ(straight.status(), sim::RunStatus::Shutdown);
            const std::uint64_t len = straight.total_retired();

            // 32 MiB holds every ladder here. The last budget admits about
            // eight rung shells over the base, so the ladder thins by bytes.
            const std::size_t roomy = std::size_t{32} << 20;
            const std::size_t tight =
                sim::machine_footprint_bytes(straight) + (512u << 10);
            const std::pair<std::size_t, std::size_t> budgets[] = {
                {1, roomy},  {2, roomy},  {8, roomy},
                {36, roomy}, {64, roomy}, {36, tight}};
            std::uint64_t roomy36_stride = 0;
            for (const auto& [max_rungs, bytes] : budgets) {
                SCOPED_TRACE(s.name() + " engine " +
                             std::to_string(static_cast<int>(engine)) +
                             " max " + std::to_string(max_rungs) +
                             " budget " + std::to_string(bytes));
                orch::LadderOptions opts;
                opts.max_checkpoints = max_rungs;
                opts.memory_budget_bytes = bytes;

                sim::Machine m = booted;
                telemetry::reset();
                telemetry::set_enabled(true);
                const orch::CheckpointLadder ladder =
                    orch::run_golden_with_ladder(m, opts);
                telemetry::set_enabled(false);
                const std::uint64_t rungs_built =
                    telemetry::counter_value("checkpoint.rungs_built");

                // The golden machine at its end, as if run straight.
                EXPECT_TRUE(sim::matches_snapshot(m, straight));
                EXPECT_TRUE(sim::matches_snapshot(straight, m));
                EXPECT_EQ(cache_counts(m), cache_counts(straight));
                EXPECT_EQ(m.trace_stats().chain_links,
                          straight.trace_stats().chain_links);
                EXPECT_EQ(m.trace_stats().fallbacks,
                          straight.trace_stats().fallbacks);
                // A pause can split a superblock on every core: each rung
                // the pass paused for may add one burst per core, never
                // remove one.
                EXPECT_GE(m.trace_stats().bursts, straight.trace_stats().bursts);
                EXPECT_LE(m.trace_stats().bursts,
                          straight.trace_stats().bursts + rungs_built * m.cores());

                // Rungs at multiples of the final stride, within budget.
                const std::vector<std::uint64_t> at = rung_positions(ladder);
                ASSERT_EQ(at.size(), ladder.checkpoints());
                ASSERT_GE(rungs_built, at.size());
                for (const std::uint64_t r : at)
                    EXPECT_EQ(r % ladder.stride(), 0u) << r;
                EXPECT_LE(ladder.checkpoints(), max_rungs);
                EXPECT_GE(ladder.peak_footprint_bytes(), ladder.footprint_bytes());
                if (bytes == tight) {
                    if (ladder.checkpoints() > 1) {
                        EXPECT_LE(ladder.footprint_bytes(), bytes);
                    }
                    EXPECT_GT(ladder.stride(), roomy36_stride)
                        << "the byte budget did not thin the ladder";
                    continue;
                }
                if (max_rungs == 36) roomy36_stride = ladder.stride();
                if (len > max_rungs * opts.stride) {
                    EXPECT_GE(ladder.checkpoints(), (max_rungs + 1) / 2);
                } else {
                    // Never over the cap: a rung at every first stride.
                    EXPECT_EQ(ladder.stride(), opts.stride);
                    EXPECT_EQ(ladder.checkpoints(), (len - 1) / opts.stride);
                }
            }
        }
    }

    // A zero first stride would offer no rung: refused by name, unless the
    // ladder is off (the from-reset oracle), which builds none anyway.
    sim::Machine m = npb::make_machine(kSmall, false);
    orch::LadderOptions zero;
    zero.stride = 0;
    try {
        (void)orch::run_golden_with_ladder(m, zero);
        ADD_FAILURE() << "an enabled ladder with stride 0 was built";
    } catch (const util::Error& e) {
        EXPECT_NE(std::string(e.what()).find("LadderOptions::stride"),
                  std::string::npos)
            << e.what();
    }
    zero.enabled = false;
    sim::Machine off = npb::make_machine(kSmall, false);
    const orch::CheckpointLadder none = orch::run_golden_with_ladder(off, zero);
    EXPECT_EQ(off.status(), sim::RunStatus::Shutdown);
    EXPECT_EQ(none.checkpoints(), 0u);
}

TEST(BatchRunner, CampaignKindsAllProduceClassifiedOutcomes) {
    // The three fault-target spaces the CLI exposes as --kind=gpr|fp|mem.
    core::CampaignConfig gpr = small_config(30, 0x71D5);
    core::CampaignConfig fp = gpr;
    fp.include_fp_regs = true;
    // Seed 6 is chosen so this fault list provably strikes the text mirror
    // (2 of 30 faults land on guest code for this scenario).
    core::CampaignConfig mem = small_config(30, 6);
    mem.memory_faults = true;

    orch::BatchRunner runner;
    runner.add(kSmall, gpr);    // integer registers (V7)
    runner.add(kSmallV8, fp);   // + FP register file (V8)
    runner.add(kSmallV8, mem);  // data memory + text mirror
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), 3u);
    for (const core::CampaignResult& r : results) {
        EXPECT_EQ(r.total(), 30u);
        EXPECT_EQ(r.records.size(), 30u);
        for (const core::FaultRecord& rec : r.records)
            EXPECT_GT(rec.retired, 0u);
    }
    // The fp job really targeted FP registers and the mem job raw memory.
    const auto has_kind = [](const core::CampaignResult& r,
                             core::FaultTarget::Kind k) {
        for (const core::FaultRecord& rec : r.records)
            if (rec.fault.target.kind == k) return true;
        return false;
    };
    EXPECT_TRUE(has_kind(results[1], core::FaultTarget::Kind::FP));
    EXPECT_TRUE(has_kind(results[2], core::FaultTarget::Kind::MEM));
    EXPECT_FALSE(has_kind(results[0], core::FaultTarget::Kind::FP));

    // The memory fault space covers the text mirror: with this seed at
    // least one strike lands on guest code (the decode-once engine's
    // re-decode path runs inside a real campaign).
    const sim::Machine probe = npb::make_machine(kSmallV8, false);
    bool text_struck = false;
    for (const core::FaultRecord& rec : results[2].records)
        text_struck |= rec.fault.target.kind == core::FaultTarget::Kind::MEM &&
                       rec.fault.target.phys >= probe.mem().text_base();
    EXPECT_TRUE(text_struck);
}

TEST(BatchRunner, GoldenCacheRunsOneGoldenPerScenario) {
    orch::BatchRunner runner;
    // Two jobs on the same scenario (different seeds) share one golden run.
    runner.add(kSmall, small_config(20, 1));
    runner.add(kSmall, small_config(20, 2));
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(runner.golden_executions(), 1u);
    // Different seeds => different fault lists, same golden reference.
    EXPECT_NE(core::campaign_csv(results[0]), core::campaign_csv(results[1]));
    EXPECT_EQ(results[0].golden.total_retired, results[1].golden.total_retired);

    // A later batch on the runner reuses the cache; a new scenario misses.
    runner.add(kSmall, small_config(10, 3));
    runner.add(kSmallV8, small_config(10, 3));
    const auto more = runner.run_all();
    ASSERT_EQ(more.size(), 2u);
    EXPECT_EQ(runner.golden_executions(), 2u);
}

TEST(BatchRunner, GoldenCacheDistinguishesProblemClass) {
    // Same isa/app/api/cores but a different problem class is a different
    // golden run — the cache key must not collide on Scenario::name().
    npb::Scenario bigger = kSmall;
    bigger.klass = npb::Klass::S;
    orch::BatchRunner runner;
    runner.add(kSmall, small_config(5, 0xDAC2018));
    runner.add(bigger, small_config(5, 0xDAC2018));
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(runner.golden_executions(), 2u);
    EXPECT_NE(results[0].golden.total_retired, results[1].golden.total_retired);
}

TEST(BatchRunner, StreamsMergedCsvAndJsonlInJobOrder) {
    orch::BatchRunner runner;
    runner.add(kSmall, small_config(15, 0xDAC2018));
    runner.add(kSmallV8, small_config(25, 0xDAC2018));
    const auto results = runner.run_all();
    ASSERT_EQ(results.size(), 2u);
    const test::CampaignStreams out = test::campaign_streams(results);

    // One header, then 15 + 25 data rows, jobs in add() order.
    std::istringstream lines(out.csv);
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line)) rows.push_back(line);
    ASSERT_EQ(rows.size(), 1u + 15 + 25);
    EXPECT_EQ(rows[0].rfind("scenario,", 0), 0u);
    EXPECT_NE(rows[1].find(kSmall.name()), std::string::npos);
    EXPECT_NE(rows[16].find(kSmallV8.name()), std::string::npos);

    std::istringstream jlines(out.jsonl);
    std::vector<std::string> jrows;
    while (std::getline(jlines, line)) jrows.push_back(line);
    ASSERT_EQ(jrows.size(), 2u);
    EXPECT_EQ(jrows[0].front(), '{');
    EXPECT_EQ(jrows[0].back(), '}');
    EXPECT_NE(jrows[0].find("\"scenario\":\"" + kSmall.name() + "\""),
              std::string::npos);
    EXPECT_NE(jrows[1].find("\"scenario\":\"" + kSmallV8.name() + "\""),
              std::string::npos);
}

namespace {

/// `kinds` x `scenarios` golden keys, queued kind-major as a spec plan
/// expands a multi-kind matrix.
std::vector<std::string> kind_major_keys(unsigned kinds, unsigned scenarios) {
    std::vector<std::string> keys;
    for (unsigned k = 0; k < kinds; ++k)
        for (unsigned s = 0; s < scenarios; ++s)
            keys.push_back("scenario" + std::to_string(s));
    return keys;
}

/// The wave contract: every job index exactly once, at most `max_keys`
/// distinct keys per wave, all jobs of a key in one wave, indices ascending.
void expect_scenario_complete(
    const std::vector<std::string>& keys,
    const std::vector<std::vector<std::size_t>>& waves, std::size_t max_keys) {
    std::vector<unsigned> placed(keys.size(), 0);
    std::map<std::string, std::size_t> wave_of;
    for (std::size_t w = 0; w < waves.size(); ++w) {
        std::set<std::string> distinct;
        for (std::size_t k = 0; k < waves[w].size(); ++k) {
            const std::size_t j = waves[w][k];
            ASSERT_LT(j, keys.size());
            if (k > 0) {
                EXPECT_LT(waves[w][k - 1], j) << "wave " << w;
            }
            ++placed[j];
            distinct.insert(keys[j]);
            EXPECT_EQ(wave_of.emplace(keys[j], w).first->second, w)
                << keys[j] << " is split across waves";
        }
        EXPECT_LE(distinct.size(), max_keys) << "wave " << w;
    }
    for (std::size_t j = 0; j < keys.size(); ++j)
        EXPECT_EQ(placed[j], 1u) << "job " << j;
}

} // namespace

TEST(ScenarioWaves, KindMajorJobsOfAScenarioShareOneWave) {
    for (const auto& [kinds, scenarios, max_keys] :
         {std::tuple{2u, 17u, orch::kMaxLaddersInFlight},
          std::tuple{2u, 40u, orch::kMaxLaddersInFlight},
          std::tuple{3u, 20u, std::size_t{3}}}) {
        const std::vector<std::string> keys = kind_major_keys(kinds, scenarios);
        const auto waves = orch::scenario_waves(keys, max_keys);
        expect_scenario_complete(keys, waves, max_keys);
        EXPECT_EQ(waves.size(), (scenarios + max_keys - 1) / max_keys);
        // The first wave holds the first max_keys scenarios under every kind.
        EXPECT_EQ(waves[0].size(), kinds * max_keys);
    }
    // 2 x 17 at the production width: 16 scenarios' 32 jobs, then the 17th's
    // two (indices 16 and 33).
    const auto waves =
        orch::scenario_waves(kind_major_keys(2, 17), orch::kMaxLaddersInFlight);
    ASSERT_EQ(waves.size(), 2u);
    EXPECT_EQ(waves[1], (std::vector<std::size_t>{16, 33}));
    EXPECT_TRUE(orch::scenario_waves({}, orch::kMaxLaddersInFlight).empty());
}

TEST(ScenarioWaves, SingleKindListsKeepTheConsecutiveSplit) {
    // What run_all cut before waves were scenario-complete: consecutive
    // jobs until a (max_keys + 1)-th distinct key appears.
    const auto consecutive = [](const std::vector<std::string>& keys,
                                std::size_t max_keys) {
        std::vector<std::vector<std::size_t>> waves;
        std::size_t cursor = 0;
        while (cursor < keys.size()) {
            std::vector<std::size_t> wave;
            std::set<std::string> seen;
            while (cursor < keys.size()) {
                if (!seen.count(keys[cursor])) {
                    if (seen.size() == max_keys) break;
                    seen.insert(keys[cursor]);
                }
                wave.push_back(cursor++);
            }
            waves.push_back(wave);
        }
        return waves;
    };
    // One kind (each scenario once), and a list whose repeated keys are
    // adjacent (two seeds per scenario).
    std::vector<std::string> paired;
    for (unsigned s = 0; s < 37; ++s)
        for (unsigned seed = 0; seed < 2; ++seed)
            paired.push_back("scenario" + std::to_string(s));
    for (const std::vector<std::string>& keys :
         {kind_major_keys(1, 16), kind_major_keys(1, 40), paired}) {
        const auto waves =
            orch::scenario_waves(keys, orch::kMaxLaddersInFlight);
        EXPECT_EQ(waves, consecutive(keys, orch::kMaxLaddersInFlight));
        expect_scenario_complete(keys, waves, orch::kMaxLaddersInFlight);
    }
}

TEST(BatchRunner, KindMajorBatchGivesEveryJobItsScenariosFullLadder) {
    // More scenarios than one wave holds, queued kind-major (gpr, then mem)
    // the way a multi-kind spec plans them. Each scenario's mem job must run
    // in its gpr job's wave: one golden run per scenario, and fault runs
    // that resume from the full ladder — the same fast-forward as two
    // single-kind batches, instead of from reset on a released ladder.
    std::vector<npb::Scenario> scenarios;
    for (const npb::Scenario& s : npb::paper_scenarios(npb::Klass::Mini))
        if (s.api == npb::Api::Serial &&
            scenarios.size() < orch::kMaxLaddersInFlight + 2)
            scenarios.push_back(s);
    ASSERT_GT(scenarios.size(), orch::kMaxLaddersInFlight);

    struct Batch {
        std::string csv;
        std::uint64_t ff = 0;
        std::size_t goldens = 0;
    };
    const auto run = [&](const orch::BatchOptions& opts,
                         std::initializer_list<bool> mem_kinds) {
        orch::BatchRunner runner(opts);
        for (const bool mem : mem_kinds)
            for (const npb::Scenario& s : scenarios) {
                core::CampaignConfig cfg = small_config(3, 0x5CA1E);
                cfg.memory_faults = mem;
                runner.add(s, cfg);
            }
        const std::string csv = test::campaign_streams(runner.run_all()).csv;
        return Batch{csv, runner.fast_forward_retired(),
                     runner.golden_executions()};
    };
    orch::BatchOptions opts;
    opts.threads = 4;
    const Batch both = run(opts, {false, true});
    EXPECT_EQ(both.goldens, scenarios.size());
    const Batch gpr = run(opts, {false});
    const Batch mem = run(opts, {true});
    EXPECT_GT(gpr.ff, 0u);
    EXPECT_EQ(both.ff, gpr.ff + mem.ff);

    orch::BatchOptions oracle = opts;
    oracle.ladder.enabled = false;
    EXPECT_EQ(both.csv, run(oracle, {false, true}).csv);
}

TEST(BatchRunner, AJobWithNothingToInjectKeepsItsScenariosLadder) {
    // A job whose filter takes no fault completes while its wave is still
    // being set up; a later job of the wave on the same scenario must still
    // resume from the full ladder, not from reset.
    const auto ff_of = [](bool with_empty_job) {
        orch::BatchRunner runner;
        if (with_empty_job)
            runner.add(kSmall, small_config(10, 0xE3),
                       [](std::uint32_t, const core::Fault&) { return false; });
        runner.add(kSmall, small_config(10, 0xE3));
        runner.run_all();
        return runner.fast_forward_retired();
    };
    EXPECT_EQ(ff_of(true), ff_of(false));
}

namespace {

std::vector<orch::ShardJobSpec> shard_jobs() {
    return {{kSmall, small_config(30, 0xABCDEF)},
            {kSmallV8, small_config(25, 0x1234)}};
}

/// The unsharded reference streams (what BatchRunner emits in one process).
void reference_streams(std::string& csv, std::string& jsonl) {
    orch::BatchRunner runner;
    for (const orch::ShardJobSpec& spec : shard_jobs())
        runner.add(spec.scenario, spec.cfg);
    test::CampaignStreams out = test::campaign_streams(runner.run_all());
    csv = std::move(out.csv);
    jsonl = std::move(out.jsonl);
}

std::vector<std::string> run_all_shards(unsigned count) {
    std::vector<std::string> dbs;
    for (unsigned i = 0; i < count; ++i) {
        std::ostringstream os;
        orch::run_shard(shard_jobs(), orch::uniform_cut(shard_jobs(), i, count),
                        orch::BatchOptions{}, os);
        dbs.push_back(os.str());
    }
    return dbs;
}

} // namespace

TEST(Shard, StableFaultIdsPartitionTheFaultSpace) {
    // Every fault goes to exactly one shard, and the assignment depends on
    // content only — the same fault owns the same id under any list order.
    sim::Machine m = npb::make_machine(kSmall, false);
    sim::Machine golden = m;
    golden.run_until(~0ULL >> 1);
    const core::GoldenRef ref = core::capture_golden(golden);
    const auto faults =
        core::make_fault_list(m, ref, small_config(200, 0xFEED));
    for (unsigned count : {1u, 2u, 3u, 7u}) {
        std::vector<orch::ShardCut> cuts;
        for (unsigned i = 0; i < count; ++i)
            cuts.push_back(orch::uniform_cut(
                {{kSmall, small_config(200, 0xFEED)}}, i, count));
        for (const core::Fault& f : faults) {
            unsigned owners = 0;
            for (const orch::ShardCut& cut : cuts)
                owners += cut.owns(0, f) ? 1 : 0;
            ASSERT_EQ(owners, 1u) << "count " << count;
        }
    }
    // Ids are pure functions of content.
    EXPECT_EQ(orch::fault_id(faults[0]), orch::fault_id(faults[0]));
    EXPECT_NE(orch::fault_id(faults[0]), orch::fault_id(faults[1]));
}

TEST(Shard, CutsAreContiguousScenarioMajorSlices) {
    // Seeded random job lists, kind-major as a multi-kind plan lists them:
    // 1-40 scenarios x 1-3 kinds, unequal fault counts. Every fault has one
    // owner, each shard's jobs are one run of the scenario-major line, and
    // the shards pay S + N - 1 goldens at most between them.
    const std::vector<npb::Scenario> all = npb::paper_scenarios(npb::Klass::Mini);
    std::mt19937_64 rng(0x5C07);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<npb::Scenario> picked = all;
        std::shuffle(picked.begin(), picked.end(), rng);
        picked.resize(1 + rng() % 40);
        const unsigned kinds = 1 + static_cast<unsigned>(rng() % 3);
        std::vector<orch::ShardJobSpec> jobs;
        std::vector<std::size_t> scenario_of; // index into picked
        for (unsigned k = 0; k < kinds; ++k)
            for (std::size_t i = 0; i < picked.size(); ++i) {
                core::CampaignConfig cfg =
                    small_config(1 + static_cast<unsigned>(rng() % 90), k);
                cfg.memory_faults = k == 1;
                cfg.include_fp_regs = k == 2;
                jobs.push_back({picked[i], cfg});
                scenario_of.push_back(i);
            }
        SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                     std::to_string(picked.size()) + " scenarios x " +
                     std::to_string(kinds) + " kinds");

        // The line: scenarios in order of first appearance, each scenario's
        // jobs together in list order.
        const std::vector<std::size_t> line = orch::scenario_major_line(jobs);
        ASSERT_EQ(line.size(), jobs.size());
        for (std::size_t p = 0; p < line.size(); ++p)
            ASSERT_EQ(line[p], p % kinds * picked.size() + p / kinds)
                << "position " << p;

        std::vector<double> lengths;
        for (const orch::ShardJobSpec& j : jobs) lengths.push_back(j.cfg.n_faults);
        std::vector<std::size_t> job_order(jobs.size());
        std::iota(job_order.begin(), job_order.end(), std::size_t{0});

        for (unsigned count = 1; count <= 9; ++count) {
            std::vector<orch::ShardCut> cuts;
            for (unsigned i = 0; i < count; ++i) {
                cuts.push_back(orch::uniform_cut(jobs, i, count));
                if (kinds > 1) continue;
                // One job per scenario: the job-order cut, id and all.
                const orch::ShardCut by_job =
                    orch::make_shard_cut("uniform", lengths, job_order, i, count);
                EXPECT_EQ(cuts[i].job_ranges, by_job.job_ranges);
                EXPECT_EQ(cuts[i].partition, by_job.partition);
            }
            std::size_t goldens = 0;
            for (unsigned i = 0; i < count; ++i) {
                EXPECT_EQ(cuts[i].partition, cuts[0].partition);
                // Owned jobs are one run [first, last] of the line.
                std::size_t first = line.size(), last = 0, owned = 0;
                std::set<std::size_t> scenarios;
                for (std::size_t p = 0; p < line.size(); ++p) {
                    if (!cuts[i].runs(line[p])) continue;
                    first = std::min(first, p);
                    last = p;
                    ++owned;
                    scenarios.insert(scenario_of[line[p]]);
                }
                ASSERT_GT(owned, 0u) << "shard " << i << " of " << count;
                EXPECT_EQ(last + 1 - first, owned)
                    << "shard " << i << " of " << count;
                goldens += scenarios.size();
            }
            EXPECT_LE(goldens, picked.size() + count - 1) << "count " << count;
            // Each job's id space is tiled by the shards in order: every
            // fault id has exactly one owner.
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                std::uint32_t edge = 0;
                for (const orch::ShardCut& cut : cuts) {
                    ASSERT_EQ(cut.job_ranges[j].first, edge)
                        << "job " << j << " count " << count;
                    ASSERT_LE(cut.job_ranges[j].first, cut.job_ranges[j].second);
                    edge = cut.job_ranges[j].second;
                }
                ASSERT_EQ(edge, cuts[0].resolution)
                    << "job " << j << " count " << count;
            }
        }
    }
}

TEST(Shard, AJobOrderLineKeepsTheJobOrderCutAndItsId) {
    // One job per scenario: the scenario-major line is the job order, so
    // the cut and its partition id are the job-order cut's — ids written
    // before cuts were scenario-major (pinned here) stay valid.
    const std::vector<double> lengths = {3.0, 1.0, 0.25, 0.0};
    const std::vector<std::size_t> job_order = {0, 1, 2, 3};
    EXPECT_EQ(orch::make_shard_cut("weighted", lengths, job_order, 0, 1).partition,
              "weighted-36bae407f3be9bb4");
    const orch::ShardCut cut =
        orch::make_shard_cut("weighted", lengths, job_order, 0, 3);
    EXPECT_EQ(cut.partition, "weighted-2e19bd364d3d6a6f");
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
        {0, 495161}, {0, 0}, {0, 0}, {0, 0}};
    EXPECT_EQ(cut.job_ranges, ranges);

    std::vector<orch::ShardJobSpec> single = shard_jobs();
    EXPECT_EQ(orch::scenario_major_line(single),
              (std::vector<std::size_t>{0, 1}));

    // Two kinds over two scenarios, kind-major. The scenario-major line
    // puts each scenario's jobs on one shard; a job-order cut of the same
    // lengths would split both scenarios across the shards. Its cut points
    // read the same in line order, so the id must also hash the line.
    std::vector<orch::ShardJobSpec> kinds = single;
    for (orch::ShardJobSpec j : single) {
        j.cfg.memory_faults = true;
        kinds.push_back(j);
    }
    for (orch::ShardJobSpec& j : kinds) j.cfg.n_faults = 10;
    const std::vector<std::size_t> line = orch::scenario_major_line(kinds);
    EXPECT_EQ(line, (std::vector<std::size_t>{0, 2, 1, 3}));
    const std::vector<double> equal(4, 10.0);
    const orch::ShardCut by_scenario = orch::uniform_cut(kinds, 0, 2);
    const orch::ShardCut by_job =
        orch::make_shard_cut("uniform", equal, {0, 1, 2, 3}, 0, 2);
    EXPECT_TRUE(by_scenario.runs(0) && by_scenario.runs(2));
    EXPECT_FALSE(by_scenario.runs(1) || by_scenario.runs(3));
    EXPECT_TRUE(by_job.runs(0) && by_job.runs(1));
    EXPECT_NE(by_scenario.partition, by_job.partition);
}

TEST(Shard, ShardedRunsMergeByteIdenticalToUnsharded) {
    // The acceptance invariant: split 3 ways, run each shard in its own
    // BatchRunner (as separate processes would), merge the databases, and
    // the merged CSV + JSONL equal the single-process bytes exactly.
    std::string ref_csv, ref_jsonl;
    reference_streams(ref_csv, ref_jsonl);

    for (unsigned count : {1u, 3u}) {
        const std::vector<std::string> dbs = run_all_shards(count);

        // Shards genuinely partition the work (no shard sees everything).
        if (count > 1) {
            std::size_t total_records = 0;
            for (const std::string& db : dbs) {
                std::size_t lines = 0;
                for (const char ch : db) lines += ch == '\n';
                total_records += lines - 1; // minus the manifest
            }
            EXPECT_EQ(total_records, 30u + 25u);
        }

        std::ostringstream csv, jsonl;
        const auto merged = orch::merge_shards(dbs, &csv, &jsonl);
        ASSERT_EQ(merged.size(), 2u);
        EXPECT_EQ(csv.str(), ref_csv) << "count " << count;
        EXPECT_EQ(jsonl.str(), ref_jsonl) << "count " << count;
        EXPECT_EQ(merged[0].total(), 30u);
        EXPECT_EQ(merged[1].total(), 25u);
    }

    // Merge order must not matter.
    std::vector<std::string> dbs = run_all_shards(3);
    std::swap(dbs[0], dbs[2]);
    std::ostringstream csv, jsonl;
    orch::merge_shards(dbs, &csv, &jsonl);
    EXPECT_EQ(csv.str(), ref_csv);
    EXPECT_EQ(jsonl.str(), ref_jsonl);
}

TEST(Shard, ShardDatabasesIdenticalAcrossEngines) {
    // Engine choice must not leak into shard outcome databases either: a
    // shard run on the reference switch interpreter emits the same bytes.
    for (unsigned index : {0u, 1u}) {
        std::string db[2];
        for (const sim::Engine e : {sim::Engine::Trace, sim::Engine::Switch}) {
            orch::BatchOptions opts;
            opts.engine = e;
            std::ostringstream os;
            orch::run_shard(shard_jobs(), orch::uniform_cut(shard_jobs(), index, 2),
                            opts, os);
            db[e == sim::Engine::Switch] = os.str();
        }
        EXPECT_EQ(db[0], db[1]) << "shard " << index;
    }
}

TEST(Shard, MergeValidatesManifests) {
    const std::vector<std::string> dbs = run_all_shards(3);

    // Missing shard.
    EXPECT_THROW(orch::merge_shards({dbs[0], dbs[2]}), util::Error);
    // Duplicate shard.
    EXPECT_THROW(orch::merge_shards({dbs[0], dbs[1], dbs[1]}), util::Error);
    // Config mismatch: same shard layout, different seed.
    auto other_jobs = shard_jobs();
    other_jobs[0].cfg.seed = 0xBAD5EED;
    std::ostringstream os;
    orch::run_shard(other_jobs, orch::uniform_cut(other_jobs, 1, 3),
                    orch::BatchOptions{}, os);
    EXPECT_THROW(orch::merge_shards({dbs[0], os.str(), dbs[2]}), util::Error);
    // Garbage input.
    EXPECT_THROW(orch::merge_shards({"not a manifest\n"}), util::Error);
    EXPECT_THROW(orch::merge_shards({"{\"magic\":\"other\"}\n"}), util::Error);
    // An empty job list is rejected outright — it must not re-arm the
    // first-database initialization and skip cross-shard validation.
    EXPECT_THROW(
        orch::merge_shards({"{\"magic\":\"serep-shard\",\"version\":1,"
                            "\"shard\":0,\"count\":3,\"config_hash\":\"0\","
                            "\"jobs\":[]}\n",
                            dbs[1], dbs[2]}),
        util::Error);

    // The intact set still merges after all those rejections.
    EXPECT_EQ(orch::merge_shards(dbs).size(), 2u);
}
