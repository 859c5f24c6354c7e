// Property tests across module boundaries: guest par_bounds partitions,
// soft-float boundary behaviour, classifier invariants under random faults.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "kgen/kgen.hpp"
#include "rt/librt.hpp"
#include "rt/softfloat.hpp"
#include "sim/snapshot.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

using namespace serep;
using namespace serep::test;
using isa::Cond;
using kasm::Assembler;

namespace {

/// Guest-execute par_bounds for a table of (n, nth, tid) triples.
std::vector<std::pair<std::uint64_t, std::uint64_t>> guest_bounds(
    Profile p, const std::vector<std::array<std::uint32_t, 3>>& cases) {
    std::uint64_t table = 0;
    auto m = run_kernel_snippet(
        p,
        [&](Assembler& a) {
            auto start = a.newl();
            a.b(start);
            if (p == Profile::V7) rt::build_softfloat(a); // __udiv32 dependency
            rt::build_librt(a);
            a.kdata().align(8);
            table = a.kdata().cursor();
            for (const auto& c : cases) {
                a.kdata().u64v(c[0]);
                a.kdata().u64v(c[1]);
                a.kdata().u64v(c[2]);
                a.kdata().u64v(0); // out lo
                a.kdata().u64v(0); // out hi
            }
            a.bind(start);
            kgen::KGen g(a);
            g.enter_frame(0);
            const auto ptr = g.ivar(), cnt = g.ivar(), n = g.ivar(),
                       tid = g.ivar(), nth = g.ivar(), lo = g.ivar(),
                       hi = g.ivar();
            a.movi(ptr, static_cast<std::int64_t>(table));
            a.movi(cnt, static_cast<std::int64_t>(cases.size()));
            auto loop = a.newl();
            a.bind(loop);
            a.ldr(n, ptr, 0);
            a.ldr(tid, ptr, 8);
            a.ldr(nth, ptr, 16);
            g.par_bounds(lo, hi, n, tid, nth);
            a.str(lo, ptr, 24);
            a.str(hi, ptr, 32);
            a.addi(ptr, ptr, 40);
            a.subsi(cnt, cnt, 1);
            a.b(Cond::NE, loop);
            g.leave_frame();
            finish(a);
        },
        1, 1, 30'000'000);
    EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const unsigned w = isa::profile_info(p).width_bytes;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto off = table - isa::layout::kKernBase + i * 40;
        out.emplace_back(m.mem().load(off + 24, w), m.mem().load(off + 32, w));
    }
    return out;
}

} // namespace

class PropBothProfiles : public ::testing::TestWithParam<Profile> {};
INSTANTIATE_TEST_SUITE_P(Profiles, PropBothProfiles,
                         ::testing::Values(Profile::V7, Profile::V8),
                         [](const auto& info) {
                             return info.param == Profile::V7 ? "V7" : "V8";
                         });

TEST_P(PropBothProfiles, ParBoundsPartitionsCoverExactly) {
    // For many (n, nth): the union of all tids' [lo,hi) must tile [0,n).
    std::vector<std::array<std::uint32_t, 3>> cases;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> combos;
    for (std::uint32_t n : {0u, 1u, 2u, 3u, 7u, 8u, 16u, 63u, 100u, 1023u}) {
        for (std::uint32_t nth : {1u, 2u, 3u, 4u, 7u, 8u}) {
            combos.emplace_back(n, nth);
            for (std::uint32_t tid = 0; tid < nth; ++tid)
                cases.push_back({n, tid, nth});
        }
    }
    const auto got = guest_bounds(GetParam(), cases);
    std::size_t k = 0;
    for (const auto& [n, nth] : combos) {
        std::uint64_t expect_lo = 0;
        for (std::uint32_t tid = 0; tid < nth; ++tid, ++k) {
            const auto [lo, hi] = got[k];
            EXPECT_EQ(lo, expect_lo) << "n=" << n << " nth=" << nth << " tid=" << tid;
            EXPECT_LE(lo, hi);
            EXPECT_LE(hi, n);
            expect_lo = hi;
        }
        EXPECT_EQ(expect_lo, n) << "n=" << n << " nth=" << nth;
    }
}

TEST(SoftFloatEdges, OverflowUnderflowAndSignedZero) {
    const double dmax = std::numeric_limits<double>::max();
    const double tiny = 1e-300;
    std::vector<std::pair<double, double>> cases = {
        {dmax, dmax},      // add -> +inf
        {-dmax, -dmax},    // add -> -inf
        {tiny, -tiny},     // exact cancel -> +0
        {0.0, -0.0},
        {1.0, -1.0},
    };
    // reuse the sweep runner from softfloat_test via a local copy: simpler
    // to assemble directly here
    std::uint64_t table = 0;
    auto m = run_kernel_snippet(
        Profile::V7,
        [&](Assembler& a) {
            auto start = a.newl();
            a.b(start);
            rt::build_softfloat(a);
            a.kdata().align(8);
            table = a.kdata().cursor();
            for (auto [x, y] : cases) {
                a.kdata().f64(x);
                a.kdata().f64(y);
                a.kdata().u64v(0);
            }
            a.bind(start);
            const auto ptr = a.sav(0), n = a.sav(1);
            a.movi(ptr, static_cast<std::int64_t>(table));
            a.movi(n, static_cast<std::int64_t>(cases.size()));
            auto loop = a.newl();
            a.bind(loop);
            a.ldr(0, ptr, 0);
            a.ldr(1, ptr, 4);
            a.ldr(2, ptr, 8);
            a.ldr(3, ptr, 12);
            a.bl("__adddf3");
            a.str(0, ptr, 16);
            a.str(1, ptr, 20);
            a.addi(ptr, ptr, 24);
            a.subsi(n, n, 1);
            a.b(Cond::NE, loop);
            finish(a);
        },
        1, 1, 1'000'000);
    ASSERT_EQ(m.status(), sim::RunStatus::Shutdown);
    auto res = [&](int i) {
        return util::bits_f64(
            m.mem().load(table - isa::layout::kKernBase + i * 24 + 16, 8));
    };
    EXPECT_TRUE(std::isinf(res(0)) && res(0) > 0);
    EXPECT_TRUE(std::isinf(res(1)) && res(1) < 0);
    EXPECT_EQ(res(2), 0.0);
    EXPECT_EQ(res(3), 0.0);
    EXPECT_EQ(res(4), 0.0);
}

TEST(ClassifierInvariants, RandomFaultsAlwaysClassify) {
    // Any random strike must land in exactly one category and the machine
    // must always reach a terminal condition within the watchdog budget.
    const npb::Scenario s{isa::Profile::V7, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine gm = npb::make_machine(s, false);
    gm.run_until(~0ULL >> 1);
    const auto g = core::capture_golden(gm);
    util::Rng rng(777);
    std::array<unsigned, core::kOutcomeCount> seen{};
    for (int i = 0; i < 30; ++i) {
        sim::Machine m = npb::make_machine(s, false);
        const auto at = rng.range(g.app_start, g.total_retired - 1);
        m.run_until(at);
        m.flip_gpr(0, static_cast<unsigned>(rng.below(16)),
                   static_cast<unsigned>(rng.below(32)));
        m.run_until(g.total_retired * 4 + 200'000);
        const auto o =
            core::classify(m, g, m.status() == sim::RunStatus::Running);
        ++seen[static_cast<unsigned>(o)];
    }
    unsigned total = 0;
    for (auto c : seen) total += c;
    EXPECT_EQ(total, 30u);
    EXPECT_GT(seen[0] + seen[1], 0u); // something masks
}

TEST(CheckpointInvariants, CloneFromMidRunCheckpointMatchesFromResetReplay) {
    // The orchestrator's checkpoint-ladder premise: a machine value-copied at
    // an arbitrary paused instant and run to completion is indistinguishable
    // from the uninterrupted from-reset execution.
    for (const npb::Scenario& s :
         {npb::Scenario{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                        npb::Klass::Mini},
          npb::Scenario{isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2,
                        npb::Klass::Mini}}) {
        sim::Machine reference = npb::make_machine(s, false);
        reference.run_until(~0ULL >> 1);
        ASSERT_EQ(reference.status(), sim::RunStatus::Shutdown) << s.name();

        util::Rng rng(0xC0FFEE);
        for (int trial = 0; trial < 6; ++trial) {
            const auto point = rng.range(1, reference.total_retired() - 1);
            sim::Machine paused = npb::make_machine(s, false);
            paused.run_until(point);
            ASSERT_EQ(paused.status(), sim::RunStatus::Running);
            sim::Machine resumed = paused; // the checkpoint clone
            resumed.run_until(~0ULL >> 1);

            EXPECT_EQ(resumed.status(), reference.status()) << s.name();
            EXPECT_EQ(resumed.exit_code(), reference.exit_code()) << s.name();
            EXPECT_EQ(resumed.total_retired(), reference.total_retired())
                << s.name() << " snapshot at " << point;
            EXPECT_EQ(core::arch_state_hash(resumed),
                      core::arch_state_hash(reference))
                << s.name();
            for (unsigned p = 0; p < resumed.config().procs; ++p) {
                EXPECT_EQ(resumed.output(p), reference.output(p))
                    << s.name() << " proc " << p;
                EXPECT_EQ(resumed.proc_exit_code(p), reference.proc_exit_code(p))
                    << s.name() << " proc " << p;
            }
        }
    }
}

TEST(CheckpointInvariants, StrideDrivenRunMatchesStraightRun) {
    // Pausing at checkpoint boundaries must not perturb execution.
    const npb::Scenario s{isa::Profile::V8, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine straight = npb::make_machine(s, false);
    straight.run_until(~0ULL >> 1);

    sim::Machine chunked = npb::make_machine(s, false);
    unsigned checkpoints = 0;
    for (std::uint64_t at = 1000; chunked.status() == sim::RunStatus::Running;
         at += 1000) {
        chunked.run_until(at);
        if (chunked.status() == sim::RunStatus::Running) {
            EXPECT_EQ(chunked.total_retired(), at);
            ++checkpoints;
        }
    }

    EXPECT_GT(checkpoints, 0u);
    EXPECT_EQ(chunked.status(), straight.status());
    EXPECT_EQ(chunked.exit_code(), straight.exit_code());
    EXPECT_EQ(chunked.total_retired(), straight.total_retired());
    EXPECT_EQ(core::arch_state_hash(chunked), core::arch_state_hash(straight));
    EXPECT_EQ(chunked.output(0), straight.output(0));
}

TEST(CheckpointInvariants, RestoreFromDeltaMatchesRestoreFromFullCopy) {
    // Delta-snapshot premise: a dirty-page delta against the base rung,
    // restored, must be indistinguishable from a full Machine copy taken at
    // the same paused instant — same registers, same memory image, and the
    // same behaviour when resumed to completion.
    for (const npb::Scenario& s :
         {npb::Scenario{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                        npb::Klass::Mini},
          npb::Scenario{isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2,
                        npb::Klass::Mini}}) {
        sim::Machine live = npb::make_machine(s, false);
        const sim::Machine base = live; // the ladder's base rung
        live.mem().clear_dirty();       // dirty-since-base from here on

        sim::Machine probe = npb::make_machine(s, false);
        probe.run_until(~0ULL >> 1);
        ASSERT_EQ(probe.status(), sim::RunStatus::Shutdown) << s.name();
        const std::uint64_t total = probe.total_retired();

        util::Rng rng(0xDE17A);
        std::uint64_t at = 0;
        for (int trial = 0; trial < 5; ++trial) {
            // Ascending random rungs off one live golden run, like the ladder.
            at += rng.range(1, (total - at) / 2 + 1);
            live.run_until(at);
            ASSERT_EQ(live.status(), sim::RunStatus::Running) << s.name();

            const sim::Machine full = live; // full snapshot at this rung
            const sim::MachineDelta delta = sim::make_machine_delta(live, base);
            const sim::Machine restored = sim::restore_machine_delta(delta, base);

            EXPECT_EQ(restored.total_retired(), full.total_retired());
            EXPECT_EQ(core::arch_state_hash(restored), core::arch_state_hash(full))
                << s.name() << " rung at " << at;
            ASSERT_EQ(restored.mem().hash_range(0, restored.mem().phys_size()),
                      full.mem().hash_range(0, full.mem().phys_size()))
                << s.name() << " rung at " << at;

            // A delta must actually be a delta, not a disguised full copy.
            EXPECT_LT(delta.footprint_bytes(), sim::machine_footprint_bytes(full))
                << s.name();

            // Resumed clones behave identically to the reference run.
            sim::Machine from_delta = restored;
            from_delta.run_until(~0ULL >> 1);
            EXPECT_EQ(from_delta.status(), probe.status()) << s.name();
            EXPECT_EQ(from_delta.total_retired(), total) << s.name();
            EXPECT_EQ(core::arch_state_hash(from_delta), core::arch_state_hash(probe))
                << s.name() << " rung at " << at;
            for (unsigned p = 0; p < probe.config().procs; ++p)
                EXPECT_EQ(from_delta.output(p), probe.output(p))
                    << s.name() << " proc " << p;
        }
    }
}

TEST(ClassifierInvariants, InjectionAtAppStartAndEndAreValid) {
    const npb::Scenario s{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    sim::Machine gm = npb::make_machine(s, false);
    gm.run_until(~0ULL >> 1);
    const auto g = core::capture_golden(gm);
    for (std::uint64_t at : {g.app_start, g.total_retired - 1}) {
        sim::Machine m = npb::make_machine(s, false);
        m.run_until(at);
        m.flip_gpr(0, 0, 0);
        m.run_until(g.total_retired * 4 + 200'000);
        const auto o =
            core::classify(m, g, m.status() == sim::RunStatus::Running);
        EXPECT_LT(static_cast<unsigned>(o), core::kOutcomeCount);
    }
}
