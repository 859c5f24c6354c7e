// Rewinding a resident fault machine to a checkpoint rung
// (sim::rewind_machine, orch::CheckpointLadder::rewind_nearest), the
// copy-reset slots it relies on, and the batch runner's use of it.
//
// A rewound machine must be the machine clone_nearest returns, in every
// field: also the ones the rung comparison skips (dirty bitmap, sticky text
// set, code generation and overlay, MRU and translation filters, cache,
// engine and trace statistics, the observer and uncore-hook slots). Then it
// must run to the same end. The table covers Mini SER-1, OMP-4 and MPI-4
// (four address spaces), both engines, residents left behind every
// way a fault run can end, and rewinds to an earlier rung, the same rung, a
// later rung and the base. In each configuration one resident serves every
// row, rewound from row to row, as in a campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "isa/encode.hpp"
#include "npb/npb.hpp"
#include "orch/batch_runner.hpp"
#include "orch/checkpoint.hpp"
#include "sim/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "uncore/uncore.hpp"

using namespace serep;

namespace {

/// Armed and never settled; changes nothing.
struct InertHook final : sim::UncoreHook {
    void on_data_access(sim::Machine&, unsigned, std::uint64_t, unsigned, bool,
                        bool, bool, bool) override {}
    void on_run_boundary(sim::Machine&) override {}
    bool settled() const noexcept override { return false; }
};

struct InertObserver final : sim::StepObserver {
    void on_step(const sim::Machine&, unsigned, const sim::DecodedInstr&,
                 std::uint64_t, bool) override {}
    void on_trap(const sim::Machine&, unsigned, isa::TrapCause) override {}
};

/// Hit/miss/credit statistics of every cache, in a fixed order.
std::vector<std::uint64_t> cache_stats(const sim::Machine& m) {
    std::vector<std::uint64_t> v;
    const auto add = [&](const sim::Cache& c) {
        v.push_back(c.hits());
        v.push_back(c.misses());
        v.push_back(c.credits());
    };
    for (unsigned c = 0; c < m.cores(); ++c) {
        add(m.l1i(c));
        add(m.l1d(c));
    }
    add(m.l2());
    return v;
}

/// Every per-core and machine-wide event counter plus the trace tallies.
std::vector<std::uint64_t> event_counters(const sim::Machine& m) {
    std::vector<std::uint64_t> v;
    for (unsigned c = 0; c < m.cores(); ++c) {
        const sim::CoreCounters& k = m.counters(c);
        v.insert(v.end(), {k.user_retired, k.kernel_retired, k.branches,
                           k.taken_branches, k.calls, k.loads, k.stores,
                           k.fp_ops, k.wfi_sleeps});
    }
    const sim::MachineCounters& mc = m.machine_counters();
    v.insert(v.end(), mc.traps.begin(), mc.traps.end());
    v.insert(v.end(), mc.syscalls.begin(), mc.syscalls.end());
    v.push_back(mc.ctx_switches);
    const sim::Machine::TraceStats& ts = m.trace_stats();
    v.insert(v.end(), {ts.bursts, ts.chain_links, ts.fallbacks});
    return v;
}

bool same_bytes(const sim::Machine& a, const sim::Machine& b) {
    return a.mem().phys_size() == b.mem().phys_size() &&
           std::memcmp(a.mem().page_data(0), b.mem().page_data(0),
                       a.mem().phys_size()) == 0;
}

/// `r` (rewound) against `c` (a fresh clone of the same rung), field by
/// field: guest bytes compared whole, not through the dirty bitmaps.
void expect_identical(const sim::Machine& r, const sim::Machine& c) {
    EXPECT_TRUE(sim::matches_snapshot(r, c));
    EXPECT_TRUE(sim::matches_snapshot(c, r));
    EXPECT_TRUE(same_bytes(r, c)) << "guest memory";
    EXPECT_EQ(r.mem().dirty_pages(), c.mem().dirty_pages()) << "dirty bitmap";
    EXPECT_EQ(r.mem().code_dirty_pages(), c.mem().code_dirty_pages())
        << "sticky text set";
    EXPECT_EQ(r.mem().code_gen(), c.mem().code_gen()) << "code generation";
    EXPECT_EQ(r.code_overlay_pages(), c.code_overlay_pages()) << "overlay";
    EXPECT_EQ(r.engine(), c.engine());
    EXPECT_EQ(cache_stats(r), cache_stats(c)) << "cache statistics";
    EXPECT_EQ(event_counters(r), event_counters(c)) << "event counters";
    EXPECT_EQ(r.uncore_hook(), nullptr);
    EXPECT_EQ(r.step_observer(), nullptr);
    ASSERT_EQ(r.cores(), c.cores());
    for (unsigned k = 0; k < r.cores(); ++k) {
        EXPECT_EQ(r.core(k).last_iline, c.core(k).last_iline) << "core " << k;
        EXPECT_EQ(r.core(k).last_dline, c.core(k).last_dline) << "core " << k;
        EXPECT_EQ(r.core(k).last_tkey, c.core(k).last_tkey) << "core " << k;
        EXPECT_EQ(r.core(k).last_tpage, c.core(k).last_tpage) << "core " << k;
    }
}

/// What a finished run leaves behind.
struct EndState {
    sim::RunStatus status = sim::RunStatus::Running;
    int exit_code = 0;
    isa::TrapCause panic_cause = isa::TrapCause::NONE;
    std::uint64_t retired = 0, ticks = 0, arch = 0, mem = 0;
    std::vector<int> proc_exit;
    std::vector<std::string> outputs;
    std::vector<std::uint64_t> caches, events;

    bool operator==(const EndState& o) const {
        return status == o.status && exit_code == o.exit_code &&
               panic_cause == o.panic_cause && retired == o.retired &&
               ticks == o.ticks && arch == o.arch && mem == o.mem &&
               proc_exit == o.proc_exit && outputs == o.outputs &&
               caches == o.caches && events == o.events;
    }
};

EndState run_to_end(sim::Machine& m, std::uint64_t budget) {
    m.run_until(budget);
    EndState e;
    e.status = m.status();
    e.exit_code = m.exit_code();
    e.panic_cause = m.panic_cause();
    e.retired = m.total_retired();
    e.ticks = m.time_ticks();
    e.arch = core::arch_state_hash(m);
    e.mem = m.mem().hash_range(0, m.mem().phys_size());
    for (unsigned p = 0; p < m.config().procs; ++p) {
        e.proc_exit.push_back(m.proc_exit_code(p));
        e.outputs.push_back(m.output(p));
    }
    e.caches = cache_stats(m);
    e.events = event_counters(m);
    return e;
}

/// One way a fault run ends. `leave` strikes and runs the resident (a
/// machine just moved to the middle rung); with `check_status` it must be
/// left in `status`.
struct Damage {
    const char* name;
    std::function<void(sim::Machine&, std::uint64_t budget)> leave;
    bool check_status;
    sim::RunStatus status;
};

std::vector<Damage> damages(std::uint64_t watchdog_stop) {
    return {
        {"gpr flip",
         [](sim::Machine& m, std::uint64_t budget) {
             m.flip_gpr(0, 2, 5);
             m.run_until(budget);
         },
         false, sim::RunStatus::Running},
        {"data-page flip",
         [](sim::Machine& m, std::uint64_t budget) {
             // Static data opens process 0's user region.
             m.flip_mem(m.mem().kern_size() + 72, 3);
             m.run_until(budget);
         },
         false, sim::RunStatus::Running},
        {"text-mirror flip",
         [](sim::Machine& m, std::uint64_t budget) {
             // The record core 0 is about to fetch: its page is re-decoded.
             const std::uint64_t idx = m.image().instr_index(m.core(0).regs.pc());
             m.flip_mem(m.mem().text_base() + idx * isa::kTextRecordBytes, 0);
             m.run_until(budget);
             ASSERT_TRUE(std::any_of(m.mem().code_dirty_pages().begin(),
                                     m.mem().code_dirty_pages().end(),
                                     [](std::uint8_t b) { return b != 0; }));
         },
         false, sim::RunStatus::Running},
        {"unsettled uncore strike",
         [](sim::Machine& m, std::uint64_t) {
             const sim::Cache& l2 = m.l2();
             core::FaultTarget t;
             t.kind = core::FaultTarget::Kind::CacheData;
             t.reg = uncore::kLevelL2;
             t.bit = 77;
             for (std::uint32_t cell = 0; cell < l2.sets() * l2.ways(); ++cell)
                 if (l2.line_at(cell / l2.ways(), cell % l2.ways()) != ~0ULL) {
                     t.phys = cell;
                     break;
                 }
             ASSERT_TRUE(core::apply_fault(m, t));
             m.run_until(m.total_retired() + 64);
             ASSERT_NE(m.uncore_hook(), nullptr);
             ASSERT_FALSE(m.uncore_hook()->settled());
         },
         false, sim::RunStatus::Running},
        {"kernel panic",
         [](sim::Machine& m, std::uint64_t budget) {
             m.core(0).mode = sim::Mode::KERNEL;
             m.core(0).regs.set_pc(m.image().code_base - 4 * isa::kInstrBytes);
             m.run_until(budget);
         },
         true, sim::RunStatus::KernelPanic},
        {"deadlock",
         [](sim::Machine& m, std::uint64_t budget) {
             for (unsigned c = 0; c < m.cores(); ++c) {
                 sim::CoreState& k = m.core(c);
                 k.sleeping = true;
                 k.pending_timer = k.pending_ipi = false;
             }
             m.run_until(budget);
         },
         true, sim::RunStatus::Deadlock},
        {"watchdog stop",
         [watchdog_stop](sim::Machine& m, std::uint64_t) {
             m.flip_fp(0, 1, 60);
             m.run_until(watchdog_stop);
         },
         true, sim::RunStatus::Running},
    };
}

struct Config {
    const char* name;
    npb::Scenario scenario;
};

const Config kConfigs[] = {
    {"Mini SER-1",
     {isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1, npb::Klass::Mini}},
    {"Mini OMP-4",
     {isa::Profile::V8, npb::App::EP, npb::Api::OMP, 4, npb::Klass::Mini}},
    {"Mini MPI-4",
     {isa::Profile::V8, npb::App::EP, npb::Api::MPI, 4, npb::Klass::Mini}},
};

} // namespace

TEST(MachineCopy, AssignmentDetachesHookAndObserverAndKeepsTheSourceFilters) {
    const npb::Scenario s{isa::Profile::V8, npb::App::EP, npb::Api::OMP, 2,
                          npb::Klass::Mini};
    sim::Machine src = npb::make_machine(s, false);
    src.run_until(20'000); // warms the MRU line and translation filters
    sim::Machine dst = npb::make_machine(s, false);
    dst.run_until(10'000);
    InertObserver observer;
    dst.set_step_observer(&observer);
    dst.set_uncore_hook(std::make_shared<InertHook>());
    ASSERT_NE(dst.uncore_hook(), nullptr);

    dst = src;
    EXPECT_EQ(dst.uncore_hook(), nullptr) << "an assigned copy kept the hook";
    EXPECT_EQ(dst.step_observer(), nullptr)
        << "an assigned copy kept the observer";
    bool warm = false;
    for (unsigned c = 0; c < src.cores(); ++c) {
        EXPECT_EQ(dst.core(c).last_iline, src.core(c).last_iline);
        EXPECT_EQ(dst.core(c).last_dline, src.core(c).last_dline);
        EXPECT_EQ(dst.core(c).last_tkey, src.core(c).last_tkey);
        warm = warm || src.core(c).last_iline != sim::CoreState::kNoLine;
    }
    EXPECT_TRUE(warm) << "vacuous: the source filters are cold";
}

TEST(Rewind, ARewoundResidentIsAFreshCloneOfTheRung) {
    for (const Config& cfg : kConfigs) {
        for (const sim::Engine engine :
             {sim::Engine::Switch, sim::Engine::Trace}) {
            SCOPED_TRACE(std::string(cfg.name) + (engine == sim::Engine::Switch
                                                      ? ", switch"
                                                      : ", trace"));
            sim::Machine golden = npb::make_machine(cfg.scenario, false);
            golden.set_engine(engine);
            orch::LadderOptions opts;
            opts.max_checkpoints = 8;
            const orch::CheckpointLadder ladder =
                orch::run_golden_with_ladder(golden, opts);
            ASSERT_EQ(golden.status(), sim::RunStatus::Shutdown);
            const std::uint64_t total = golden.total_retired();
            const std::uint64_t budget = 2 * total + 100'000;

            // The three deepest rungs: earlier, middle, later.
            std::vector<std::uint64_t> rungs;
            for (std::uint64_t r = ladder.next_rung_after(0);
                 r != orch::CheckpointLadder::kNoRung;
                 r = ladder.next_rung_after(r))
                rungs.push_back(r);
            ASSERT_GE(rungs.size(), 3u);
            const std::uint64_t later = rungs.back();
            const std::uint64_t middle = rungs[rungs.size() - 2];
            const std::uint64_t earlier = rungs[rungs.size() - 3];
            const struct {
                const char* name;
                std::uint64_t at;
            } targets[] = {{"earlier rung", earlier + 1},
                           {"same rung", middle},
                           {"later rung", later},
                           {"base", 0}};

            // Where a clone of each target runs to.
            std::vector<EndState> clone_end;
            for (const auto& target : targets) {
                sim::Machine c = ladder.clone_nearest(target.at);
                clone_end.push_back(run_to_end(c, budget));
            }

            sim::Machine resident = ladder.clone_nearest(middle);
            for (const Damage& d : damages((middle + later) / 2)) {
                for (std::size_t t = 0; t < std::size(targets); ++t) {
                    SCOPED_TRACE(std::string(d.name) + " -> " +
                                 targets[t].name);
                    // Back to the middle rung, then left behind by the
                    // damage row.
                    ladder.rewind_nearest(resident, middle);
                    expect_identical(resident, ladder.clone_nearest(middle));
                    d.leave(resident, budget);
                    if (d.check_status) {
                        ASSERT_EQ(resident.status(), d.status);
                    }

                    ladder.rewind_nearest(resident, targets[t].at);
                    const sim::Machine fresh =
                        ladder.clone_nearest(targets[t].at);
                    expect_identical(resident, fresh);
                    EXPECT_TRUE(run_to_end(resident, budget) == clone_end[t])
                        << "the rewound run ends elsewhere";
                }
            }
        }
    }
}

TEST(Rewind, ResidentsServeEveryRunOfAScenarioAfterTheFirst) {
    // At one thread the wave's single participant clones once per scenario
    // and rewinds for every other run: tasks run scenario-major, so a
    // scenario queued again after another one (job 2 below) still follows
    // its first job. Pool width never changes a byte.
    const npb::Scenario a{isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    const npb::Scenario b{isa::Profile::V8, npb::App::EP, npb::Api::OMP, 2,
                          npb::Klass::Mini};
    core::CampaignConfig gpr;
    gpr.n_faults = 24;
    gpr.seed = 0x5EED;
    core::CampaignConfig mem = gpr;
    mem.memory_faults = true;
    mem.seed = 0xFEED;

    std::string csv[2];
    for (const unsigned threads : {1u, 4u}) {
        telemetry::reset();
        telemetry::set_enabled(true);
        orch::BatchOptions opts;
        opts.threads = threads;
        orch::BatchRunner runner(opts);
        runner.add(a, gpr);
        runner.add(b, gpr);
        runner.add(a, mem);
        const std::string out = test::campaign_streams(runner.run_all()).csv;
        const std::uint64_t restores =
            telemetry::counter_value("checkpoint.restores");
        const std::uint64_t rewinds =
            telemetry::counter_value("checkpoint.rewinds");
        telemetry::set_enabled(false);
        EXPECT_EQ(restores, 3u * 24u);
        EXPECT_GT(rewinds, 0u);
        EXPECT_GT(telemetry::counter_value("checkpoint.rewind_pages"), 0u);
        if (threads == 1) {
            EXPECT_EQ(restores - rewinds, 2u) << "one clone per scenario";
        }
        csv[threads == 1 ? 0 : 1] = out;
    }
    telemetry::reset();
    EXPECT_EQ(csv[0], csv[1]);
}
