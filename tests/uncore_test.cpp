// Uncore fault injection (src/uncore/) — line-state model and campaign
// determinism gates.
//
// Contracts gated here:
//  * cache-data: a struck resident line reads corrupted while it stays in
//    the cache, a CLEAN eviction drops the corruption (restored backing
//    memory), and a store to the line commits it as a writeback.
//  * cache-tag: the aliased way hits for the alias address and serves the
//    victim's data; a clean eviction restores the alias line's pristine
//    bytes, a dirty eviction leaves the corruption committed.
//  * bus: exactly ONE in-flight transfer is corrupted — a load reads the
//    flipped value but memory is intact afterwards; a store lands flipped
//    permanently; a run ending before the next transaction settles at the
//    run boundary.
//  * campaigns over the uncore kinds are byte-identical across both
//    engines, and shard databases (plain and zstd-framed mixed) merge
//    byte-identically to the unsharded run.
//  * equivalence pruning DECLINES uncore jobs: outcomes equal the unpruned
//    run, nothing is inferred, and the declined-run counter reports it.
//  * a dead-on-arrival strike (empty cell, out-of-range tag alias) reports
//    itself not live and touches nothing, and the batch records closed at
//    injection equal a full from-reset simulation under every engine.
//  * a hook is settled only with nothing armed, pending or watched; a run
//    is compared with a golden rung only once its hook has settled, and
//    the batch records closed at a rung equal full simulation too.
#include <gtest/gtest.h>

#include <sstream>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "orch/batch_runner.hpp"
#include "orch/shard.hpp"
#include "telemetry/telemetry.hpp"
#include "uncore/uncore.hpp"
#include "util/zframe.hpp"

using namespace serep;
using namespace serep::test;
using kasm::Assembler;

namespace {

constexpr sim::Engine kAllEngines[] = {sim::Engine::Switch, sim::Engine::Trace};

/// L1D geometry the micro programs below are written against (32 KiB 4-way,
/// 64 B lines -> 128 sets): lines 8 KiB apart map to the same set, and tag
/// bit 0 is physical address bit 13.
constexpr std::uint64_t kSetStride = 8 * 1024;

/// Observable end-state fold (subset of engine_test's fingerprint).
std::uint64_t fingerprint(const sim::Machine& m) {
    std::uint64_t h = core::arch_state_hash(m);
    h ^= m.mem().hash_range(0, m.mem().phys_size());
    h ^= m.time_ticks() * 0x9E3779B97F4A7C15ull;
    h ^= m.total_retired() * 0xC2B2AE3D27D4EB4Full;
    h ^= static_cast<std::uint64_t>(m.status()) << 1;
    h ^= static_cast<std::uint64_t>(m.exit_code()) << 9;
    return h;
}

/// Assembled-but-unrun machine (run_kernel_snippet without the run).
sim::Machine build_snippet(const std::function<void(Assembler&)>& body) {
    Assembler a(isa::Profile::V8);
    a.func("boot", kasm::ModTag::KERNEL);
    a.set_kernel_boot(a.here());
    body(a);
    a.end_kernel_text();
    auto img = std::make_shared<const kasm::Image>(a.finalize());
    sim::Machine m(std::move(img), sim::MachineConfig{});
    sim::load_image_data(m);
    m.core(0).regs.set_pc(m.image().kernel_boot);
    m.core(0).regs.set_sp(kKernStackTop(0));
    return m;
}

/// Retired count when straight-line execution from boot reaches `addr`.
std::uint64_t retired_at(const sim::Machine& m, std::uint64_t addr) {
    return m.image().instr_index(addr) -
           m.image().instr_index(m.image().kernel_boot);
}

/// Emit loads of `n` distinct same-set lines (kSetStride apart, starting at
/// buf + first*kSetStride) — enough of them evicts buf's 4-way L1D set.
void emit_evictions(Assembler& a, std::uint64_t buf_va, unsigned first,
                    unsigned n) {
    const auto addr = a.sav(1);
    for (unsigned k = first; k < first + n; ++k) {
        a.movi(addr, static_cast<std::int64_t>(buf_va + k * kSetStride));
        a.ldr(a.tmp(3), addr, 0);
    }
}

/// One micro program plus the addresses the checks below need. Each test
/// fills it from inside its assembler body (captured by raw pointer — the
/// body runs once per engine, re-setting the same values; it is stored in
/// the Snippet itself, so capturing the owning shared_ptr would leak).
struct Snippet {
    std::function<void(Assembler&)> body;
    std::uint64_t buf_va = 0;    ///< kdata buffer VA (phys = VA - kKernBase)
    std::uint64_t park_addr = 0; ///< injection point (straight-line prefix)
};

} // namespace

// ------------------------------------------------------- line-state model

namespace {

/// Run `snippet` on every engine: park at its injection point, apply `t`,
/// run to completion. `after_inject` checks the armed state, `at_end` the
/// settled one. Also asserts the two engines' end states are identical.
void run_model_check(
    const std::function<void(Assembler&)>& body, std::uint64_t value,
    const std::function<core::FaultTarget(const sim::Machine&, std::uint64_t)>&
        make_target,
    const std::function<void(sim::Machine&, std::uint64_t)>& after_inject,
    const std::function<void(const sim::Machine&, std::uint64_t)>& at_end,
    std::uint64_t* buf_va, std::uint64_t* park_addr) {
    std::uint64_t ref = 0;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(body);
        m.set_engine(e);
        const std::uint64_t buf_phys = *buf_va - isa::layout::kKernBase;
        m.run_until(retired_at(m, *park_addr));
        ASSERT_EQ(m.mem().load(buf_phys, 8), value)
            << "engine " << static_cast<int>(e);
        core::apply_fault(m, make_target(m, buf_phys));
        after_inject(m, buf_phys);
        m.run_until(1'000'000);
        ASSERT_EQ(m.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        at_end(m, buf_phys);
        if (e == sim::Engine::Switch)
            ref = fingerprint(m);
        else
            EXPECT_EQ(fingerprint(m), ref) << "engine " << static_cast<int>(e);
    }
}

/// Target the L1D cell currently holding `phys`'s line. Cache strikes are
/// cell-addressed (FaultTarget::phys = set * ways + way), so the tests scan
/// the set's ways for the line they parked resident. For cache-data, `bit`
/// is the bit within the struck *byte* at `phys` — converted here to the
/// bit-in-line index the fault target carries.
core::FaultTarget l1d_cell_target(const sim::Machine& m,
                                  core::FaultTarget::Kind kind,
                                  std::uint64_t phys, unsigned bit) {
    const sim::Cache& c = m.l1d_cache(0);
    const std::uint64_t line = phys >> c.line_shift() << c.line_shift();
    const std::uint32_t set =
        static_cast<std::uint32_t>(phys >> c.line_shift()) & (c.sets() - 1);
    core::FaultTarget t;
    t.kind = kind;
    t.core = 0;
    t.reg = uncore::kLevelL1D;
    t.phys = std::uint64_t{set} * c.ways(); // way 0 (empty-cell strikes)
    for (std::uint32_t w = 0; w < c.ways(); ++w)
        if (c.line_at(set, w) == line)
            t.phys = std::uint64_t{set} * c.ways() + w;
    t.bit = kind == core::FaultTarget::Kind::CacheData
                ? static_cast<unsigned>((phys & 63) * 8) + bit
                : bit;
    return t;
}

} // namespace

TEST(UncoreModel, CacheDataCleanEvictionDropsTheCorruption) {
    // Park with value 5 resident; flip bit 1 (-> 7) while cached; evict the
    // line with 5 clean same-set loads; the read-back must see the restored
    // 5 — the strike was masked by the clean eviction.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        emit_evictions(a, snip->buf_va, 1, 5);
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_TRUE(m.l1d_cache(0).probe(phys));
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheData, phys,
                                   1);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // While resident, the (globally visible) value is corrupted.
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 5) << "clean eviction must restore";
            EXPECT_EQ(m.mem().load(phys, 8), 5u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheDataDirtyWritebackCommitsTheCorruption) {
    // Same strike, but the program stores the (corrupted) loaded value back
    // before the eviction: the line is dirty, the writeback commits 7, and
    // no restore may happen — the output diverges from golden permanently.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.ldr(a.tmp(1), base, 0);  // reads 7 (corrupted while resident)
        a.str(a.tmp(1), base, 0);  // dirties the watched line
        emit_evictions(a, snip->buf_va, 1, 5);
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheData, phys,
                                   1);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 7) << "dirty writeback must commit";
            EXPECT_EQ(m.mem().load(phys, 8), 7u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheTagAliasHitsServeTheVictimsData) {
    // Flip tag bit 0 of the way holding [buf]: the cache now claims it holds
    // the alias line (buf + 8 KiB). A load of the alias address hits the
    // aliased way and reads the VICTIM's value; a clean eviction restores
    // the alias line's pristine bytes (zero).
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        const auto alias = a.sav(1);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(1), alias, 0); // alias hit: the victim's 5
        // Evict the aliased way (k=2.. skips the alias line itself), then
        // read the alias address again: pristine bytes restored -> 0.
        emit_evictions(a, snip->buf_va, 2, 5);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(2), alias, 0);
        a.lsli(a.tmp(1), a.tmp(1), 4);
        a.add(a.tmp(1), a.tmp(1), a.tmp(2));
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(1)); // 5*16 + 0 = 80
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, phys,
                                   0);
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // Armed: the alias line overlays the victim's bytes and the way
            // answers for the alias address, no longer for the victim's.
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 5u);
            EXPECT_TRUE(m.l1d_cache(0).probe(phys + kSetStride));
            EXPECT_FALSE(m.l1d_cache(0).probe(phys));
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 80);
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 0u)
                << "clean eviction must restore the alias line";
            EXPECT_EQ(m.mem().load(phys, 8), 5u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, CacheTagDirtyEvictionLeavesTheCorruptionCommitted) {
    // A store through the aliased tag dirties the way: the later eviction
    // must NOT restore the alias line — the wrong-address writeback is
    // permanent.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        const auto alias = a.sav(1);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.movi(a.tmp(1), 9);
        a.str(a.tmp(1), alias, 8); // dirty the aliased way
        emit_evictions(a, snip->buf_va, 2, 5);
        a.movi(alias, static_cast<std::int64_t>(snip->buf_va + kSetStride));
        a.ldr(a.tmp(2), alias, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2)); // victim's 5, not 0
    };
    run_model_check(
        snip->body, 5,
        [](const sim::Machine& m, std::uint64_t phys) {
            return l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, phys,
                                   0);
        },
        [](sim::Machine&, std::uint64_t) {},
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 5)
                << "dirty aliased way must stay corrupted";
            EXPECT_EQ(m.mem().load(phys + kSetStride, 8), 5u);
            EXPECT_EQ(m.mem().load(phys + kSetStride + 8, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, BusCorruptsExactlyOneLoadTransfer) {
    // First transaction after injection is a load: it reads the flipped
    // value (9 -> 8 with bit 0), the NEXT load reads the intact 9 — memory
    // itself was never wrong.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 9);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.ldr(a.tmp(1), base, 0); // corrupted in flight: 8
        a.ldr(a.tmp(2), base, 0); // intact again: 9
        a.lsli(a.tmp(1), a.tmp(1), 4);
        a.add(a.tmp(1), a.tmp(1), a.tmp(2));
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(1)); // 8*16 + 9 = 137
    };
    run_model_check(
        snip->body, 9,
        [](const sim::Machine&, std::uint64_t) {
            core::FaultTarget t;
            t.kind = core::FaultTarget::Kind::Bus;
            t.core = 0;
            t.bit = 0;
            return t;
        },
        [](sim::Machine& m, std::uint64_t phys) {
            // Armed but nothing corrupted yet: the strike waits in flight.
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 137);
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, BusStoreCorruptionLandsPermanently) {
    // First transaction after injection is a store: the value lands flipped
    // and stays flipped (the in-flight corruption was written back). The
    // pending flip settles at the run boundary even with no further access.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 9);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.str(a.tmp(0), base, 8); // the corrupted transfer (9 -> 8)
        finish(a, 3);             // shutdown without another data access
    };
    run_model_check(
        snip->body, 9,
        [](const sim::Machine&, std::uint64_t) {
            core::FaultTarget t;
            t.kind = core::FaultTarget::Kind::Bus;
            t.core = 0;
            t.bit = 0;
            return t;
        },
        [](sim::Machine&, std::uint64_t) {},
        [](const sim::Machine& m, std::uint64_t phys) {
            EXPECT_EQ(m.exit_code(), 3);
            EXPECT_EQ(m.mem().load(phys + 8, 8), 8u)
                << "store corruption must settle by the run boundary";
            EXPECT_EQ(m.mem().load(phys, 8), 9u);
        },
        &snip->buf_va, &snip->park_addr);
}

TEST(UncoreModel, StrikeOnAnEmptyCellIsMaskedOutright) {
    // No data access happens before the park, so every L1D cell is empty:
    // injection lands on an invalid way, mutates nothing, and the run is
    // indistinguishable from golden.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        snip->park_addr = a.here();
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.ldr(a.tmp(2), base, 0);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(2));
    };
    for (const auto kind : {core::FaultTarget::Kind::CacheData,
                            core::FaultTarget::Kind::CacheTag}) {
        for (const sim::Engine e : kAllEngines) {
            sim::Machine m = build_snippet(snip->body);
            m.set_engine(e);
            const std::uint64_t phys = snip->buf_va - isa::layout::kKernBase;
            m.run_until(retired_at(m, snip->park_addr));
            ASSERT_FALSE(m.l1d_cache(0).probe(phys));
            core::apply_fault(m, l1d_cell_target(m, kind, phys, 1));
            EXPECT_EQ(m.mem().load(phys, 8), 0u);
            m.run_until(1'000'000);
            EXPECT_EQ(m.status(), sim::RunStatus::Shutdown);
            EXPECT_EQ(m.exit_code(), 0);
        }
    }
}

namespace {

/// Everything a dead-on-arrival strike must leave untouched: registers,
/// every physical byte, every cache cell of every cache, and the hook.
struct MachineImage {
    std::uint64_t arch = 0;
    std::uint64_t mem = 0;
    std::vector<std::uint64_t> cells;
    const sim::UncoreHook* hook = nullptr;
    bool operator==(const MachineImage& o) const {
        return arch == o.arch && mem == o.mem && cells == o.cells &&
               hook == o.hook;
    }
};

MachineImage image_of(const sim::Machine& m) {
    MachineImage img;
    img.arch = core::arch_state_hash(m);
    img.mem = m.mem().hash_range(0, m.mem().phys_size());
    const auto add = [&](const sim::Cache& c) {
        for (std::uint32_t s = 0; s < c.sets(); ++s)
            for (std::uint32_t w = 0; w < c.ways(); ++w)
                img.cells.push_back(c.line_at(s, w));
    };
    for (unsigned c = 0; c < m.cores(); ++c) {
        add(m.l1i(c));
        add(m.l1d(c));
    }
    add(m.l2());
    img.hook = m.uncore_hook();
    return img;
}

} // namespace

TEST(UncoreModel, DeadOnArrivalStrikesReportNotLiveAndTouchNothing) {
    // Nothing has run, so every cache cell is empty.
    sim::Machine m = build_snippet([](Assembler& a) { finish(a, 0); });
    const std::uint64_t phys = 4096;
    for (const auto kind : {core::FaultTarget::Kind::CacheData,
                            core::FaultTarget::Kind::CacheTag}) {
        const MachineImage before = image_of(m);
        EXPECT_FALSE(core::apply_fault(m, l1d_cell_target(m, kind, phys, 1)))
            << core::fault_kind_name(kind) << " on an empty cell";
        EXPECT_TRUE(image_of(m) == before) << core::fault_kind_name(kind);
    }

    // Out-of-range tag alias: make the last line of physical memory
    // resident, then strike the first tag bit whose flip addresses past the
    // end of memory.
    sim::Cache& l1d = m.l1d_cache(0);
    const std::uint64_t top = m.mem().phys_size();
    const std::uint64_t last_line = (top - 64) & ~std::uint64_t{63};
    l1d.access(last_line);
    core::FaultTarget t =
        l1d_cell_target(m, core::FaultTarget::Kind::CacheTag, last_line, 0);
    ASSERT_EQ(l1d.line_at(static_cast<std::uint32_t>(t.phys / l1d.ways()),
                          static_cast<std::uint32_t>(t.phys % l1d.ways())),
              last_line);
    const unsigned low = l1d.line_shift() + l1d.set_bits();
    const unsigned tag_bits = uncore::tag_bit_count(uncore::kLevelL1D, top);
    bool found = false;
    for (unsigned tb = 0; tb < tag_bits && !found; ++tb) {
        if ((last_line ^ (std::uint64_t{1} << (low + tb))) + 64 > top) {
            t.bit = tb;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "no tag bit aliases past the end of memory";
    const MachineImage before = image_of(m);
    EXPECT_FALSE(core::apply_fault(m, t)) << "out-of-range tag alias";
    EXPECT_TRUE(image_of(m) == before) << "out-of-range tag alias";

    // The architectural kinds are always live.
    core::FaultTarget arch;
    arch.kind = core::FaultTarget::Kind::GPR;
    arch.reg = 3;
    EXPECT_TRUE(core::apply_fault(m, arch));
    arch.kind = core::FaultTarget::Kind::FP;
    EXPECT_TRUE(core::apply_fault(m, arch));
    arch.kind = core::FaultTarget::Kind::MEM;
    arch.phys = phys;
    EXPECT_TRUE(core::apply_fault(m, arch));
    arch.kind = core::FaultTarget::Kind::Bus;
    EXPECT_TRUE(core::apply_fault(m, arch)) << "a bus strike always arms";
}

TEST(UncoreModel, SettledOnlyWhenNothingIsArmedPendingOrWatched) {
    // Bus: armed until the struck core's next data transaction, then a
    // restore (load) or flip (store) pending until the next hook event or
    // run boundary; settled after that.
    for (const bool write : {false, true}) {
        sim::Machine m = build_snippet([](Assembler& a) { finish(a, 0); });
        const std::uint64_t phys = m.mem().phys_size() - 64;
        const std::uint64_t before = m.mem().load(phys, 8);
        core::FaultTarget t;
        t.kind = core::FaultTarget::Kind::Bus;
        t.core = 0;
        t.bit = 0;
        ASSERT_TRUE(core::apply_fault(m, t));
        sim::UncoreHook* hook = m.uncore_hook();
        ASSERT_NE(hook, nullptr);
        EXPECT_FALSE(hook->settled()) << "armed, write=" << write;
        hook->on_data_access(m, 0, phys, 8, write, true, false, true);
        EXPECT_FALSE(hook->settled()) << "pending, write=" << write;
        hook->on_run_boundary(m);
        EXPECT_TRUE(hook->settled()) << "spent, write=" << write;
        // A load's transfer was restored; a store's landed flipped.
        EXPECT_EQ(m.mem().load(phys, 8), write ? before ^ 1 : before);
    }

    // Cache-data: watching while the struck line stays resident, settled
    // once its clean eviction has dropped the corruption.
    auto snip = std::make_shared<Snippet>();
    snip->body = [snip = snip.get()](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 5);
        a.str(a.tmp(0), base, 0);
        a.ldr(a.tmp(1), base, 0);
        snip->park_addr = a.here();
        a.ldr(a.tmp(2), base, 0); // a hit on the watched line
        emit_evictions(a, snip->buf_va, 1, 5);
        finish(a, 0);
    };
    sim::Machine m = build_snippet(snip->body);
    const std::uint64_t phys = snip->buf_va - isa::layout::kKernBase;
    const std::uint64_t at = retired_at(m, snip->park_addr);
    m.run_until(at);
    ASSERT_TRUE(core::apply_fault(
        m, l1d_cell_target(m, core::FaultTarget::Kind::CacheData, phys, 1)));
    EXPECT_FALSE(m.uncore_hook()->settled()) << "watching";
    m.run_until(at + 1);
    EXPECT_FALSE(m.uncore_hook()->settled()) << "still resident";
    m.run_until(1'000'000);
    ASSERT_EQ(m.status(), sim::RunStatus::Shutdown);
    EXPECT_TRUE(m.uncore_hook()->settled()) << "evicted";
    EXPECT_EQ(m.mem().load(phys, 8), 5u);
}

TEST(UncoreModel, BusStrikeArmedAcrossARungIsNotComparedThere) {
    // After the strike the struck core computes for 48 instructions with no
    // data access, so the next rungs of a 16-instruction ladder see a
    // machine bit-identical to the golden one while the bus one-shot is
    // still armed. The rung walk must not compare it there: the load after
    // the gap reads the corrupted 8. It compares only once the hook has
    // settled (and detaches it), and the run ends as full simulation does.
    auto snip = std::make_shared<Snippet>();
    std::uint64_t load_addr = 0;
    snip->body = [snip = snip.get(), &load_addr](Assembler& a) {
        a.kdata().align(8);
        snip->buf_va = a.kdata().cursor();
        for (unsigned i = 0; i < 8; ++i) a.kdata().u64v(0);
        const auto base = a.sav(0);
        a.movi(base, static_cast<std::int64_t>(snip->buf_va));
        a.movi(a.tmp(0), 9);
        a.str(a.tmp(0), base, 0);
        snip->park_addr = a.here();
        for (unsigned i = 0; i < 48; ++i) a.addi(a.tmp(2), a.tmp(2), 1);
        load_addr = a.here();
        a.ldr(a.tmp(1), base, 0); // corrupted in flight: 8
        for (unsigned i = 0; i < 32; ++i) a.addi(a.tmp(2), a.tmp(2), 1);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(1));
    };
    core::FaultTarget t;
    t.kind = core::FaultTarget::Kind::Bus;
    t.core = 0;
    t.bit = 0;
    for (const sim::Engine e : kAllEngines) {
        SCOPED_TRACE("engine " + std::to_string(static_cast<int>(e)));
        sim::Machine golden = build_snippet(snip->body);
        golden.set_engine(e);
        orch::LadderOptions lopts;
        lopts.stride = 16;
        const orch::CheckpointLadder ladder =
            orch::run_golden_with_ladder(golden, lopts);
        ASSERT_EQ(golden.status(), sim::RunStatus::Shutdown);
        ASSERT_EQ(golden.exit_code(), 9);
        const core::GoldenRef ref = core::capture_golden(golden);
        const std::uint64_t at = retired_at(golden, snip->park_addr);
        const std::uint64_t load_at = retired_at(golden, load_addr);

        // Not vacuous: at the first rung after the strike the armed run
        // matches the golden machine.
        {
            sim::Machine probe = ladder.clone_nearest(at);
            probe.run_until(at);
            ASSERT_TRUE(core::apply_fault(probe, t));
            const std::uint64_t rung = ladder.next_rung_after(at);
            ASSERT_LT(rung, load_at);
            probe.run_until(rung);
            EXPECT_FALSE(probe.uncore_hook()->settled());
            EXPECT_TRUE(ladder.matches_rung(probe));
        }
        // A rung lies after the load, where the spent hook is detached.
        ASSERT_LT(ladder.next_rung_after(load_at), golden.total_retired());

        sim::Machine run = ladder.clone_nearest(at);
        run.run_until(at);
        ASSERT_TRUE(core::apply_fault(run, t));
        EXPECT_FALSE(ladder.run_to_matching_rung(run));
        EXPECT_EQ(run.uncore_hook(), nullptr) << "settled hook not detached";
        run.run_until(1'000'000);

        sim::Machine full = build_snippet(snip->body);
        full.set_engine(e);
        full.run_until(at);
        ASSERT_TRUE(core::apply_fault(full, t));
        full.run_until(1'000'000);
        ASSERT_EQ(full.exit_code(), 8);
        EXPECT_EQ(run.exit_code(), 8);
        EXPECT_EQ(core::classify(run, ref, false),
                  core::classify(full, ref, false));
        EXPECT_EQ(run.total_retired(), full.total_retired());
        EXPECT_EQ(fingerprint(run), fingerprint(full));
    }
}

// ------------------------------------------- campaign determinism + prune

namespace {

const npb::Scenario kV7EP{isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
const npb::Scenario kV8IS{isa::Profile::V8, npb::App::IS, npb::Api::OMP, 2,
                          npb::Klass::Mini};

core::CampaignConfig uncore_cfg(core::FaultTarget::Kind kind, unsigned faults,
                                std::uint64_t seed) {
    core::CampaignConfig cfg;
    cfg.n_faults = faults;
    cfg.seed = seed;
    cfg.uncore_kind = kind;
    return cfg;
}

std::vector<orch::ShardJobSpec> uncore_jobs() {
    return {{kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheTag, 20, 0xBEEF)},
            {kV8IS, uncore_cfg(core::FaultTarget::Kind::Bus, 15, 0xCAFE)}};
}

} // namespace

TEST(UncoreCampaign, DatabasesAreByteIdenticalAcrossEngines) {
    std::string out[2];
    for (unsigned i = 0; i < 2; ++i) {
        orch::BatchOptions opts;
        opts.threads = 4;
        opts.engine = kAllEngines[i];
        orch::BatchRunner runner(opts);
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheTag, 20, 0xA));
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheData, 20, 0xB));
        runner.add(kV8IS, uncore_cfg(core::FaultTarget::Kind::Bus, 15, 0xC));
        const CampaignStreams db = campaign_streams(runner.run_all());
        out[i] = db.csv + "\x1e" + db.jsonl;
    }
    EXPECT_EQ(out[0], out[1]);
    EXPECT_NE(out[0].find("cache-tag"), std::string::npos);
    EXPECT_NE(out[0].find("cache-data"), std::string::npos);
    EXPECT_NE(out[0].find("bus"), std::string::npos);
}

TEST(UncoreCampaign, ShardsMergeByteIdenticalWithZstdMixedIn) {
    // Unsharded reference.
    CampaignStreams ref;
    {
        orch::BatchRunner runner{orch::BatchOptions{}};
        for (const auto& j : uncore_jobs()) runner.add(j.scenario, j.cfg);
        ref = campaign_streams(runner.run_all());
    }
    // 3-way sharded, shard 1 zstd-framed.
    std::vector<std::string> dbs;
    for (unsigned i = 0; i < 3; ++i) {
        std::ostringstream os;
        orch::run_shard(uncore_jobs(), orch::uniform_cut(uncore_jobs(), i, 3),
                        orch::BatchOptions{}, os);
        dbs.push_back(i == 1 ? util::zframe_compress(os.str()) : os.str());
    }
    std::ostringstream csv, jsonl;
    const auto merged = orch::merge_shards(dbs, &csv, &jsonl);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(csv.str(), ref.csv);
    EXPECT_EQ(jsonl.str(), ref.jsonl);
}

TEST(UncoreCampaign, AnsweredAtInjectionRecordsEqualFullSimulation) {
    // uncore_mini's shape: IS SER and OMP, every uncore kind. BatchRunner
    // closes dead-on-arrival strikes at injection, and settled ones at the
    // first rung they match; each of its records must equal a from-reset
    // simulation of the same fault run to the end.
    const npb::Scenario scenarios[] = {
        {isa::Profile::V8, npb::App::IS, npb::Api::Serial, 1, npb::Klass::Mini},
        {isa::Profile::V7, npb::App::IS, npb::Api::OMP, 2, npb::Klass::Mini}};
    const core::FaultTarget::Kind kinds[] = {core::FaultTarget::Kind::CacheTag,
                                             core::FaultTarget::Kind::CacheData,
                                             core::FaultTarget::Kind::Bus};
    std::vector<std::size_t> converged;
    for (const sim::Engine e : kAllEngines) {
        orch::BatchOptions opts;
        opts.threads = 4;
        opts.engine = e;
        orch::BatchRunner runner(opts);
        for (const npb::Scenario& s : scenarios)
            for (const auto kind : kinds)
                runner.add(s, uncore_cfg(kind, 12, 0x5EED));
        telemetry::reset();
        telemetry::set_enabled(true);
        const std::vector<core::CampaignResult> results = runner.run_all();
        telemetry::set_enabled(false);
        const std::uint64_t answered =
            telemetry::counter_value("batch.answered_at_injection");
        const std::uint64_t masked =
            telemetry::counter_value("uncore.masked_no_line") +
            telemetry::counter_value("uncore.masked_out_of_range");

        std::uint64_t dead = 0;
        for (const core::CampaignResult& r : results) {
            const std::uint64_t budget =
                static_cast<std::uint64_t>(
                    static_cast<double>(r.golden.total_retired) *
                    core::CampaignConfig{}.watchdog_factor) +
                200'000;
            for (const core::FaultRecord& rec : r.records) {
                sim::Machine m = npb::make_machine(r.scenario, false);
                m.set_engine(e);
                m.run_until(rec.fault.at_retired);
                if (!core::apply_fault(m, rec.fault.target)) ++dead;
                m.run_until(budget);
                const bool watchdog = m.status() == sim::RunStatus::Running;
                EXPECT_EQ(rec.outcome, core::classify(m, r.golden, watchdog))
                    << r.scenario.name() << " at " << rec.fault.at_retired;
                EXPECT_EQ(rec.retired, m.total_retired())
                    << r.scenario.name() << " at " << rec.fault.at_retired;
                EXPECT_FALSE(rec.inferred);
            }
        }
        EXPECT_GT(dead, 0u) << "no dead-on-arrival strike: the test is vacuous";
        EXPECT_EQ(answered, dead) << "engine " << static_cast<int>(e);
        EXPECT_EQ(masked, dead) << "engine " << static_cast<int>(e);
        converged.push_back(runner.converged_runs());
    }
    // Some live strikes settle (watched line evicted, bus one-shot spent) and
    // then match the golden machine at a rung; their records were checked
    // above like every other. Rungs sit at the same instants under every
    // engine, so the same runs close there.
    EXPECT_GT(converged[0], 0u) << "no run closed at a rung: vacuous test";
    EXPECT_EQ(converged[1], converged[0]);
}

TEST(UncoreCampaign, PruningDeclinesUncoreJobsButStillSimulatesThem) {
    const auto run = [&](bool prune, std::size_t* declined,
                         std::size_t* inferred) {
        orch::BatchOptions opts;
        opts.prune = prune;
        orch::BatchRunner runner(opts);
        runner.add(kV7EP, uncore_cfg(core::FaultTarget::Kind::CacheData, 25,
                                     0xD0D0));
        core::CampaignConfig gpr;
        gpr.n_faults = 25;
        gpr.seed = 0xD0D0;
        runner.add(kV7EP, gpr);
        const std::string csv = campaign_streams(runner.run_all()).csv;
        if (declined) *declined = runner.prune_declined();
        if (inferred) *inferred = runner.inferred_records();
        return csv;
    };
    const std::string plain = run(false, nullptr, nullptr);
    std::size_t declined = 0, inferred = 0;
    const std::string pruned = run(true, &declined, &inferred);
    EXPECT_EQ(declined, 25u) << "every uncore fault run must be declined";
    EXPECT_GT(inferred, 0u) << "the GPR job must still prune";
    // Per-fault CSV carries no provenance column, so the bytes must be
    // identical either way: declined jobs simulate everything, and pruning
    // itself is exact.
    EXPECT_EQ(pruned, plain);
}
