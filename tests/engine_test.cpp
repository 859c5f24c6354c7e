// Differential tests for the decode-once execution engine.
//
// The trace engine (pre-decoded ExecCache + handler-table dispatch + MRU
// line/translation filters, superblocks of straight-line predecoded handlers
// with hoisted per-trace checks, solo bursts and tick-horizon multicore
// rounds, and its single-step fallback step_cached) must be bit-identical
// to the switch interpreter in every observable: registers, memory, ticks,
// counters, outcome databases, and the StepObserver callback stream. The
// switch's op semantics are the independent oracle (the trace engine's
// handlers evaluate isa/semantics.hpp instead). This file cross-checks the
// two on random programs, random faults, whole campaigns, fault-corrupted
// guest text (the mirror/overlay re-decode path — including corruption
// landing *ahead* of a parked mid-trace cursor), and IPI ping-pong
// scheduling.
#include <gtest/gtest.h>

#include <sstream>

#include "core/campaign.hpp"
#include "harness.hpp"
#include "isa/encode.hpp"
#include "orch/batch_runner.hpp"
#include "sim/snapshot.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

using namespace serep;
using namespace serep::test;
using isa::Cond;
using kasm::Assembler;
using kasm::Reg;

namespace {

bool same_instr(const isa::Instr& a, const isa::Instr& b) {
    return a.op == b.op && a.cond == b.cond && a.rd == b.rd && a.rn == b.rn &&
           a.rm == b.rm && a.ra == b.ra && a.shift == b.shift && a.wb == b.wb &&
           a.regmask == b.regmask && a.imm == b.imm;
}

/// Everything observable about a finished machine, folded into one hash.
std::uint64_t fingerprint(const sim::Machine& m) {
    std::uint64_t h = core::arch_state_hash(m);
    h ^= m.mem().hash_range(0, m.mem().phys_size());
    h ^= m.time_ticks() * 0x9E3779B97F4A7C15ull;
    h ^= m.total_retired() * 0xC2B2AE3D27D4EB4Full;
    h ^= static_cast<std::uint64_t>(m.status()) << 1;
    h ^= static_cast<std::uint64_t>(m.exit_code()) << 9;
    for (unsigned c = 0; c < m.cores(); ++c) {
        const sim::CoreCounters& k = m.counters(c);
        h ^= k.retired() + k.branches * 3 + k.taken_branches * 5 + k.calls * 7 +
             k.loads * 11 + k.stores * 13 + k.fp_ops * 17 + k.wfi_sleeps * 19;
        h ^= m.l1i(c).hits() * 23 + m.l1i(c).misses() * 29;
        h ^= m.l1d(c).hits() * 31 + m.l1d(c).misses() * 37;
    }
    h ^= m.l2().hits() * 41 + m.l2().misses() * 43;
    return h;
}

/// Every engine, reference implementation first: differential loops below
/// compare the trace engine's observables against the Switch run of the
/// same program.
constexpr sim::Engine kAllEngines[] = {sim::Engine::Switch, sim::Engine::Trace};

/// run_kernel_snippet, but returning the *unrun* machine so the test can
/// pick an engine (and corrupt text) before execution.
sim::Machine build_snippet(isa::Profile p,
                           const std::function<void(Assembler&)>& body,
                           unsigned cores = 1) {
    Assembler a(p);
    a.func("boot", kasm::ModTag::KERNEL);
    a.set_kernel_boot(a.here());
    body(a);
    a.end_kernel_text();
    auto img = std::make_shared<const kasm::Image>(a.finalize());
    sim::MachineConfig cfg;
    cfg.cores = cores;
    sim::Machine m(std::move(img), cfg);
    sim::load_image_data(m);
    for (unsigned c = 0; c < cores; ++c) {
        m.core(c).regs.set_pc(m.image().kernel_boot);
        m.core(c).regs.set_sp(kKernStackTop(c));
    }
    return m;
}

/// Folds the full observer callback stream into (count, hash): the
/// exactly-once contract says `steps` equals the retired delta on
/// abort-free runs and the fold is engine-invariant always.
struct CountingObserver final : sim::StepObserver {
    std::uint64_t steps = 0, traps = 0, h = 0;
    void on_step(const sim::Machine&, unsigned ci, const sim::DecodedInstr& di,
                 std::uint64_t pc, bool executed) override {
        ++steps;
        h = h * 0x100000001B3ull ^ pc ^ (std::uint64_t{ci} << 56) ^
            (static_cast<std::uint64_t>(di.ins.op) << 40) ^
            (executed ? 0u : 1u);
    }
    void on_trap(const sim::Machine&, unsigned ci,
                 isa::TrapCause cause) override {
        ++traps;
        h = h * 0x100000001B3ull ^ 0xFEEDu ^ (std::uint64_t{ci} << 56) ^
            (static_cast<std::uint64_t>(cause) << 40);
    }
};

/// The sweeps' accumulator: fold(r) adds r, and mix() makes
/// acc = acc * odd, then acc ^= acc >> 29. Both steps are bijections, so no
/// wrong value can be overwritten unseen before the end-of-run fingerprint
/// (without the shift, two differences in the top bit alone would cancel).
struct Fold {
    Assembler& a;
    Reg acc, odd, t;
    void mix() const {
        a.mul(acc, acc, odd);
        a.lsri(t, acc, 29);
        a.eor(acc, acc, t);
    }
    void operator()(Reg r) const {
        a.add(acc, acc, r);
        mix();
    }
};

/// V8: every FP data op (FADD..FMOVXV) over every ordered pair of FP edge
/// operands — ±0, ±1, ±inf, NaN, ±2^63 (FCVTZS saturation) and the smallest
/// denormal — with the FP result, the GPR result and the flags folded.
void sweep_fp(Assembler& a, const Fold& fold) {
    const std::uint64_t edges[] = {
        0, 0x8000000000000000, 0x3FF0000000000000, 0xBFF0000000000000,
        0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
        0x43E0000000000000, 0xC3E0000000000000, 1};
    const Reg t0 = a.tmp(0), t1 = a.tmp(1), t2 = a.tmp(2);
    const Reg v0 = 0, v1 = 1, v2 = 2;
    for (unsigned o = static_cast<unsigned>(isa::Op::FADD);
         o <= static_cast<unsigned>(isa::Op::FMOVXV); ++o)
        for (const std::uint64_t x : edges)
            for (const std::uint64_t y : edges) {
                a.movi(t2, static_cast<std::int64_t>(y));
                a.fmovxv(v2, t2);
                a.movi(t2, static_cast<std::int64_t>(x)); // also SCVTF's source
                a.fmovxv(v1, t2);
                switch (static_cast<isa::Op>(o)) {
                    case isa::Op::FADD: a.fadd(v0, v1, v2); break;
                    case isa::Op::FSUB: a.fsub(v0, v1, v2); break;
                    case isa::Op::FMUL: a.fmul(v0, v1, v2); break;
                    case isa::Op::FDIV: a.fdiv(v0, v1, v2); break;
                    case isa::Op::FSQRT: a.fsqrt(v0, v1); break;
                    case isa::Op::FNEG: a.fneg(v0, v1); break;
                    case isa::Op::FABS: a.fabs_(v0, v1); break;
                    case isa::Op::FMADD: a.fmadd(v0, v1, v2, v1); break;
                    case isa::Op::FMOV: a.fmov(v0, v1); break;
                    case isa::Op::FMOVI: a.fmovi(v0, util::bits_f64(y)); break;
                    case isa::Op::FCMP: a.fcmp(v1, v2); break;
                    case isa::Op::FCVTZS: a.fcvtzs(t0, v1); break;
                    case isa::Op::SCVTF: a.scvtf(v0, t2); break;
                    case isa::Op::FMOVVX: a.fmovvx(t0, v1); break;
                    case isa::Op::FMOVXV: a.fmovxv(v0, t2); break;
                    default: FAIL() << "not an FP data op: " << o;
                }
                a.fmovvx(t1, v0);
                fold(t1);
                fold(t0);
                a.sysrd(t1, isa::SysReg::FLAGS);
                fold(t1);
            }
}

/// Every memory form at edge values through the 8-aligned kernel buffer at
/// `base`: byte, word (V8), pair (V8) and FP (V8) accesses, immediate and
/// register-offset addressing, LDREX/STREX with the reservation held,
/// broken by a store to its granule, absent, and held elsewhere, and on V7
/// LDM/STM with and without writeback, the base in the list too. Each
/// loaded value, status and written-back base is folded.
void sweep_mem(Assembler& a, Reg base, const Fold& fold) {
    const bool v7 = a.profile() == isa::Profile::V7;
    const unsigned bits = a.wbytes() * 8;
    const std::uint64_t mask = util::low_mask(bits);
    const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
    const Reg t0 = a.tmp(0), t1 = a.tmp(1), t2 = a.tmp(2), t3 = a.tmp(3);
    // A raw LDM/STM: the assembler refuses the base in a writeback list.
    const auto multi = [&](isa::Op op, Reg rn, std::uint16_t regs, bool wb) {
        isa::Instr i;
        i.op = op;
        i.rn = rn;
        i.regmask = regs;
        i.wb = wb;
        a.emit(i);
    };
    const auto bit = [](Reg r) { return static_cast<std::uint16_t>(1u << r); };
    const std::uint64_t values[] = {0, 1, mask, sign, sign - 1,
                                    0x0123456789ABCDEF & mask, 0x80};
    for (const std::uint64_t v : values) {
        a.movi(t2, static_cast<std::int64_t>(v));
        a.movi(t3, static_cast<std::int64_t>(~v & mask));
        for (std::int64_t off = 0; off < 8; ++off) {
            a.strb(t2, base, off);
            a.ldrb(t0, base, off);
            fold(t0);
        }
        a.ldr(t0, base, 0);
        fold(t0);
        a.movi(t1, 1);
        a.str_idx(t3, base, t1, 3);
        a.ldr_idx(t0, base, t1, 3);
        fold(t0);
        a.strb_idx(t2, base, t1);
        a.ldrb_idx(t0, base, t1);
        fold(t0);
        if (v7) {
            const Reg rn = a.sav(3);
            a.mov(rn, base);
            multi(isa::Op::STM, rn, bit(t2) | bit(t3), true);
            fold(rn);
            a.mov(rn, base);
            multi(isa::Op::LDM, rn, bit(t0) | bit(t1), true);
            fold(t0);
            fold(t1);
            fold(rn);
            a.mov(rn, base); // writeback reads the loaded base (~v)
            multi(isa::Op::LDM, rn, bit(t0) | bit(rn), true);
            fold(t0);
            fold(rn);
            a.mov(rn, base); // stores the base itself, then writes back
            multi(isa::Op::STM, rn, bit(t3) | bit(rn), true);
            fold(rn);
            a.mov(rn, base);
            multi(isa::Op::STM, rn, bit(t1) | bit(t2) | bit(t3), false);
            multi(isa::Op::LDM, rn, bit(t0) | bit(t1) | bit(t2), false);
            fold(t0);
            fold(t1);
            fold(t2);
            fold(rn);
            a.movi(t2, static_cast<std::int64_t>(v));
        } else {
            a.strw(t2, base, 4);
            a.ldrw(t0, base, 4);
            fold(t0);
            a.ldr(t0, base, 0);
            fold(t0);
            a.strw_idx(t3, base, t1, 2);
            a.ldrw_idx(t0, base, t1, 2);
            fold(t0);
            a.stp(t2, t3, base, 16);
            a.ldp(t0, t1, base, 16);
            fold(t0);
            fold(t1);
            a.mov(t1, base); // LDP into its own base register
            a.ldp(t1, t0, t1, 8);
            fold(t0);
            fold(t1);
            a.fmovxv(3, t3);
            a.fstr(3, base, 24);
            a.fldr(4, base, 24);
            a.fmovvx(t0, 4);
            fold(t0);
            a.movi(t1, 2);
            a.fstr_idx(4, base, t1, 3);
            a.ldr(t0, base, 16);
            fold(t0);
            a.fldr_idx(5, base, t1, 3);
            a.fmovvx(t0, 5);
            fold(t0);
        }
        a.ldrex(t0, base); // held: the store commits, status 0
        a.strex(t1, base, t2);
        fold(t0);
        fold(t1);
        a.ldr(t0, base, 0);
        fold(t0);
        a.ldrex(t0, base); // broken by a store to its granule: status 1
        a.strb(t3, base, 5);
        a.strex(t1, base, t2);
        fold(t1);
        a.strex(t1, base, t3); // no reservation at all: status 1
        fold(t1);
        a.addi(t0, base, 8); // held for another address: status 1
        a.ldrex(t1, base);
        a.strex(t1, t0, t2);
        fold(t1);
        a.ldr(t0, base, 0);
        fold(t0);
        a.ldr(t0, base, 8);
        fold(t0);
    }
}

/// Emit a terminating kernel program that drives every profile-valid
/// data and memory op: first directed sweeps — every integer data op
/// (MOVI..CSET) over every ordered pair of edge operands, on V8 every FP
/// data op over FP edge operands, and every memory form — then `len` random
/// steps: the integer ops (a third V7-predicated) over scratch registers
/// seeded with edge values, loads/stores into a kernel data buffer, and
/// forward conditional branches.
void random_program(Assembler& a, util::Rng& rng, unsigned len) {
    const isa::Profile p = a.profile();
    const bool v7 = p == isa::Profile::V7;
    const unsigned bits = a.wbytes() * 8;
    a.kdata().align(8);
    const std::uint64_t buf = a.kdata().cursor();
    for (unsigned i = 0; i < 16; ++i) a.kdata().u64v(rng.next());

    // Edge operands: 0, 1, all-ones (-1, the divisor of INT_MIN / -1), the
    // sign bit (INT_MIN), INT_MAX, and shift amounts at and past the width
    // for the by-register shifts.
    const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
    const std::uint64_t edges[] = {0,    1,    util::low_mask(bits), sign,
                                   sign - 1, bits, 0xFF};
    const auto operand = [&]() -> std::int64_t {
        return static_cast<std::int64_t>(
            rng.below(2) ? edges[rng.below(std::size(edges))]
                         : rng.next() & util::low_mask(bits));
    };
    const auto cond = [&](unsigned n) { return static_cast<Cond>(rng.below(n)); };
    std::vector<isa::Op> ops;
    for (unsigned o = static_cast<unsigned>(isa::Op::MOVI);
         o <= static_cast<unsigned>(isa::Op::CSET); ++o)
        if (isa::op_valid_for(static_cast<isa::Op>(o), p))
            ops.push_back(static_cast<isa::Op>(o));

    // One integer op; `imm` doubles as the shift amount of the *I shifts.
    const auto emit = [&](isa::Op op, Reg rd, Reg rn, Reg rm, std::int64_t imm) {
        const unsigned sh = static_cast<unsigned>(imm) % bits;
        switch (op) {
            case isa::Op::MOVI: a.movi(rd, imm); break;
            case isa::Op::MOV: a.mov(rd, rn); break;
            case isa::Op::MVN: a.mvn(rd, rn); break;
            case isa::Op::ADD: a.add(rd, rn, rm); break;
            case isa::Op::SUB: a.sub(rd, rn, rm); break;
            case isa::Op::AND: a.and_(rd, rn, rm); break;
            case isa::Op::ORR: a.orr(rd, rn, rm); break;
            case isa::Op::EOR: a.eor(rd, rn, rm); break;
            case isa::Op::MUL: a.mul(rd, rn, rm); break;
            case isa::Op::ADDI: a.addi(rd, rn, imm); break;
            case isa::Op::SUBI: a.subi(rd, rn, imm); break;
            case isa::Op::ANDI: a.andi(rd, rn, imm); break;
            case isa::Op::ORRI: a.orri(rd, rn, imm); break;
            case isa::Op::EORI: a.eori(rd, rn, imm); break;
            case isa::Op::ADDS: a.adds(rd, rn, rm); break;
            case isa::Op::SUBS: a.subs(rd, rn, rm); break;
            case isa::Op::ADDSI: a.addsi(rd, rn, imm); break;
            case isa::Op::SUBSI: a.subsi(rd, rn, imm); break;
            case isa::Op::ADCS: a.adcs(rd, rn, rm); break;
            case isa::Op::SBCS: a.sbcs(rd, rn, rm); break;
            case isa::Op::UMULL: a.umull(a.tmp(0), a.tmp(1), rn, rm); break;
            case isa::Op::SMULL: a.smull(a.tmp(2), a.tmp(3), rn, rm); break;
            case isa::Op::UMULH: a.umulh(rd, rn, rm); break;
            case isa::Op::UDIV: a.udiv(rd, rn, rm); break;
            case isa::Op::SDIV: a.sdiv(rd, rn, rm); break;
            case isa::Op::LSLI: a.lsli(rd, rn, sh); break;
            case isa::Op::LSRI: a.lsri(rd, rn, sh); break;
            case isa::Op::ASRI: a.asri(rd, rn, sh); break;
            case isa::Op::LSLV: a.lslv(rd, rn, rm); break;
            case isa::Op::LSRV: a.lsrv(rd, rn, rm); break;
            case isa::Op::ASRV: a.asrv(rd, rn, rm); break;
            case isa::Op::LSLSI: a.lslsi(rd, rn, sh == 0 ? 1 : sh); break;
            case isa::Op::LSRSI: a.lsrsi(rd, rn, sh == 0 ? 1 : sh); break;
            case isa::Op::CLZ: a.clz(rd, rn); break;
            case isa::Op::CMP: a.cmp(rn, rm); break;
            case isa::Op::CMPI: a.cmpi(rn, imm); break;
            case isa::Op::CMN: a.cmn(rn, rm); break;
            case isa::Op::TST: a.tst(rn, rm); break;
            case isa::Op::CSEL: a.csel(rd, rn, rm, cond(15)); break;
            case isa::Op::CSET: a.cset(rd, cond(15)); break;
            default: FAIL() << "not an integer data op: " << isa::op_info(op).name;
        }
    };

    const Reg base = a.sav(0);
    a.movi(base, static_cast<std::int64_t>(buf));
    const unsigned nscratch = std::min(4u, a.tmp_count());
    const auto scratch = [&] {
        return a.tmp(static_cast<unsigned>(rng.below(nscratch)));
    };

    // Directed integer sweep: rn/rm (and the immediate) range over every
    // ordered pair of edges, so INT_MIN / -1, carries out of all-ones, and
    // shifts by >= the width are exercised whatever the random steps draw.
    // Each result (every scratch register plus the flags) is folded into
    // the accumulator (see Fold). The FP and memory sweeps fold into the
    // same accumulator.
    const Fold fold{a, a.sav(1), a.sav(2), a.sav(4)};
    a.movi(fold.acc, 0);
    a.movi(fold.odd, 0x9E3779B1);
    for (const isa::Op op : ops)
        for (const std::uint64_t x : edges)
            for (const std::uint64_t y : edges) {
                a.movi(a.tmp(2), static_cast<std::int64_t>(x));
                a.movi(a.tmp(3), static_cast<std::int64_t>(y));
                emit(op, a.tmp(0), a.tmp(2), a.tmp(3), static_cast<std::int64_t>(y));
                for (unsigned r = 0; r < 4; ++r) a.add(fold.acc, fold.acc, a.tmp(r));
                a.sysrd(a.tmp(1), isa::SysReg::FLAGS);
                fold(a.tmp(1));
            }
    if (!v7) sweep_fp(a, fold);
    sweep_mem(a, base, fold);

    for (unsigned i = 0; i < nscratch; ++i) a.movi(a.tmp(i), operand());
    for (unsigned i = 0; i < len; ++i) {
        const Reg rd = scratch(), rn = scratch(), rm = scratch();
        const std::uint64_t pick = rng.below(ops.size() + 2);
        if (pick == ops.size()) { // aligned store+load inside the buffer
            const std::int64_t off = static_cast<std::int64_t>(rng.below(16)) * 8;
            a.str(rd, base, off);
            a.ldr(rn, base, off);
        } else if (pick == ops.size() + 1) { // forward conditional skip (no
                                             // backward edges: terminates)
            auto skip = a.newl();
            a.b(cond(14), skip);
            a.eor(rd, rn, rm);
            a.bind(skip);
        } else {
            // V7: predicate a third of the ops on a random condition.
            if (v7 && rng.below(3) == 0) a.when(cond(15));
            emit(ops[pick], rd, rn, rm, operand());
        }
    }
    finish(a);
}

} // namespace

class EncodeBothProfiles : public ::testing::TestWithParam<isa::Profile> {};
INSTANTIATE_TEST_SUITE_P(Profiles, EncodeBothProfiles,
                         ::testing::Values(isa::Profile::V7, isa::Profile::V8));

TEST_P(EncodeBothProfiles, RoundTripsEveryInstructionOfThePaperImages) {
    // decode(encode(i)) == i for every instruction the builders emit: the
    // pristine text mirror must decode to exactly the shared ExecCache.
    const isa::Profile p = GetParam();
    for (npb::App app : npb::kAllApps) {
        const npb::Scenario s{p, app, npb::Api::Serial, 1, npb::Klass::Mini};
        const npb::BuiltProgram prog = npb::build_program(s);
        std::uint8_t rec[isa::kTextRecordBytes];
        for (const isa::Instr& ins : prog.image->code) {
            isa::encode_instr(ins, rec);
            const isa::Instr back = isa::decode_instr(rec, p);
            ASSERT_TRUE(same_instr(ins, back))
                << npb::app_name(app) << " op "
                << static_cast<int>(ins.op);
        }
    }
}

TEST_P(EncodeBothProfiles, ArbitraryRecordsDecodeDeterministicallyToValidInstrs) {
    const isa::Profile p = GetParam();
    const isa::ProfileInfo info = isa::profile_info(p);
    util::Rng rng(0xC0DE);
    std::uint8_t rec[isa::kTextRecordBytes];
    for (unsigned trial = 0; trial < 20000; ++trial) {
        for (auto& b : rec) b = static_cast<std::uint8_t>(rng.below(256));
        const isa::Instr a = isa::decode_instr(rec, p);
        const isa::Instr b = isa::decode_instr(rec, p);
        ASSERT_TRUE(same_instr(a, b)); // pure function of the bytes
        if (a.op == isa::Op::UDF) continue;
        // Whatever decodes as executable must respect the operand contract.
        const isa::OperandSpec& spec = isa::op_operand_spec(a.op);
        const auto ok = [&](isa::OperandUse u, std::uint8_t r) {
            switch (u) {
                case isa::OperandUse::GPR: return r < info.gpr_count;
                case isa::OperandUse::GPR_OPT:
                    return r == isa::kNoReg || r < info.gpr_count;
                case isa::OperandUse::FP: return r < 32u;
                case isa::OperandUse::NONE: return true;
            }
            return false;
        };
        ASSERT_TRUE(ok(spec.rd, a.rd) && ok(spec.rn, a.rn) && ok(spec.rm, a.rm) &&
                    ok(spec.ra, a.ra));
        ASSERT_TRUE(isa::op_valid_for(a.op, p));
        ASSERT_LT(a.shift, 64);
    }
}

class EngineBothProfiles : public ::testing::TestWithParam<isa::Profile> {};
INSTANTIATE_TEST_SUITE_P(Profiles, EngineBothProfiles,
                         ::testing::Values(isa::Profile::V7, isa::Profile::V8));

TEST_P(EngineBothProfiles, RandomProgramsRunBitIdenticallyOnAllEngines) {
    const isa::Profile p = GetParam();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        util::Rng rng(seed * 0x9E3779B9u);
        const unsigned len = 50 + static_cast<unsigned>(rng.below(300));
        const auto body = [&](Assembler& a) {
            util::Rng prog_rng(seed);
            random_program(a, prog_rng, len);
        };
        std::uint64_t ref = 0;
        for (const sim::Engine e : kAllEngines) {
            sim::Machine m = build_snippet(p, body);
            m.set_engine(e);
            m.run_until(1'000'000);
            ASSERT_EQ(m.status(), sim::RunStatus::Shutdown) << "seed " << seed;
            if (e == sim::Engine::Switch)
                ref = fingerprint(m);
            else
                ASSERT_EQ(fingerprint(m), ref)
                    << "seed " << seed << " engine " << static_cast<int>(e);
        }
    }
}

TEST_P(EngineBothProfiles, RandomFaultsDivergeIdenticallyOnAllEngines) {
    // Inject the same random register/memory faults mid-run on both
    // engines; the (possibly crashing, hanging, or trapping) aftermath must
    // match bit for bit. The fault instant is a run_until stop_at, so under
    // the trace engine it lands *inside* superblock windows — the budget
    // clip must park the trace exactly at the injection point, and a MEM
    // fault striking text must invalidate the parked cursor.
    const isa::Profile p = GetParam();
    const npb::Scenario s{p, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    util::Rng rng(0xFA017);
    for (unsigned trial = 0; trial < 12; ++trial) {
        sim::Machine machines[] = {npb::make_machine(s, false),
                                   npb::make_machine(s, false)};
        for (unsigned i = 0; i < 2; ++i) machines[i].set_engine(kAllEngines[i]);
        const std::uint64_t at = 1000 + rng.below(60'000);

        core::FaultTarget t;
        const unsigned which = static_cast<unsigned>(rng.below(3));
        if (which == 0) {
            t.kind = core::FaultTarget::Kind::GPR;
            t.reg = static_cast<unsigned>(
                rng.below(isa::profile_info(p).gpr_count));
            t.bit = static_cast<unsigned>(
                rng.below(isa::profile_info(p).width_bits));
        } else if (which == 1 && p == isa::Profile::V8) {
            t.kind = core::FaultTarget::Kind::FP;
            t.reg = static_cast<unsigned>(rng.below(32));
            t.bit = static_cast<unsigned>(rng.below(64));
        } else {
            t.kind = core::FaultTarget::Kind::MEM;
            t.phys = rng.below(machines[0].mem().phys_size());
            t.bit = static_cast<unsigned>(rng.below(8));
        }
        for (sim::Machine& m : machines) {
            m.run_until(at);
            core::apply_fault(m, t);
            m.run_until(2'000'000);
        }
        ASSERT_EQ(fingerprint(machines[1]), fingerprint(machines[0]))
            << "trial " << trial << " kind " << static_cast<int>(t.kind)
            << " phys " << t.phys;
        ASSERT_EQ(machines[1].code_overlay_pages(),
                  machines[0].code_overlay_pages());
    }
}

TEST(Engine, AFreshMachineRunsTheTraceEngine) {
    const npb::Scenario s{isa::Profile::V8, npb::App::IS, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    EXPECT_EQ(npb::make_machine(s, false).engine(), sim::Engine::Trace);
}

TEST(Engine, MulticoreOmpAndMpiRunBitIdenticallyOnAllEngines) {
    // Multicore exercises what serial cannot: the burst loops' fallback to
    // the scheduler scan, IPI wakeups (sched_event_), per-core MRU filters,
    // the trace engine's round/tick-horizon scheduling, and the shared L2.
    // Faulted runs perturb the interleaving too.
    for (npb::Api api : {npb::Api::OMP, npb::Api::MPI}) {
        for (isa::Profile p : {isa::Profile::V7, isa::Profile::V8}) {
            const npb::Scenario s{p, npb::App::IS, api, 2, npb::Klass::Mini};
            core::FaultTarget t;
            t.kind = core::FaultTarget::Kind::GPR;
            t.core = 1;
            t.reg = 13; // SP-ish on both profiles: likely to derail control
            t.bit = 5;
            std::uint64_t ref = 0;
            for (const sim::Engine e : kAllEngines) {
                sim::Machine m = npb::make_machine(s, false);
                m.set_engine(e);
                m.run_until(20'000);
                core::apply_fault(m, t);
                m.run_until(3'000'000);
                if (e == sim::Engine::Switch)
                    ref = fingerprint(m);
                else
                    ASSERT_EQ(fingerprint(m), ref)
                        << s.name() << " engine " << static_cast<int>(e);
            }
        }
    }
}

TEST(Engine, CampaignDatabasesAreByteIdenticalAcrossEnginesAndKinds) {
    const npb::Scenario v7{isa::Profile::V7, npb::App::EP, npb::Api::Serial, 1,
                           npb::Klass::Mini};
    const npb::Scenario v8{isa::Profile::V8, npb::App::IS, npb::Api::Serial, 1,
                           npb::Klass::Mini};
    core::CampaignConfig gpr;
    gpr.n_faults = 25;
    gpr.seed = 0xE2E;
    core::CampaignConfig fp = gpr;
    fp.include_fp_regs = true;
    core::CampaignConfig mem = gpr;
    mem.memory_faults = true;

    std::string out[2];
    for (unsigned i = 0; i < 2; ++i) {
        orch::BatchOptions opts;
        opts.threads = 4;
        opts.engine = kAllEngines[i];
        orch::BatchRunner runner(opts);
        runner.add(v7, gpr);
        runner.add(v8, fp);
        runner.add(v7, mem);
        runner.add(v8, mem);
        const CampaignStreams db = campaign_streams(runner.run_all());
        out[i] = db.csv + "\x1e" + db.jsonl;
    }
    EXPECT_EQ(out[0], out[1]);
    EXPECT_NE(out[0].find("mem"), std::string::npos);
}

TEST(Engine, TextFaultForcesRedecodeOfTheStruckPage) {
    // A memory fault into the text mirror must change execution (through a
    // page re-decode), identically on both engines. Flipping a bit of a
    // MOVI immediate must surface in the computed result; flipping the
    // opcode byte into an invalid encoding must trap as UNDEF.
    std::uint64_t movi_addr = 0;
    const auto body = [&](Assembler& a) {
        movi_addr = a.here();
        a.movi(a.tmp(0), 42);
        a.nop();
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(0)); // exit code = t0
    };

    // Pristine: exits with 42.
    {
        sim::Machine m = build_snippet(isa::Profile::V8, body);
        m.run_until(1000);
        ASSERT_EQ(m.status(), sim::RunStatus::Shutdown);
        ASSERT_EQ(m.exit_code(), 42);
        ASSERT_EQ(m.code_overlay_pages(), 0u);
    }

    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(isa::Profile::V8, body);
        m.set_engine(e);
        const std::uint64_t idx = m.image().instr_index(movi_addr);
        const std::uint64_t rec =
            m.mem().text_base() + idx * isa::kTextRecordBytes;
        // Record byte 16 is the immediate's low byte: 42 ^ (1<<3) = 34.
        m.flip_mem(rec + 16, 3);
        m.run_until(1000);
        EXPECT_EQ(m.status(), sim::RunStatus::Shutdown) << "engine " << int(e);
        EXPECT_EQ(m.exit_code(), 34) << "engine " << int(e);
        EXPECT_EQ(m.code_overlay_pages(), 1u) << "engine " << int(e);
    }

    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(isa::Profile::V8, body);
        m.set_engine(e);
        const std::uint64_t idx = m.image().instr_index(movi_addr);
        const std::uint64_t rec =
            m.mem().text_base() + idx * isa::kTextRecordBytes;
        // Byte 0 is the opcode; MOVI=0, so setting bit 7 gives 128 >= the
        // opcode count -> decodes as UDF -> kernel-mode UNDEF panic.
        m.flip_mem(rec + 0, 7);
        m.run_until(1000);
        EXPECT_EQ(m.status(), sim::RunStatus::KernelPanic) << "engine " << int(e);
        EXPECT_EQ(m.panic_cause(), isa::TrapCause::UNDEF) << "engine " << int(e);
    }
}

TEST(Engine, DeltaSnapshotRestoreRedecodesCorruptedText) {
    // The re-decode funnel must also fire when corrupted text arrives via a
    // dirty-page delta restore instead of a direct flip.
    std::uint64_t movi_addr = 0;
    const auto body = [&](Assembler& a) {
        movi_addr = a.here();
        a.movi(a.tmp(0), 42);
        a.syswr(isa::SysReg::SHUTDOWN, a.tmp(0));
    };
    sim::Machine m = build_snippet(isa::Profile::V7, body);
    const sim::Machine base = m;
    m.mem().clear_dirty();
    const std::uint64_t idx = m.image().instr_index(movi_addr);
    m.flip_mem(m.mem().text_base() + idx * isa::kTextRecordBytes + 16, 3);

    const sim::MachineDelta d = sim::make_machine_delta(m, base);
    for (const sim::Engine e : kAllEngines) {
        sim::Machine restored = sim::restore_machine_delta(d, base);
        restored.set_engine(e);
        restored.run_until(1000);
        EXPECT_EQ(restored.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        EXPECT_EQ(restored.exit_code(), 34) << "engine " << static_cast<int>(e);
        EXPECT_GE(restored.code_overlay_pages(), 1u);
    }

    // And the base is untouched: restoring it runs the pristine program.
    sim::Machine clean = base;
    clean.run_until(1000);
    EXPECT_EQ(clean.exit_code(), 42);
}

TEST_P(EngineBothProfiles, StepObserverFiresExactlyOncePerRetiredInstruction) {
    // The same deterministic program under every engine: the observer's
    // (steps, traps, fold) must be engine-invariant, and on an abort-free
    // run `steps` equals exactly the retired count — no instruction is
    // observed twice (burst restarts, trace re-derivation) or skipped
    // (mid-trace retirements execute through the hoisted fast path).
    const isa::Profile p = GetParam();
    const auto body = [](Assembler& a) {
        util::Rng rng(0x0B5);
        random_program(a, rng, 250);
    };
    CountingObserver want;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(p, body);
        m.set_engine(e);
        CountingObserver obs;
        m.set_step_observer(&obs);
        m.run_until(1'000'000);
        ASSERT_EQ(m.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.steps, m.total_retired())
            << "engine " << static_cast<int>(e);
        if (e == sim::Engine::Switch) want = obs;
        EXPECT_EQ(obs.steps, want.steps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.traps, want.traps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.h, want.h) << "engine " << static_cast<int>(e);
    }
}

TEST(Engine, StepObserverAttachedMidRunSeesEveryRemainingInstruction) {
    // Attach at an instant the trace engine reaches with a parked mid-trace
    // cursor (run_until clips superblock budgets to stop exactly at the
    // boundary): from there on, every engine must observe the identical
    // callback stream, and the count must equal the retired delta — the
    // resumed trace may not replay the pre-attach prefix of its superblock.
    const npb::Scenario s{isa::Profile::V8, npb::App::DC, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    CountingObserver want;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = npb::make_machine(s, false);
        m.set_engine(e);
        m.run_until(30'000);
        ASSERT_EQ(m.total_retired(), 30'000u)
            << "engine " << static_cast<int>(e);
        CountingObserver obs;
        m.set_step_observer(&obs);
        m.run_until(60'000);
        EXPECT_EQ(obs.steps, m.total_retired() - 30'000)
            << "engine " << static_cast<int>(e);
        if (e == sim::Engine::Switch) want = obs;
        EXPECT_EQ(obs.steps, want.steps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.traps, want.traps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.h, want.h) << "engine " << static_cast<int>(e);
    }
}

TEST(Engine, StepObserverCountsEveryCoreUnderTheMulticoreScheduler) {
    // 2-core OMP under the trace engine runs through run_trace_multi's
    // round/tick-horizon regimes; the per-core interleaving is part of the
    // observer fold, so the hash check pins the schedule itself.
    const npb::Scenario s{isa::Profile::V8, npb::App::IS, npb::Api::OMP, 2,
                          npb::Klass::Mini};
    CountingObserver want;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = npb::make_machine(s, false);
        m.set_engine(e);
        CountingObserver obs;
        m.set_step_observer(&obs);
        m.run_until(100'000);
        EXPECT_EQ(obs.steps, m.total_retired())
            << "engine " << static_cast<int>(e);
        if (e == sim::Engine::Switch) want = obs;
        EXPECT_EQ(obs.steps, want.steps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.traps, want.traps) << "engine " << static_cast<int>(e);
        EXPECT_EQ(obs.h, want.h) << "engine " << static_cast<int>(e);
    }
}

TEST_P(EngineBothProfiles, IpiPingPongSchedulesIdenticallyOnAllEngines) {
    // The sched_event_ contract: IPI_SEND must break every engine's burst
    // (solo and multicore) so the wake is delivered at the same instant
    // everywhere. Two cores ping-pong four IPIs through WFI; the final
    // machine state — including wfi_sleeps and tick counts — must be
    // engine-invariant, and somebody must have genuinely slept.
    const isa::Profile p = GetParam();
    const auto body = [](Assembler& a) {
        const auto t = a.tmp(0);
        const auto n = a.sav(0);
        auto core1 = a.newl();
        a.sysrd(t, isa::SysReg::CORE_ID);
        a.cmpi(t, 0);
        a.b(Cond::NE, core1);
        // core 0: ping, then sleep until the pong, four rounds.
        a.movi(n, 4);
        auto loop0 = a.newl();
        a.bind(loop0);
        a.movi(t, 0b10);
        a.syswr(isa::SysReg::IPI_SEND, t);
        a.wfi();
        a.subsi(n, n, 1);
        a.b(Cond::NE, loop0);
        finish(a, 7);
        // core 1: sleep until the ping, then pong, four rounds.
        a.bind(core1);
        a.movi(n, 4);
        auto loop1 = a.newl();
        a.bind(loop1);
        a.wfi();
        a.movi(t, 0b01);
        a.syswr(isa::SysReg::IPI_SEND, t);
        a.subsi(n, n, 1);
        a.b(Cond::NE, loop1);
        a.hlt();
    };
    std::uint64_t ref = 0;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(p, body, 2);
        m.set_engine(e);
        m.run_until(1'000'000);
        ASSERT_EQ(m.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        EXPECT_EQ(m.exit_code(), 7) << "engine " << static_cast<int>(e);
        EXPECT_GT(m.counters(0).wfi_sleeps + m.counters(1).wfi_sleeps, 0u);
        if (e == sim::Engine::Switch)
            ref = fingerprint(m);
        else
            EXPECT_EQ(fingerprint(m), ref) << "engine " << static_cast<int>(e);
    }
}

TEST(Engine, TextFaultAheadOfAParkedTraceCursorInvalidatesTheTrace) {
    // Corrupt an instruction *downstream* of where run_until parked a
    // mid-superblock cursor: the resumed trace must not execute the stale
    // predecoded record. 200 straight-line `add 1` steps make one long
    // trace; we stop inside it, flip the 150th add into `add 9`, resume,
    // and every engine must exit with 42 + 199*1 + 9 = 250.
    std::uint64_t first_add = 0;
    const auto body = [&](Assembler& a) {
        const auto t = a.tmp(0);
        a.movi(t, 42);
        first_add = a.here();
        for (unsigned i = 0; i < 200; ++i) a.addi(t, t, 1);
        a.syswr(isa::SysReg::SHUTDOWN, t);
    };
    std::uint64_t ref = 0;
    for (const sim::Engine e : kAllEngines) {
        sim::Machine m = build_snippet(isa::Profile::V8, body);
        m.set_engine(e);
        // Stop mid-block: 1 movi + 49 adds retired, cursor parked at add #50.
        m.run_until(50);
        ASSERT_EQ(m.total_retired(), 50u) << "engine " << static_cast<int>(e);
        const std::uint64_t idx = m.image().instr_index(first_add) + 149;
        // Immediate low byte (record byte 16): 1 ^ (1<<3) = 9.
        m.flip_mem(m.mem().text_base() + idx * isa::kTextRecordBytes + 16, 3);
        m.run_until(10'000);
        EXPECT_EQ(m.status(), sim::RunStatus::Shutdown)
            << "engine " << static_cast<int>(e);
        EXPECT_EQ(m.exit_code(), 250) << "engine " << static_cast<int>(e);
        EXPECT_EQ(m.code_overlay_pages(), 1u)
            << "engine " << static_cast<int>(e);
        if (e == sim::Engine::Switch)
            ref = fingerprint(m);
        else
            EXPECT_EQ(fingerprint(m), ref) << "engine " << static_cast<int>(e);
    }
}

TEST(Engine, SharedExecCacheIsReusedAcrossMachinesAndClones) {
    const npb::Scenario s{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                          npb::Klass::Mini};
    const npb::BuiltProgram prog = npb::build_program(s);
    sim::MachineConfig cfg;
    cfg.procs = prog.procs;
    sim::Machine a(prog.image, cfg);
    sim::Machine b(prog.image, cfg);
    const sim::Machine c = a; // clone (what every fault run does)
    EXPECT_EQ(a.exec_cache().get(), b.exec_cache().get());
    EXPECT_EQ(a.exec_cache().get(), c.exec_cache().get());
    EXPECT_EQ(a.exec_cache()->size(), prog.image->code.size());
}
