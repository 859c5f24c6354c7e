#include "sim/exec_ops.hpp"

#include <array>
#include <cmath>

#include "isa/alu.hpp"
#include "sim/machine.hpp"
#include "util/bitops.hpp"

namespace serep::sim {

namespace {

using isa::Instr;
using isa::Op;
using isa::SysReg;
using isa::TrapCause;

/// L1/L2 lines are 64 bytes (static config); the MRU filters key on this.
constexpr unsigned kLineShift = 6;
static_assert(kL1Config.line_bytes == 64 && kL2Config.line_bytes == 64,
              "MRU line filters assume 64-byte lines");

} // namespace

/// The trace engine's per-op handler implementations. A friend of Machine:
/// handlers are the moral equivalent of the reference switch's case bodies
/// and need the same access to interpreter state.
struct ExecOps {
    // ---- shared helpers -------------------------------------------------
    static std::uint64_t x(StepCtx& cx, unsigned r) noexcept {
        return cx.core.regs.x(r);
    }
    static std::uint64_t addr_of(Machine& m, StepCtx& cx) noexcept {
        const Instr& i = cx.di.ins;
        const std::uint64_t base = x(cx, i.rn);
        const std::uint64_t off = i.rm != isa::kNoReg
                                      ? (x(cx, i.rm) << i.shift)
                                      : static_cast<std::uint64_t>(i.imm);
        return (base + off) & m.width_mask_;
    }

    /// data_access with the one-entry translation filter and the MRU D-line
    /// filter; bit-identical cache/tick evolution to Machine::data_access
    /// (see Cache::credit_hit and CoreState::last_tkey).
    static bool access_fast(Machine& m, StepCtx& cx, std::uint64_t vaddr,
                            unsigned size, bool write, std::uint64_t& phys) {
        constexpr std::uint64_t kPageMask = isa::layout::kPageSize - 1;
        const bool kernel = cx.core.mode == Mode::KERNEL;
        const std::uint64_t tkey =
            (vaddr >> 12) |
            (static_cast<std::uint64_t>(cx.core.curproc) << 52) |
            (static_cast<std::uint64_t>(kernel) << 55);
        if (tkey == cx.core.last_tkey && (vaddr & (size - 1)) == 0) {
            phys = cx.core.last_tpage | (vaddr & kPageMask);
        } else {
            const Translation t =
                m.mem_.translate(vaddr, size, kernel, cx.core.curproc);
            if (!t.ok()) {
                if (kernel) {
                    m.panic(TrapCause::DATA_ABORT);
                } else {
                    m.take_trap(cx.core, TrapCause::DATA_ABORT,
                                static_cast<std::uint64_t>(t.fault), vaddr);
                }
                return false;
            }
            phys = t.phys;
            cx.core.last_tkey = tkey;
            cx.core.last_tpage = t.phys & ~kPageMask;
        }
        const std::uint64_t line = phys >> kLineShift;
        bool l1_hit = true, l2_hit = false;
        if (line == cx.core.last_dline) {
            m.l1d_[cx.ci].credit_hit();
        } else {
            l1_hit = m.l1d_[cx.ci].access(phys);
            if (!l1_hit) {
                cx.cost += kL1MissPenalty;
                l2_hit = m.l2_.access(phys);
                if (!l2_hit) cx.cost += kL2MissPenalty;
            }
            cx.core.last_dline = line;
        }
        if (write) m.invalidate_reservations(phys, nullptr);
        if (m.uncore_.ptr)
            m.uncore_.ptr->on_data_access(m, cx.ci, phys, size, write, l1_hit,
                                          l2_hit, true);
        return true;
    }

    static bool ld(Machine& m, StepCtx& cx, std::uint64_t vaddr, unsigned size,
                   std::uint64_t& out) {
        std::uint64_t phys = 0;
        if (!access_fast(m, cx, vaddr, size, false, phys)) return false;
        out = m.mem_.load(phys, size);
        ++cx.cnt.loads;
        return true;
    }
    static bool st(Machine& m, StepCtx& cx, std::uint64_t vaddr, unsigned size,
                   std::uint64_t val) {
        std::uint64_t phys = 0;
        if (!access_fast(m, cx, vaddr, size, true, phys)) return false;
        m.mem_.store(phys, size, val);
        ++cx.cnt.stores;
        return true;
    }

    static void undef(Machine& m, StepCtx& cx) {
        if (cx.core.mode == Mode::KERNEL) {
            m.panic(TrapCause::UNDEF);
        } else {
            m.take_trap(cx.core, TrapCause::UNDEF,
                        static_cast<std::uint64_t>(cx.di.ins.op), 0);
        }
        cx.retire = false;
    }

    static double vd(StepCtx& cx, unsigned r) noexcept {
        return util::bits_f64(cx.core.regs.v_bits(r));
    }
    static void setv(StepCtx& cx, unsigned r, double d) noexcept {
        cx.core.regs.set_v_bits(r, util::f64_bits(d));
    }

    // ---- integer data ops (MOVI..CSET) ---------------------------------
    /// The shared evaluator (isa/alu.hpp) instantiated for one opcode, then
    /// applied: flags first, then rd, then ra.
    template <Op kOp>
    static void int_op(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        isa::DataEffect e;
        isa::eval_int_data(
            kOp, i, m.width_bits_, [&](unsigned r) { return x(cx, r); },
            cx.core.regs.flags(), e);
        if (e.wr_flags) cx.core.regs.flags() = e.flags;
        if (e.wr_rd) m.write_gpr(cx.core, i.rd, e.rd);
        if (e.wr_ra) m.write_gpr(cx.core, i.ra, e.ra);
    }

    // ---- branches -------------------------------------------------------
    static void b(Machine& m, StepCtx& cx) {
        m.next_pc_ = static_cast<std::uint64_t>(cx.di.ins.imm);
        m.branch_taken_ = true;
    }
    static void bcond(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        if (cond_holds(i.cond, cx.core.regs.flags())) {
            m.next_pc_ = static_cast<std::uint64_t>(i.imm);
            m.branch_taken_ = true;
        }
    }
    static void note_call(Machine& m, std::uint64_t target) {
        if (m.cfg_.profile && m.image_->contains_code(target))
            ++m.func_calls_[m.image_->func_of_instr[m.image_->instr_index(
                target)]];
    }
    static void bl(Machine& m, StepCtx& cx) {
        cx.core.regs.set_lr(cx.pc + isa::kInstrBytes);
        m.next_pc_ = static_cast<std::uint64_t>(cx.di.ins.imm);
        m.branch_taken_ = true;
        note_call(m, static_cast<std::uint64_t>(cx.di.ins.imm));
    }
    static void blr(Machine& m, StepCtx& cx) {
        const std::uint64_t t = x(cx, cx.di.ins.rn);
        cx.core.regs.set_lr(cx.pc + isa::kInstrBytes);
        m.next_pc_ = t;
        m.branch_taken_ = true;
        note_call(m, t);
    }
    static void br(Machine& m, StepCtx& cx) {
        m.next_pc_ = x(cx, cx.di.ins.rn);
        m.branch_taken_ = true;
    }
    static void ret(Machine& m, StepCtx& cx) {
        m.next_pc_ = cx.core.regs.lr();
        m.branch_taken_ = true;
    }
    static void cbz(Machine& m, StepCtx& cx) {
        if (x(cx, cx.di.ins.rn) == 0) {
            m.next_pc_ = static_cast<std::uint64_t>(cx.di.ins.imm);
            m.branch_taken_ = true;
        }
    }
    static void cbnz(Machine& m, StepCtx& cx) {
        if (x(cx, cx.di.ins.rn) != 0) {
            m.next_pc_ = static_cast<std::uint64_t>(cx.di.ins.imm);
            m.branch_taken_ = true;
        }
    }

    // ---- memory ---------------------------------------------------------
    static void load_gpr(Machine& m, StepCtx& cx) { // LDR / LDRW / LDRB
        std::uint64_t v;
        if (!ld(m, cx, addr_of(m, cx), cx.di.mem_size, v)) {
            cx.retire = false;
            return;
        }
        m.write_gpr(cx.core, cx.di.ins.rd, v);
    }
    static void strw(Machine& m, StepCtx& cx) {
        if (!st(m, cx, addr_of(m, cx), 4, x(cx, cx.di.ins.rd) & 0xFFFFFFFFu))
            cx.retire = false;
    }
    static void strb(Machine& m, StepCtx& cx) {
        if (!st(m, cx, addr_of(m, cx), 1, x(cx, cx.di.ins.rd) & 0xFF))
            cx.retire = false;
    }
    static void str(Machine& m, StepCtx& cx) {
        if (!st(m, cx, addr_of(m, cx), cx.di.mem_size, x(cx, cx.di.ins.rd)))
            cx.retire = false;
    }
    static void ldm(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const std::uint64_t a = x(cx, i.rn) & m.width_mask_;
        unsigned n = 0;
        for (unsigned r = 0; r < 15 && cx.retire; ++r) {
            if (!(i.regmask & (1u << r))) continue;
            std::uint64_t v;
            if (!ld(m, cx, a + 4 * n, 4, v)) {
                cx.retire = false;
                break;
            }
            m.write_gpr(cx.core, r, v);
            ++n;
        }
        if (cx.retire && i.wb)
            m.write_gpr(cx.core, i.rn, (x(cx, i.rn) + 4 * n) & m.width_mask_);
    }
    static void stm(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const std::uint64_t a = x(cx, i.rn) & m.width_mask_;
        unsigned n = 0;
        for (unsigned r = 0; r < 15 && cx.retire; ++r) {
            if (!(i.regmask & (1u << r))) continue;
            if (!st(m, cx, a + 4 * n, 4, x(cx, r))) {
                cx.retire = false;
                break;
            }
            ++n;
        }
        if (cx.retire && i.wb)
            m.write_gpr(cx.core, i.rn, (x(cx, i.rn) + 4 * n) & m.width_mask_);
    }
    static void ldp(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const std::uint64_t a = addr_of(m, cx);
        std::uint64_t v1, v2;
        if (!ld(m, cx, a, 8, v1) || !ld(m, cx, a + 8, 8, v2)) {
            cx.retire = false;
            return;
        }
        m.write_gpr(cx.core, i.rd, v1);
        m.write_gpr(cx.core, i.ra, v2);
    }
    static void stp(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const std::uint64_t a = addr_of(m, cx);
        if (!st(m, cx, a, 8, x(cx, i.rd)) || !st(m, cx, a + 8, 8, x(cx, i.ra)))
            cx.retire = false;
    }
    static void ldrex(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const unsigned size = cx.di.mem_size;
        std::uint64_t phys = 0;
        if (!access_fast(m, cx, x(cx, i.rn) & m.width_mask_, size, false, phys)) {
            cx.retire = false;
            return;
        }
        m.write_gpr(cx.core, i.rd, m.mem_.load(phys, size));
        ++cx.cnt.loads;
        cx.core.excl_addr = phys;
        cx.core.excl_valid = true;
    }
    static void strex(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        const unsigned size = cx.di.mem_size;
        const std::uint64_t vaddr = x(cx, i.rn) & m.width_mask_;
        const Translation t = m.mem_.translate(
            vaddr, size, cx.core.mode == Mode::KERNEL, cx.core.curproc);
        if (!t.ok()) {
            if (cx.core.mode == Mode::KERNEL) {
                m.panic(TrapCause::DATA_ABORT);
            } else {
                m.take_trap(cx.core, TrapCause::DATA_ABORT,
                            static_cast<std::uint64_t>(t.fault), vaddr);
            }
            cx.retire = false;
            return;
        }
        if (cx.core.excl_valid && cx.core.excl_addr == t.phys) {
            if (m.uncore_.ptr)
                m.uncore_.ptr->on_data_access(m, cx.ci, t.phys, size, true,
                                              false, false, false);
            m.mem_.store(t.phys, size, x(cx, i.rm));
            ++cx.cnt.stores;
            cx.core.excl_valid = false;
            m.invalidate_reservations(t.phys, &cx.core);
            m.write_gpr(cx.core, i.rd, 0);
        } else {
            cx.core.excl_valid = false;
            m.write_gpr(cx.core, i.rd, 1);
        }
    }

    // ---- floating point -------------------------------------------------
    static void fadd(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, vd(cx, i.rn) + vd(cx, i.rm));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fsub(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, vd(cx, i.rn) - vd(cx, i.rm));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fmul(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, vd(cx, i.rn) * vd(cx, i.rm));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fdiv(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, vd(cx, i.rn) / vd(cx, i.rm));
        ++cx.cnt.fp_ops;
        cx.cost += 10;
        (void)m;
    }
    static void fsqrt(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, std::sqrt(vd(cx, i.rn)));
        ++cx.cnt.fp_ops;
        cx.cost += 10;
        (void)m;
    }
    static void fneg(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, -vd(cx, i.rn));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fabs_(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, std::fabs(vd(cx, i.rn)));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fmadd(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd, std::fma(vd(cx, i.rn), vd(cx, i.rm), vd(cx, i.ra)));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fmov(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        cx.core.regs.set_v_bits(i.rd, cx.core.regs.v_bits(i.rn));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fmovi(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        cx.core.regs.set_v_bits(i.rd, static_cast<std::uint64_t>(i.imm));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fcmp(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        cx.core.regs.flags() = isa::fcmp_flags(vd(cx, i.rn), vd(cx, i.rm));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fcvtzs(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        m.write_gpr(cx.core, i.rd,
                    static_cast<std::uint64_t>(isa::fcvtzs_result(vd(cx, i.rn))));
        ++cx.cnt.fp_ops;
    }
    static void scvtf(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        setv(cx, i.rd,
             static_cast<double>(static_cast<std::int64_t>(x(cx, i.rn))));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fmovvx(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        m.write_gpr(cx.core, i.rd, cx.core.regs.v_bits(i.rn));
        ++cx.cnt.fp_ops;
    }
    static void fmovxv(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        cx.core.regs.set_v_bits(i.rd, x(cx, i.rn));
        ++cx.cnt.fp_ops;
        (void)m;
    }
    static void fldr(Machine& m, StepCtx& cx) {
        std::uint64_t v;
        if (!ld(m, cx, addr_of(m, cx), 8, v)) {
            cx.retire = false;
            return;
        }
        cx.core.regs.set_v_bits(cx.di.ins.rd, v);
    }
    static void fstr(Machine& m, StepCtx& cx) {
        if (!st(m, cx, addr_of(m, cx), 8, cx.core.regs.v_bits(cx.di.ins.rd)))
            cx.retire = false;
    }

    // ---- system ---------------------------------------------------------
    static void svc(Machine& m, StepCtx& cx) {
        if (cx.core.mode == Mode::KERNEL) {
            m.panic(TrapCause::SVC);
            cx.retire = false;
        } else {
            // SVC retires; the trap redirects control flow.
            m.take_trap(cx.core, TrapCause::SVC,
                        static_cast<std::uint64_t>(cx.di.ins.imm), 0);
            m.next_pc_ = cx.core.regs.pc();
        }
    }
    static void sysrd(Machine& m, StepCtx& cx) {
        std::uint64_t v = 0;
        if (!m.sysreg_read(cx.core, static_cast<SysReg>(cx.di.ins.imm), v)) {
            undef(m, cx);
            return;
        }
        m.write_gpr(cx.core, cx.di.ins.rd, v);
    }
    static void syswr(Machine& m, StepCtx& cx) {
        if (!m.sysreg_write(cx.core, static_cast<SysReg>(cx.di.ins.imm),
                            x(cx, cx.di.ins.rn)))
            undef(m, cx);
    }
    static void eret(Machine& m, StepCtx& cx) {
        if (cx.core.mode != Mode::KERNEL) {
            undef(m, cx);
            return;
        }
        const std::uint64_t t = cx.core.regs.sp();
        cx.core.regs.set_sp(cx.core.banked_sp);
        cx.core.banked_sp = t;
        cx.core.mode = Mode::USER;
        m.next_pc_ = cx.core.epc;
        m.branch_taken_ = true;
        cx.core.excl_valid = false;
        if (!m.app_started_) {
            m.app_started_ = true;
            m.app_start_retired_ = m.total_retired_;
        }
    }
    static void wfi(Machine& m, StepCtx& cx) {
        if (cx.core.mode != Mode::KERNEL) {
            undef(m, cx);
            return;
        }
        if (cx.core.pending_timer || cx.core.pending_ipi) {
            cx.core.pending_timer = false;
            cx.core.pending_ipi = false;
        } else {
            cx.core.sleeping = true;
            ++cx.cnt.wfi_sleeps;
        }
    }
    static void hlt(Machine& m, StepCtx& cx) {
        if (cx.core.mode != Mode::KERNEL) {
            undef(m, cx);
            return;
        }
        cx.core.halted = true;
    }
    static void nop(Machine&, StepCtx&) {}
    static void udf(Machine& m, StepCtx& cx) { undef(m, cx); }
};

namespace {

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::UDF) + 1;

template <Op kOp>
constexpr ExecHandler kInt = &ExecOps::int_op<kOp>;

/// The dispatch table, in Op declaration order (see isa/op.hpp).
constexpr std::array<ExecHandler, kOpCount> kHandlers = {{
    kInt<Op::MOVI>,   kInt<Op::MOV>,    kInt<Op::MVN>,    kInt<Op::ADD>,
    kInt<Op::SUB>,    kInt<Op::AND>,    kInt<Op::ORR>,    kInt<Op::EOR>,
    kInt<Op::MUL>,    kInt<Op::ADDI>,   kInt<Op::SUBI>,   kInt<Op::ANDI>,
    kInt<Op::ORRI>,   kInt<Op::EORI>,   kInt<Op::ADDS>,   kInt<Op::SUBS>,
    kInt<Op::ADDSI>,  kInt<Op::SUBSI>,  kInt<Op::ADCS>,   kInt<Op::SBCS>,
    kInt<Op::UMULL>,  kInt<Op::SMULL>,  kInt<Op::UMULH>,  kInt<Op::UDIV>,
    kInt<Op::SDIV>,   kInt<Op::LSLI>,   kInt<Op::LSRI>,   kInt<Op::ASRI>,
    kInt<Op::LSLV>,   kInt<Op::LSRV>,   kInt<Op::ASRV>,   kInt<Op::LSLSI>,
    kInt<Op::LSRSI>,  kInt<Op::CLZ>,    kInt<Op::CMP>,    kInt<Op::CMPI>,
    kInt<Op::CMN>,    kInt<Op::TST>,    kInt<Op::CSEL>,   kInt<Op::CSET>,
    &ExecOps::b,      &ExecOps::bcond,  &ExecOps::bl,     &ExecOps::blr,
    &ExecOps::br,     &ExecOps::ret,    &ExecOps::cbz,    &ExecOps::cbnz,
    &ExecOps::load_gpr, &ExecOps::str,  &ExecOps::load_gpr, &ExecOps::strw,
    &ExecOps::load_gpr, &ExecOps::strb, &ExecOps::ldm,    &ExecOps::stm,
    &ExecOps::ldp,    &ExecOps::stp,    &ExecOps::ldrex,  &ExecOps::strex,
    &ExecOps::fadd,   &ExecOps::fsub,   &ExecOps::fmul,   &ExecOps::fdiv,
    &ExecOps::fsqrt,  &ExecOps::fneg,   &ExecOps::fabs_,  &ExecOps::fmadd,
    &ExecOps::fmov,   &ExecOps::fmovi,  &ExecOps::fcmp,   &ExecOps::fcvtzs,
    &ExecOps::scvtf,  &ExecOps::fmovvx, &ExecOps::fmovxv, &ExecOps::fldr,
    &ExecOps::fstr,   &ExecOps::svc,    &ExecOps::sysrd,  &ExecOps::syswr,
    &ExecOps::eret,   &ExecOps::wfi,    &ExecOps::nop,    &ExecOps::hlt,
    &ExecOps::udf,
}};

} // namespace

ExecHandler exec_handler(Op op) noexcept {
    return kHandlers[static_cast<std::size_t>(op)];
}

} // namespace serep::sim
