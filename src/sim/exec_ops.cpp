#include "sim/exec_ops.hpp"

#include <array>

#include "isa/semantics.hpp"
#include "sim/machine.hpp"

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
    /// A data access faulted: kernel panic, or a user data-abort trap.
    static void data_abort(Machine& m, StepCtx& cx, const Translation& t,
                           std::uint64_t vaddr) {
        if (cx.core.mode == Mode::KERNEL) {
            m.panic(TrapCause::DATA_ABORT);
        } else {
            m.take_trap(cx.core, TrapCause::DATA_ABORT,
                        static_cast<std::uint64_t>(t.fault), vaddr);
        }
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
                data_abort(m, cx, t, vaddr);
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

    static void undef(Machine& m, StepCtx& cx) {
        if (cx.core.mode == Mode::KERNEL) {
            m.panic(TrapCause::UNDEF);
        } else {
            m.take_trap(cx.core, TrapCause::UNDEF,
                        static_cast<std::uint64_t>(cx.di.ins.op), 0);
        }
        cx.retire = false;
    }

    // ---- data ops (MOVI..CSET, FADD..FMOVXV) ----------------------------
    /// The shared evaluator (isa/semantics.hpp) instantiated for one opcode,
    /// then applied: flags first, then rd, ra and the FP destination. The FP
    /// op count and FDIV/FSQRT's latency are the engine's own.
    template <Op kOp>
    static void data_op(Machine& m, StepCtx& cx) {
        const Instr& i = cx.di.ins;
        isa::RegFile& regs = cx.core.regs;
        isa::DataEffect e;
        isa::eval_data(
            kOp, i, m.width_bits_, [&](unsigned r) { return regs.x(r); },
            [&](unsigned r) { return regs.v_bits(r); }, regs.flags(), e);
        if (e.wr_flags) regs.flags() = e.flags;
        if (e.wr_rd) m.write_gpr(cx.core, i.rd, e.rd);
        if (e.wr_ra) m.write_gpr(cx.core, i.ra, e.ra);
        if (e.wr_vd) regs.set_v_bits(i.rd, e.vd);
        if constexpr (isa::is_fp_data(kOp)) {
            ++cx.cnt.fp_ops;
            if constexpr (kOp == Op::FDIV || kOp == Op::FSQRT) cx.cost += 10;
        }
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

    // ---- memory (LDR..STREX, FLDR/FSTR) -------------------------------
    /// The engine's access port for isa::eval_mem: the core's live
    /// registers, the filtered data path, the reservation and the uncore
    /// hook.
    struct Port {
        Machine& m;
        StepCtx& cx;
        std::uint64_t x(unsigned r) const noexcept { return cx.core.regs.x(r); }
        std::uint64_t v(unsigned r) const noexcept {
            return cx.core.regs.v_bits(r);
        }
        void set_x(unsigned r, std::uint64_t val) { m.write_gpr(cx.core, r, val); }
        void set_v(unsigned r, std::uint64_t val) noexcept {
            cx.core.regs.set_v_bits(r, val);
        }
        bool load(std::uint64_t vaddr, unsigned size, std::uint64_t& out,
                  std::uint64_t& phys) {
            if (!access_fast(m, cx, vaddr, size, false, phys)) return false;
            out = m.mem_.load(phys, size);
            ++cx.cnt.loads;
            return true;
        }
        bool load(std::uint64_t vaddr, unsigned size, std::uint64_t& out) {
            std::uint64_t phys = 0;
            return load(vaddr, size, out, phys);
        }
        bool store(std::uint64_t vaddr, unsigned size, std::uint64_t val) {
            std::uint64_t phys = 0;
            if (!access_fast(m, cx, vaddr, size, true, phys)) return false;
            m.mem_.store(phys, size, val);
            ++cx.cnt.stores;
            return true;
        }
        bool load_excl(std::uint64_t vaddr, unsigned size, std::uint64_t& out) {
            std::uint64_t phys = 0;
            if (!load(vaddr, size, out, phys)) return false;
            cx.core.excl_addr = phys;
            cx.core.excl_valid = true;
            return true;
        }
        bool resolve(std::uint64_t vaddr, unsigned size, std::uint64_t& phys) {
            const Translation t = m.mem_.translate(
                vaddr, size, cx.core.mode == Mode::KERNEL, cx.core.curproc);
            if (!t.ok()) {
                data_abort(m, cx, t, vaddr);
                return false;
            }
            phys = t.phys;
            return true;
        }
        bool claim(std::uint64_t phys) noexcept {
            const bool held = cx.core.excl_valid && cx.core.excl_addr == phys;
            cx.core.excl_valid = false;
            return held;
        }
        /// Exclusive stores bypass the cache model (the hook sees them
        /// uncached) and break every other core's reservation.
        void store_excl(std::uint64_t phys, unsigned size, std::uint64_t val) {
            if (m.uncore_.ptr)
                m.uncore_.ptr->on_data_access(m, cx.ci, phys, size, true, false,
                                              false, false);
            m.mem_.store(phys, size, val);
            ++cx.cnt.stores;
            m.invalidate_reservations(phys, &cx.core);
        }
    };

    template <Op kOp>
    static void mem_op(Machine& m, StepCtx& cx) {
        Port p{m, cx};
        if (!isa::eval_mem(kOp, cx.di.ins, m.width_bits_, p)) cx.retire = false;
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
constexpr ExecHandler kData = &ExecOps::data_op<kOp>;
template <Op kOp>
constexpr ExecHandler kMem = &ExecOps::mem_op<kOp>;

/// The dispatch table, in Op declaration order (see isa/op.hpp).
constexpr std::array<ExecHandler, kOpCount> kHandlers = {{
    kData<Op::MOVI>,   kData<Op::MOV>,    kData<Op::MVN>,    kData<Op::ADD>,
    kData<Op::SUB>,    kData<Op::AND>,    kData<Op::ORR>,    kData<Op::EOR>,
    kData<Op::MUL>,    kData<Op::ADDI>,   kData<Op::SUBI>,   kData<Op::ANDI>,
    kData<Op::ORRI>,   kData<Op::EORI>,   kData<Op::ADDS>,   kData<Op::SUBS>,
    kData<Op::ADDSI>,  kData<Op::SUBSI>,  kData<Op::ADCS>,   kData<Op::SBCS>,
    kData<Op::UMULL>,  kData<Op::SMULL>,  kData<Op::UMULH>,  kData<Op::UDIV>,
    kData<Op::SDIV>,   kData<Op::LSLI>,   kData<Op::LSRI>,   kData<Op::ASRI>,
    kData<Op::LSLV>,   kData<Op::LSRV>,   kData<Op::ASRV>,   kData<Op::LSLSI>,
    kData<Op::LSRSI>,  kData<Op::CLZ>,    kData<Op::CMP>,    kData<Op::CMPI>,
    kData<Op::CMN>,    kData<Op::TST>,    kData<Op::CSEL>,   kData<Op::CSET>,
    &ExecOps::b,       &ExecOps::bcond,   &ExecOps::bl,      &ExecOps::blr,
    &ExecOps::br,      &ExecOps::ret,     &ExecOps::cbz,     &ExecOps::cbnz,
    kMem<Op::LDR>,     kMem<Op::STR>,     kMem<Op::LDRW>,    kMem<Op::STRW>,
    kMem<Op::LDRB>,    kMem<Op::STRB>,    kMem<Op::LDM>,     kMem<Op::STM>,
    kMem<Op::LDP>,     kMem<Op::STP>,     kMem<Op::LDREX>,   kMem<Op::STREX>,
    kData<Op::FADD>,   kData<Op::FSUB>,   kData<Op::FMUL>,   kData<Op::FDIV>,
    kData<Op::FSQRT>,  kData<Op::FNEG>,   kData<Op::FABS>,   kData<Op::FMADD>,
    kData<Op::FMOV>,   kData<Op::FMOVI>,  kData<Op::FCMP>,   kData<Op::FCVTZS>,
    kData<Op::SCVTF>,  kData<Op::FMOVVX>, kData<Op::FMOVXV>, kMem<Op::FLDR>,
    kMem<Op::FSTR>,    &ExecOps::svc,     &ExecOps::sysrd,   &ExecOps::syswr,
    &ExecOps::eret,    &ExecOps::wfi,     &ExecOps::nop,     &ExecOps::hlt,
    &ExecOps::udf,
}};

} // namespace

ExecHandler exec_handler(Op op) noexcept {
    return kHandlers[static_cast<std::size_t>(op)];
}

} // namespace serep::sim
