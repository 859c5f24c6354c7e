// The µISA data-path semantics, written once.
//
// Three evaluators cover every op that moves data:
//  * eval_int_data — the integer ALU, flag and conditional-select ops
//    (MOVI..CSET), with the ALU primitives they are built from;
//  * eval_fp_data — the FP data ops (FADD..FMOVXV);
//  * eval_mem — every load and store (LDR..STREX, FLDR/FSTR), through an
//    access port.
// Two clients share them:
//  * the trace engine's handlers (sim/exec_ops.cpp) evaluate them on the
//    core's live state;
//  * the prune walker (prune/prune.cpp) evaluates them on the golden state
//    and on the golden state XOR a fault's diffs, and keeps the XOR of the
//    two sides' writes as the fault's new diff.
// Sharing makes drift between the engine and the walker impossible. The
// switch interpreter (Machine::step_switch) deliberately keeps its own
// transcription: it is the independent oracle the differential engine tests
// compare against.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "isa/flags.hpp"
#include "isa/instr.hpp"
#include "util/bitops.hpp"

namespace serep::isa {

struct Alu {
    std::uint64_t value;
    Flags flags;
};

/// ARM AddWithCarry at width w; sets all four flags.
inline Alu carry_add(std::uint64_t a, std::uint64_t b, std::uint64_t cin,
                     unsigned w) noexcept {
    const std::uint64_t mask = util::low_mask(w);
    a &= mask;
    b &= mask;
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(a) + b + (cin & 1);
    const std::uint64_t r = static_cast<std::uint64_t>(wide) & mask;
    Alu out{r, {}};
    out.flags.n = ((r >> (w - 1)) & 1) != 0;
    out.flags.z = r == 0;
    out.flags.c = (wide >> w) != 0;
    out.flags.v = (((~(a ^ b) & (a ^ r)) >> (w - 1)) & 1) != 0;
    return out;
}

inline std::uint64_t shl(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    return amt >= w ? 0 : (v << amt) & util::low_mask(w);
}
inline std::uint64_t shr(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    v &= util::low_mask(w);
    return amt >= w ? 0 : v >> amt;
}
inline std::uint64_t sar(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    const std::int64_t s = util::sign_extend(v, w);
    if (amt >= w) amt = w - 1;
    return static_cast<std::uint64_t>(s >> amt) & util::low_mask(w);
}

inline std::uint64_t clz_result(std::uint64_t a, unsigned w) noexcept {
    if (a == 0) return w;
    if (w == 32) return util::clz(a, 32);
    return util::clz(a, 64);
}

/// Signed divide at width w: x/0 = 0, INT_MIN/-1 = INT_MIN (no trap).
inline std::int64_t sdiv_result(std::uint64_t an, std::uint64_t am,
                                unsigned w) noexcept {
    const std::int64_t a = util::sign_extend(an, w);
    const std::int64_t b = util::sign_extend(am, w);
    if (b == 0) return 0;
    if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
    return a / b;
}

inline Flags fcmp_flags(double a, double b) noexcept {
    if (std::isnan(a) || std::isnan(b)) return Flags{false, false, true, true};
    if (a == b) return Flags{false, true, true, false};
    if (a < b) return Flags{true, false, false, false};
    return Flags{false, false, true, false};
}

/// Double to signed 64-bit, truncating; NaN -> 0, out of range saturates.
inline std::int64_t fcvtzs_result(double d) noexcept {
    if (std::isnan(d)) return 0;
    if (d >= 9.2233720368547758e18) return std::numeric_limits<std::int64_t>::max();
    if (d <= -9.2233720368547758e18) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(d);
}

/// What one data op writes: the GPRs rd and ra (UMULL/SMULL high half), the
/// FP register rd (`vd`, raw bits) and the NZCV flags. Unwritten fields keep
/// their defaults.
struct DataEffect {
    bool wr_rd = false, wr_ra = false, wr_vd = false, wr_flags = false;
    std::uint64_t rd = 0, ra = 0, vd = 0;
    Flags flags;
};

/// The ops eval_fp_data and eval_mem evaluate.
constexpr bool is_fp_data(Op op) noexcept {
    return op >= Op::FADD && op <= Op::FMOVXV;
}
constexpr bool is_mem_op(Op op) noexcept {
    return (op >= Op::LDR && op <= Op::STREX) || op == Op::FLDR || op == Op::FSTR;
}

/// Evaluate integer data op `op` (the operands come from `ins`) at width `w`
/// under register reader `x` and flags `fl`, into `e`. Returns false, with
/// `e` untouched, when `op` is not an integer data op. These ops have no
/// memory access, no control transfer (a V7 write to R15 is the caller's
/// business) and a flat tick cost. Always inlined, so a caller passing a
/// constant `op` gets exactly that op's code with the switch folded away.
template <typename RX>
[[gnu::always_inline]] inline bool eval_int_data(Op op, const Instr& ins,
                                                 unsigned w, RX x, Flags fl,
                                                 DataEffect& e) {
    const std::uint64_t imm = static_cast<std::uint64_t>(ins.imm);
    const auto rd = [&](std::uint64_t v) { e.wr_rd = true; e.rd = v; };
    const auto ra = [&](std::uint64_t v) { e.wr_ra = true; e.ra = v; };
    const auto ff = [&](Flags nf) { e.wr_flags = true; e.flags = nf; };
    const auto alu = [&](const Alu& a) { ff(a.flags); rd(a.value); };
    switch (op) {
        case Op::MOVI: rd(imm); return true;
        case Op::MOV: rd(x(ins.rn)); return true;
        case Op::MVN: rd(~x(ins.rn)); return true;
        case Op::ADD: rd(x(ins.rn) + x(ins.rm)); return true;
        case Op::SUB: rd(x(ins.rn) - x(ins.rm)); return true;
        case Op::AND: rd(x(ins.rn) & x(ins.rm)); return true;
        case Op::ORR: rd(x(ins.rn) | x(ins.rm)); return true;
        case Op::EOR: rd(x(ins.rn) ^ x(ins.rm)); return true;
        case Op::MUL: rd(x(ins.rn) * x(ins.rm)); return true;
        case Op::ADDI: rd(x(ins.rn) + imm); return true;
        case Op::SUBI: rd(x(ins.rn) - imm); return true;
        case Op::ANDI: rd(x(ins.rn) & imm); return true;
        case Op::ORRI: rd(x(ins.rn) | imm); return true;
        case Op::EORI: rd(x(ins.rn) ^ imm); return true;
        case Op::ADDS: alu(carry_add(x(ins.rn), x(ins.rm), 0, w)); return true;
        case Op::SUBS: alu(carry_add(x(ins.rn), ~x(ins.rm), 1, w)); return true;
        case Op::ADDSI: alu(carry_add(x(ins.rn), imm, 0, w)); return true;
        case Op::SUBSI: alu(carry_add(x(ins.rn), ~imm, 1, w)); return true;
        case Op::ADCS: alu(carry_add(x(ins.rn), x(ins.rm), fl.c, w)); return true;
        case Op::SBCS: alu(carry_add(x(ins.rn), ~x(ins.rm), fl.c, w)); return true;
        case Op::UMULL: {
            const std::uint64_t p =
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(x(ins.rn))) *
                static_cast<std::uint32_t>(x(ins.rm));
            rd(p & 0xFFFFFFFFu);
            ra(p >> 32);
            return true;
        }
        case Op::SMULL: {
            const std::int64_t p =
                static_cast<std::int64_t>(static_cast<std::int32_t>(x(ins.rn))) *
                static_cast<std::int32_t>(x(ins.rm));
            rd(static_cast<std::uint64_t>(p) & 0xFFFFFFFFu);
            ra(static_cast<std::uint64_t>(p) >> 32);
            return true;
        }
        case Op::UMULH:
            rd(static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(x(ins.rn)) * x(ins.rm)) >> 64));
            return true;
        case Op::UDIV: {
            const std::uint64_t b = x(ins.rm);
            rd(b == 0 ? 0 : x(ins.rn) / b);
            return true;
        }
        case Op::SDIV:
            rd(static_cast<std::uint64_t>(sdiv_result(x(ins.rn), x(ins.rm), w)));
            return true;
        case Op::LSLI: rd(shl(x(ins.rn), static_cast<unsigned>(imm), w)); return true;
        case Op::LSRI: rd(shr(x(ins.rn), static_cast<unsigned>(imm), w)); return true;
        case Op::ASRI: rd(sar(x(ins.rn), static_cast<unsigned>(imm), w)); return true;
        case Op::LSLV:
            rd(shl(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w));
            return true;
        case Op::LSRV:
            rd(shr(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w));
            return true;
        case Op::ASRV:
            rd(sar(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w));
            return true;
        case Op::LSLSI: {
            const unsigned sh = static_cast<unsigned>(imm);
            const std::uint64_t a = x(ins.rn);
            const std::uint64_t r = shl(a, sh, w);
            Flags nf = fl; // V preserved
            nf.c = util::get_bit(a, w - sh);
            nf.n = util::get_bit(r, w - 1);
            nf.z = r == 0;
            ff(nf);
            rd(r);
            return true;
        }
        case Op::LSRSI: {
            const unsigned sh = static_cast<unsigned>(imm);
            const std::uint64_t a = x(ins.rn);
            const std::uint64_t r = shr(a, sh, w);
            Flags nf = fl; // V preserved
            nf.c = util::get_bit(a, sh - 1);
            nf.n = false;
            nf.z = r == 0;
            ff(nf);
            rd(r);
            return true;
        }
        case Op::CLZ: rd(clz_result(x(ins.rn), w)); return true;
        case Op::CMP: ff(carry_add(x(ins.rn), ~x(ins.rm), 1, w).flags); return true;
        case Op::CMPI: ff(carry_add(x(ins.rn), ~imm, 1, w).flags); return true;
        case Op::CMN: ff(carry_add(x(ins.rn), x(ins.rm), 0, w).flags); return true;
        case Op::TST: {
            const std::uint64_t r = (x(ins.rn) & x(ins.rm)) & util::low_mask(w);
            Flags nf = fl; // C/V preserved
            nf.n = util::get_bit(r, w - 1);
            nf.z = r == 0;
            ff(nf);
            return true;
        }
        case Op::CSEL: rd(cond_holds(ins.cond, fl) ? x(ins.rn) : x(ins.rm)); return true;
        case Op::CSET: rd(cond_holds(ins.cond, fl) ? 1 : 0); return true;
        default: return false;
    }
}

/// Evaluate FP data op `op` (FADD..FMOVXV) under GPR reader `x` and FP
/// reader `v` (raw register bits) into `e`. Returns false, with `e`
/// untouched, when `op` is not an FP data op. The FP destination is FP
/// register `ins.rd`; FCVTZS and FMOVVX write GPR `ins.rd` and FCMP the
/// flags. Unlike the integer ops these are outside the V7 predicate (V8
/// only), and FDIV/FSQRT cost extra ticks: the op count and the latency are
/// the engine's business.
template <typename RX, typename RV>
[[gnu::always_inline]] inline bool eval_fp_data(Op op, const Instr& ins, RX x,
                                                RV v, DataEffect& e) {
    const auto d = [&](unsigned r) { return util::bits_f64(v(r)); };
    const auto vd = [&](std::uint64_t bits) { e.wr_vd = true; e.vd = bits; };
    const auto fd = [&](double r) { vd(util::f64_bits(r)); };
    const auto rd = [&](std::uint64_t val) { e.wr_rd = true; e.rd = val; };
    switch (op) {
        case Op::FADD: fd(d(ins.rn) + d(ins.rm)); return true;
        case Op::FSUB: fd(d(ins.rn) - d(ins.rm)); return true;
        case Op::FMUL: fd(d(ins.rn) * d(ins.rm)); return true;
        case Op::FDIV: fd(d(ins.rn) / d(ins.rm)); return true;
        case Op::FSQRT: fd(std::sqrt(d(ins.rn))); return true;
        case Op::FNEG: fd(-d(ins.rn)); return true;
        case Op::FABS: fd(std::fabs(d(ins.rn))); return true;
        case Op::FMADD: fd(std::fma(d(ins.rn), d(ins.rm), d(ins.ra))); return true;
        case Op::FMOV: vd(v(ins.rn)); return true;
        case Op::FMOVI: vd(static_cast<std::uint64_t>(ins.imm)); return true;
        case Op::FCMP:
            e.wr_flags = true;
            e.flags = fcmp_flags(d(ins.rn), d(ins.rm));
            return true;
        case Op::FCVTZS: rd(static_cast<std::uint64_t>(fcvtzs_result(d(ins.rn)))); return true;
        case Op::SCVTF:
            fd(static_cast<double>(static_cast<std::int64_t>(x(ins.rn))));
            return true;
        case Op::FMOVVX: rd(v(ins.rn)); return true;
        case Op::FMOVXV: vd(x(ins.rn)); return true;
        default: return false;
    }
}

/// Any data op, integer or FP.
template <typename RX, typename RV>
[[gnu::always_inline]] inline bool eval_data(Op op, const Instr& ins, unsigned w,
                                             RX x, RV v, Flags fl, DataEffect& e) {
    return eval_int_data(op, ins, w, x, fl, e) || eval_fp_data(op, ins, x, v, e);
}

/// Evaluate memory op `op` (is_mem_op) at register width `w` through the
/// access port `p`, which supplies the machine:
///
///   std::uint64_t x(unsigned r), v(unsigned r)  GPR / FP reads (raw bits);
///                                               a read sees this op's
///                                               earlier writes
///   void set_x(unsigned r, std::uint64_t),      GPR / FP writes (set_x has
///        set_v(unsigned r, std::uint64_t)       write_gpr's semantics)
///   bool load(vaddr, size, std::uint64_t& out), one data access; false when
///        store(vaddr, size, value)              it aborted (the port takes
///                                               the trap)
///   bool load_excl(vaddr, size, out)            a load that sets the core's
///                                               reservation
///   bool resolve(vaddr, size, std::uint64_t& phys)
///                                               translate only, aborting
///                                               like an access (STREX
///                                               bypasses the caches)
///   bool claim(phys)                            consume the reservation:
///                                               true when it covered phys
///   void store_excl(phys, size, value)          the exclusive store
///
/// The evaluator owns the effective address, the per-op access widths, the
/// access order and what a later abort leaves committed: LDP loads both
/// words before it writes either register; STP and STM keep the stores made
/// before an abort; LDM writes each register as it loads it, and its
/// writeback reads the loaded rn; STREX checks the reservation before it
/// stores. Returns false when an access aborted.
template <typename Port>
[[gnu::always_inline]] inline bool eval_mem(Op op, const Instr& ins, unsigned w,
                                            Port& p) {
    const std::uint64_t mask = util::low_mask(w);
    const unsigned wbytes = w / 8;
    const auto addr = [&] {
        const std::uint64_t off = ins.rm != kNoReg
                                      ? p.x(ins.rm) << ins.shift
                                      : static_cast<std::uint64_t>(ins.imm);
        return (p.x(ins.rn) + off) & mask;
    };
    const auto load_x = [&](unsigned size) {
        std::uint64_t val = 0;
        if (!p.load(addr(), size, val)) return false;
        p.set_x(ins.rd, val);
        return true;
    };
    switch (op) {
        case Op::LDR: return load_x(wbytes);
        case Op::LDRW: return load_x(4);
        case Op::LDRB: return load_x(1);
        case Op::STR: return p.store(addr(), wbytes, p.x(ins.rd));
        case Op::STRW: return p.store(addr(), 4, p.x(ins.rd) & 0xFFFFFFFFu);
        case Op::STRB: return p.store(addr(), 1, p.x(ins.rd) & 0xFF);
        case Op::FLDR: {
            std::uint64_t val = 0;
            if (!p.load(addr(), 8, val)) return false;
            p.set_v(ins.rd, val);
            return true;
        }
        case Op::FSTR: return p.store(addr(), 8, p.v(ins.rd));
        case Op::LDP: {
            const std::uint64_t a = addr();
            std::uint64_t v1 = 0, v2 = 0;
            if (!p.load(a, 8, v1) || !p.load(a + 8, 8, v2)) return false;
            p.set_x(ins.rd, v1);
            p.set_x(ins.ra, v2);
            return true;
        }
        case Op::STP: {
            const std::uint64_t a = addr();
            return p.store(a, 8, p.x(ins.rd)) && p.store(a + 8, 8, p.x(ins.ra));
        }
        case Op::LDM:
        case Op::STM: {
            const std::uint64_t a = p.x(ins.rn) & mask;
            unsigned n = 0;
            for (unsigned r = 0; r < 15; ++r) {
                if (!(ins.regmask & (1u << r))) continue;
                if (op == Op::LDM) {
                    std::uint64_t val = 0;
                    if (!p.load(a + 4 * n, 4, val)) return false;
                    p.set_x(r, val);
                } else if (!p.store(a + 4 * n, 4, p.x(r))) {
                    return false;
                }
                ++n;
            }
            if (ins.wb) p.set_x(ins.rn, (p.x(ins.rn) + 4 * n) & mask);
            return true;
        }
        case Op::LDREX: {
            std::uint64_t val = 0;
            if (!p.load_excl(p.x(ins.rn) & mask, wbytes, val)) return false;
            p.set_x(ins.rd, val);
            return true;
        }
        case Op::STREX: {
            std::uint64_t phys = 0;
            if (!p.resolve(p.x(ins.rn) & mask, wbytes, phys)) return false;
            const bool held = p.claim(phys);
            if (held) p.store_excl(phys, wbytes, p.x(ins.rm));
            p.set_x(ins.rd, held ? 0 : 1);
            return true;
        }
        default: return true;
    }
}

} // namespace serep::isa
