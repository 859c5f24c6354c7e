// Integer data-op semantics of the µISA, written once.
//
// eval_int_data() is the single transcription of every integer ALU, flag and
// conditional-select op (MOVI..CSET), with the ALU primitives it is built
// from. Two clients share it:
//  * the trace engine's handlers (sim/exec_ops.cpp) evaluate it under
//    the core's live registers and apply the effect;
//  * the prune walker (prune/prune.cpp) evaluates it under golden and faulty
//    register readers to compute a fault's exact XOR diff.
// Sharing makes drift between the engines and the walker impossible. The
// legacy switch interpreter (Machine::step_switch) deliberately keeps its own
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

/// What one integer data op writes: rd, ra (UMULL/SMULL high half) and the
/// NZCV flags. Unwritten fields keep their defaults.
struct DataEffect {
    bool wr_rd = false, wr_ra = false, wr_flags = false;
    std::uint64_t rd = 0, ra = 0;
    Flags flags;
};

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

} // namespace serep::isa
