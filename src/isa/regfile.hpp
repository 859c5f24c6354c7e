// Architectural register file — the primary fault-injection target space.
#pragma once

#include <array>
#include <cstdint>

#include "isa/flags.hpp"
#include "isa/profile.hpp"

namespace serep::isa {

/// Integer + FP register state for one core, width-masked per profile.
///
/// Internal slot map:
///  * V7: R0..R12 = 0..12, SP = 13, LR = 14, PC = 15 (PC is a GPR).
///  * V8: X0..X30 = 0..30, SP = 31, PC = 32 (not architecturally addressable).
class RegFile {
public:
    explicit RegFile(Profile p) noexcept
        : p_(p), info_(profile_info(p)),
          mask_(info_.width_bits >= 64 ? ~std::uint64_t{0}
                                       : ((std::uint64_t{1} << info_.width_bits) - 1)) {}

    Profile profile() const noexcept { return p_; }
    unsigned width_bits() const noexcept { return info_.width_bits; }
    std::uint64_t width_mask() const noexcept { return mask_; }

    std::uint64_t x(unsigned i) const noexcept { return x_[i]; }
    void set_x(unsigned i, std::uint64_t v) noexcept { x_[i] = v & mask_; }

    std::uint64_t pc() const noexcept { return x_[info_.pc_index]; }
    void set_pc(std::uint64_t v) noexcept { x_[info_.pc_index] = v & mask_; }
    std::uint64_t sp() const noexcept { return x_[info_.sp_index]; }
    void set_sp(std::uint64_t v) noexcept { x_[info_.sp_index] = v & mask_; }
    std::uint64_t lr() const noexcept { return x_[info_.lr_index]; }
    void set_lr(std::uint64_t v) noexcept { x_[info_.lr_index] = v & mask_; }

    std::uint64_t v_bits(unsigned i) const noexcept { return v_[i]; }
    void set_v_bits(unsigned i, std::uint64_t b) noexcept { v_[i] = b; }

    Flags& flags() noexcept { return flags_; }
    const Flags& flags() const noexcept { return flags_; }

    /// Number of registers the fault injector may target: the whole
    /// architectural integer file — 16 on V7 (PC/SP/LR included),
    /// 32 on V8 (X0..X30 + SP; PC is not in the file).
    unsigned injectable_gpr_count() const noexcept { return info_.gpr_count; }

    /// Flip one bit of an injectable GPR (bit < width_bits).
    void flip_gpr_bit(unsigned reg, unsigned bit) noexcept {
        x_[reg] = (x_[reg] ^ (std::uint64_t{1} << bit)) & mask_;
    }
    /// Flip one bit of an FP register (V8 only).
    void flip_fp_bit(unsigned reg, unsigned bit) noexcept {
        v_[reg] ^= std::uint64_t{1} << bit;
    }

    /// Full architectural-state comparison: every integer and FP register
    /// and the flags. The FP file is compared on every profile (a profile
    /// without FP registers never writes it, so there it differs only if a
    /// fault struck it).
    bool same_arch_state(const RegFile& o) const noexcept {
        return x_ == o.x_ && v_ == o.v_ && flags_ == o.flags_;
    }

private:
    Profile p_;
    ProfileInfo info_;
    std::uint64_t mask_;
    std::array<std::uint64_t, 33> x_{};
    std::array<std::uint64_t, 32> v_{};
    Flags flags_{};
};

} // namespace serep::isa
