// Decode-once instruction cache for the execution engine.
//
// A campaign re-executes the same guest image for every one of its fault
// runs; the interpreter used to re-inspect the structural instruction word
// (opcode switch, OpInfo lookups, V7 predication tests) on every step of
// every run. The ExecCache performs that work exactly once per image: each
// instruction becomes a DecodedInstr holding a pre-resolved handler pointer
// (sim/exec_ops.cpp) plus the precomputed per-instruction facts the hot loop
// needs. Caches are immutable and shared — one per image process-wide, so
// every Machine, every clone a checkpoint ladder materializes, and every
// shard worker reuses the same decode.
//
// Correctness under text corruption: guest code lives both in the image
// (structural) and in the Memory text mirror (serialized records, see
// isa/encode.hpp). All mutations of the mirror — memory-fault bit flips,
// delta-snapshot page restores, payload swaps — funnel through Memory's
// code-generation counter; the Machine overlays freshly decoded pages on
// top of the shared cache whenever the generation moves (copy-on-write at
// page granularity, so a fault run only ever re-decodes the pages its own
// fault dirtied).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/encode.hpp"
#include "isa/instr.hpp"
#include "kasm/image.hpp"

namespace serep::sim {

class Machine;
struct StepCtx;

/// Per-op execution handler (defined in sim/exec_ops.cpp).
using ExecHandler = void (*)(Machine&, StepCtx&);

/// Counter-bookkeeping bits precomputed from isa::OpInfo.
inline constexpr std::uint8_t kDiBranch = 1u << 0;
inline constexpr std::uint8_t kDiCall = 1u << 1;

struct DecodedInstr {
    isa::Instr ins;          ///< operands (also what the legacy switch executes)
    ExecHandler fn = nullptr;
    std::uint8_t cflags = 0;   ///< kDiBranch / kDiCall
    bool check_cond = false;   ///< V7: predicate must be evaluated before fn
    bool user_ok = false;      ///< fetch from user mode is legal at this pc
};

class ExecCache {
public:
    /// The process-wide decode-once entry point: returns the cache for
    /// `img`, building it on first use. Thread-safe; the returned cache is
    /// immutable and outlives every Machine holding it.
    static std::shared_ptr<const ExecCache> for_image(
        const std::shared_ptr<const kasm::Image>& img);

    std::size_t size() const noexcept { return instrs_.size(); }
    const DecodedInstr& operator[](std::size_t i) const noexcept {
        return instrs_[i];
    }

    /// Superblock run length for the trace engine: the number of consecutive
    /// records starting at `i` that are straight-line safe — every one of
    /// them, when it retires, falls through to pc+4 without touching the
    /// interpreter's branch state. 0 means record `i` itself is a trace
    /// ender (branch / syscall / privileged-state op / V7 PC-writer) and
    /// must go through single-step dispatch. Runs never cross a text-mirror
    /// page boundary, so one overlay lookup validates a whole trace.
    std::uint32_t run_len(std::size_t i) const noexcept { return runs_[i]; }

    /// True when `ins` may not execute inside a superblock: every control
    /// transfer, every op that can redirect or privilege-switch the core
    /// (SVC/SYSRD/SYSWR/ERET/WFI/HLT/UDF), and — V7 only — any instruction
    /// that can write R15 through write_gpr (rd/ra operand 15, or LDM/STM
    /// writeback with rn == 15), which is an implicit jump.
    static bool trace_ender(const isa::Instr& ins, isa::Profile p) noexcept;

    /// Decode one DecodedInstr from an already-validated structural word.
    static DecodedInstr make_decoded(const isa::Instr& ins, isa::Profile p,
                                     bool user_ok) noexcept;

    /// Decode `count` consecutive text-mirror records starting at `bytes`
    /// (the Machine's page-granular overlay path). `first_addr` is the code
    /// byte address of the first record; `kernel_text_end` gates user_ok.
    static void decode_records(const std::uint8_t* bytes, std::size_t count,
                               isa::Profile p, std::uint64_t first_addr,
                               std::uint64_t kernel_text_end,
                               DecodedInstr* out) noexcept;

private:
    explicit ExecCache(const kasm::Image& img);

    std::vector<DecodedInstr> instrs_;
    std::vector<std::uint16_t> runs_; ///< superblock run lengths (see run_len)
};

} // namespace serep::sim
