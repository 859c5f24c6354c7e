// Fault model and outcome classification (the paper's §3.2).
//
// Single-bit upsets: one bit-flip per run at a uniformly random
// (instruction index, core, register, bit) point within the application
// lifespan (OS boot excluded). Outcomes follow Cho et al.:
//   Vanished — no fault traces at all
//   ONA      — output/result memory intact, architectural state differs
//   OMM      — application terminated normally but output/result memory differ
//   UT       — abnormal termination with an error indication
//   Hang     — no termination (watchdog) or deadlock
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace serep::core {

enum class Outcome : std::uint8_t { Vanished, ONA, OMM, UT, Hang };
inline constexpr unsigned kOutcomeCount = 5;
const char* outcome_name(Outcome o) noexcept;
/// Inverse of outcome_name; returns false on an unknown name.
bool outcome_from_name(const std::string& name, Outcome& out) noexcept;

struct FaultTarget {
    /// GPR/FP/MEM are the architectural spaces; CacheTag/CacheData/Bus are
    /// the uncore spaces (src/uncore/). The uncore kinds reuse the existing
    /// fields so the database record schema is unchanged:
    ///  * CacheTag/CacheData — `reg` is the cache level (0 = L1D of `core`,
    ///    1 = the shared L2, with core = 0), `phys` the struck physical
    ///    byte; `bit` is the flipped bit within the byte (CacheData) or the
    ///    flipped tag-bit index (CacheTag).
    ///  * Bus — `core` is the struck core, `bit` the flipped bit of the
    ///    next in-flight transfer on that core's port; reg/phys unused.
    enum class Kind : std::uint8_t { GPR, FP, MEM, CacheTag, CacheData, Bus };
    Kind kind = Kind::GPR;
    unsigned core = 0;   ///< struck core (GPR/FP/Bus)
    unsigned reg = 0;    ///< register index (GPR/FP) or cache level (uncore)
    unsigned bit = 0;    ///< flipped bit
    std::uint64_t phys = 0; ///< physical byte (MEM / cache kinds)
};

/// "gpr" / "fp" / "mem" / "cache-tag" / "cache-data" / "bus" — the names the
/// CSV/JSON databases use.
const char* fault_kind_name(FaultTarget::Kind k) noexcept;
bool fault_kind_from_name(const std::string& name, FaultTarget::Kind& out) noexcept;

/// The kinds src/uncore/ injects (cache-tag / cache-data / bus). Pruning's
/// register-diff def-use walk cannot reason about them and must decline.
bool is_uncore_kind(FaultTarget::Kind k) noexcept;
/// Does a record of this kind carry an architectural register index in
/// `reg`? (The uncore kinds reuse `reg` as a cache level.)
bool fault_kind_has_reg(FaultTarget::Kind k) noexcept;

struct Fault {
    std::uint64_t at_retired = 0; ///< global instruction index of the strike
    FaultTarget target;
};

/// Reference captured from the faultless run (phase 1 of the workflow).
/// The region hashes (sim::Memory::hash_range) are compared in-process
/// only; no database or file carries them.
struct GoldenRef {
    std::uint64_t total_retired = 0;
    std::uint64_t ticks = 0;
    std::uint64_t app_start = 0;
    int exit_code = 0;
    std::vector<std::string> outputs;     ///< per process
    std::vector<std::uint64_t> data_hash; ///< per-process static data region
    std::uint64_t kern_hash = 0;          ///< kernel region (TCBs, channels)
    std::uint64_t arch_hash = 0;          ///< all register files
};

/// Hash of the architectural register state of every core.
std::uint64_t arch_state_hash(const sim::Machine& m);
/// Hash of one process's static data region (where results live).
std::uint64_t static_data_hash(const sim::Machine& m, unsigned proc);
std::uint64_t kernel_region_hash(const sim::Machine& m);

/// Capture the golden reference from a finished faultless run.
GoldenRef capture_golden(const sim::Machine& m);

/// Classify a finished faulty run against the golden reference.
/// `hit_watchdog` marks runs stopped by the instruction budget.
Outcome classify(const sim::Machine& m, const GoldenRef& golden, bool hit_watchdog);

/// Inject `t` into `m`. Returns whether the strike is live: false only for
/// an uncore strike that is dead on arrival (see uncore::inject) and so left
/// `m` untouched. gpr/fp/mem strikes always return true.
bool apply_fault(sim::Machine& m, const FaultTarget& t);

} // namespace serep::core
