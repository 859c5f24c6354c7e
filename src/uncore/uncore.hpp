// Uncore fault injection — cache-tag, cache-data, and bus fault spaces.
//
// The paper's fault model stops at architectural state (GPR/FP registers and
// backing memory). Cho et al. and Khoshavi et al. (PAPERS.md) show that the
// uncore — caches and the core<->memory interconnect — dominates modern SDC
// rates, and that *where the corrupted line lands* (clean vs dirty, evicted
// vs read back) decides whether a strike is ever observed. This subsystem
// models exactly that, on top of the tag-only sim::Cache and the existing
// data-access funnels, without adding data storage to the cache model:
//
// Cache strikes address a cache *cell* — (level, set, way), with
// FaultTarget::phys carrying set * ways + way — and hit whatever line is
// resident there at the injection instant, exactly like a particle strike
// on the SRAM array. An empty cell masks the strike outright.
//
//   cache-data  The struck line's cached copy differs from backing memory
//               until the line leaves the cache. Since every read of a
//               resident line is served by the cache, "the cached copy" IS
//               the globally visible value during residency — so injection
//               flips the byte in backing memory while the model watches the
//               line. Clean eviction drops the corruption (the flip is
//               undone — `uncore.masked_by_eviction`); a store to the line
//               marks it dirty, committing the corruption as a writeback
//               (`uncore.writeback_committed`). A line still resident at
//               run end keeps its corrupted value (it would be read from
//               cache). FaultTarget::bit indexes the struck bit within the
//               64-byte line (0..511). An empty struck cell masks the
//               strike outright (`uncore.masked_no_line`).
//
//   cache-tag   One tag bit of the struck cell flips, so
//               the cache silently believes it holds the *alias* line
//               (struck line with one index-adjacent address bit flipped —
//               tag bits sit above the set-index bits, so the way stays in
//               the same set). Accesses to the alias line now hit and read
//               the victim's data: modeled by saving the alias line's 64
//               bytes and overlaying them with the victim's bytes while the
//               alias line is watched. Accesses to the original line miss
//               and refetch intact backing memory. A clean eviction of the
//               aliased way restores the saved bytes (masked); a store
//               through the aliased tag writes back to the *wrong address*
//               — permanent corruption. Tag bits whose flip would address
//               past the end of physical memory are masked at injection
//               (`uncore.masked_out_of_range`; an empty struck cell counts
//               as `uncore.masked_no_line`).
//
//   bus         Exactly one in-flight transfer is corrupted: the first data
//               transaction the struck core issues at or after the
//               injection instant has one transfer bit flipped. For a load
//               the flip is applied to the transferred byte just before the
//               bytes move and undone right after (the memory cell itself
//               was never wrong); for a store the flip is applied just
//               after the bytes land (the written value was corrupted in
//               flight). A run that ends before the core issues another
//               transaction masks the fault.
//
// Eviction is observed by probing the target cache at every subsequent data
// access (hook events are bit-identical across all three engines, so the
// observation points are too). An eviction caused by an instruction fetch is
// therefore charged at the *next data access* — and an access to the watched
// line that misses (resident_before == false) proves such an eviction
// already happened, so it settles the watch before the bytes move.
//
// Dead on arrival: a strike on an empty cell (`uncore.masked_no_line`) or a
// tag flip whose alias falls outside physical memory
// (`uncore.masked_out_of_range`) changes no machine state, and inject()
// says so by returning false. orch::BatchRunner then closes the record at
// injection instead of simulating to program end: the machine is
// bit-for-bit the golden machine at the strike instant and the engines are
// deterministic, so its continuation IS the golden run — outcome Vanished,
// retired = the golden total. That is exact, not pruning: the record
// carries no `inferred` provenance, every output byte is what the full
// simulation would write, and the prune+uncore rejection does not apply.
// Such a strike costs one checkpoint restore plus the fast-forward to its
// instant.
//
// Settled: a live strike's hook settles once it has nothing left to do — the
// watched line was evicted or written back, or the bus one-shot was spent
// and its flip or restore applied (UncoreHook::settled()). From then on its
// callbacks change nothing and all of the fault's state is in the machine,
// so the same exact argument applies at every later checkpoint rung: the
// batch runner detaches the hook there and closes the run at the first rung
// where the machine is bit-for-bit the golden one
// (orch::CheckpointLadder::run_to_matching_rung). An unsettled hook is never
// compared: an armed bus one-shot leaves the machine golden until its
// transfer, so a comparison would close a run whose corruption is still to
// come. Stopping at a rung settles a pending bus flip at the run boundary
// rather than at the next data access; nothing reads the byte in between,
// since every engine settles before a data access moves bytes and guest
// data addresses never map into text.
//
// Determinism: injection and every subsequent model decision depend only on
// (machine state, hook event stream), both of which are bit-identical across
// engines, shard layouts, and hosts — uncore campaigns inherit the full
// byte-identity contract. Pruning cannot reason about these kinds, so a
// pruned batch refuses them (orch::BatchRunner::add).
#pragma once

#include <cstdint>
#include <memory>

#include "core/fault.hpp"
#include "sim/machine.hpp"

namespace serep::uncore {

/// Cache level encoding used in FaultTarget::reg for the cache kinds.
inline constexpr unsigned kLevelL1D = 0; ///< per-core L1D of FaultTarget::core
inline constexpr unsigned kLevelL2 = 1;  ///< shared L2 (core = 0)
inline constexpr unsigned kLevelCount = 2;

/// Human name of a cache level ("L1D" / "L2") — report rows use it.
const char* level_name(unsigned level) noexcept;

/// Number of (set, way) cells at a cache level. The cache-kind fault space
/// is enumerated over the cache's own cells — FaultTarget::phys holds the
/// struck cell id (set * ways + way) — and a strike lands on whatever line
/// is resident in that cell at the injection instant (empty cell = masked).
/// Striking cells, not addresses, is what makes the space meaningful: a
/// random physical address almost never has its line resident, while every
/// cell of a warm cache holds someone's line.
unsigned cell_count(unsigned level) noexcept;

/// Number of flippable tag bits for a cache level on a machine with
/// `phys_size` bytes of physical memory: tag bit b corresponds to physical
/// address bit (line_shift + set_bits + b), so only bits below the top of
/// physical memory can produce an in-range alias. At least 1 (the fault
/// enumeration needs a non-empty draw range; an out-of-range alias is
/// masked at injection).
unsigned tag_bit_count(unsigned level, std::uint64_t phys_size) noexcept;

/// Perform an uncore injection on the fault-run machine `m`: mutate machine
/// state as the kind dictates and, when the fault stays live, arm a
/// sim::UncoreHook on `m` that tracks residency/dirtiness until it settles
/// or the run ends, and return true. Faults that are dead on arrival (empty
/// struck cell, tag alias out of range) change nothing — no memory byte, tag
/// or hook — and return false. `t.kind` must be one of the uncore kinds.
bool inject(sim::Machine& m, const core::FaultTarget& t);

} // namespace serep::uncore
