// Snapshot helpers for checkpoint-based campaign fast-forward.
//
// A Machine is value-copyable, so a full snapshot is simply a copy taken
// while the interpreter is paused at a run_until() boundary. Because
// execution is fully deterministic, a copy taken at retired-instruction
// count R and resumed behaves bit-identically to a from-reset execution
// driven past R — the invariant the orchestrator's checkpoint ladder is
// built on (and that tests/property_test.cpp verifies across random
// snapshot points).
//
// Delta snapshots cut the memory cost: guest physical memory dominates a
// Machine copy (megabytes vs a few KB of cores/caches/counters), and
// between two nearby pause points only a small fraction of pages change.
// A MachineDelta therefore stores the full non-memory state (a Machine
// "shell" whose memory payload is dropped) plus only the pages that differ
// from a designated base snapshot, found via the Memory dirty-page bitmap
// and confirmed by content comparison. restore_machine_delta() rebuilds a
// Machine bit-identical to the full copy the delta was made from. The
// checkpoint ladder holds one full copy, its base rung, and stores every
// deeper rung as a delta over it.
//
// The same bitmap makes it cheap to ask the converse question — is a live
// machine bit-for-bit a snapshot? — without materializing the snapshot:
// pages clean in both machines since the base are the base's on both sides,
// so only the union of the two dirty sets needs its bytes compared
// (matches_snapshot()).
//
// And it makes restores cheap for a machine that already exists. A fault
// run writes a handful of pages, so moving a finished run back to a snapshot
// needs only those pages plus the snapshot's own (rewind_machine()), not a
// fresh copy of all guest memory. The contract: the machine descends from
// the snapshot's base under the dirty-bitmap contract — true of every clone
// of a checkpoint ladder's rungs, however far it ran and however it ended
// (panic, deadlock, a watchdog stop, a struck text mirror, an armed uncore
// hook). Afterwards it equals the machine a restore would have built in
// every field, including those matches_snapshot() skips: the dirty bitmap
// and the sticky text set are the snapshot's, not a superset of them; the
// code generation advances as clone_payload_from() advances it, so the
// overlay refresh re-decodes exactly the pages a restore would; the MRU and
// translation filters are the snapshot's; the trace stats are zero and the
// observer and uncore hook are detached.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace serep::sim {

/// Approximate host bytes held by one Machine value copy. Dominated by guest
/// physical memory; used by the orchestrator to budget its checkpoint ladder.
/// Counts the memory payload actually held, so a delta shell costs only the
/// fixed allowance.
std::size_t machine_footprint_bytes(const Machine& m) noexcept;

/// Dirty-page delta of a paused machine against a base snapshot.
struct MachineDelta {
    Machine shell;                    ///< full state, memory payload dropped
    std::vector<std::uint32_t> pages; ///< physical pages differing from base
    std::vector<std::uint8_t> bytes;  ///< pages.size() * kPageSize page images

    std::uint64_t retired() const noexcept { return shell.total_retired(); }
    /// Host bytes this delta holds (page images + index + shell allowance).
    std::size_t footprint_bytes() const noexcept;
};

/// Capture `cur` as a delta against `base`. Exact under the Memory dirty
/// bitmap contract: `cur`'s dirty set must cover every page written since
/// `base` was copied (clear_dirty() on the live machine right after taking
/// the base copy establishes this). `base` must hold its memory payload.
/// `cur` is non-const only to move its payload aside while the shell is
/// copied (so guest memory is never duplicated); it is restored unchanged
/// before returning.
MachineDelta make_machine_delta(Machine& cur, const Machine& base);

/// Rebuild the machine `make_machine_delta` saw, bit-identical: shell state,
/// base memory payload, delta pages applied on top.
Machine restore_machine_delta(const MachineDelta& d, const Machine& base);

/// Move `m` in place to the snapshot: afterwards it equals
/// restore_machine_delta(d, base) — or, for a full snapshot, a copy of
/// `snap` — in every field (the rewind contract above). `m` must descend
/// from the snapshot's base: `base` itself, or for a full snapshot the base
/// `snap` descends from. Copies back only the pages dirty in `m`, listed in
/// `d` or dirty in `snap`, then takes the snapshot's shell; returns the
/// number of pages copied.
std::size_t rewind_machine(Machine& m, const MachineDelta& d, const Machine& base);
std::size_t rewind_machine(Machine& m, const Machine& snap);

/// Is `m` bit-for-bit the snapshot machine in every field that can steer its
/// later execution or its classification (the field list and the exclusions
/// are documented at the definition)? The snapshot is either a full copy
/// (`snap`) or a delta `d` over `base`. When it is, `m`'s continuation is
/// the snapshot's, since every engine is deterministic.
///
/// Exact under the Memory dirty-bitmap contract of make_machine_delta: the
/// dirty sets of `m` and of the snapshot must each cover every page written
/// since one common base copy (the checkpoint ladder's base rung) — true of
/// any machine cloned from that ladder's rungs.
bool matches_snapshot(const Machine& m, const Machine& snap);
bool matches_snapshot(const Machine& m, const MachineDelta& d, const Machine& base);

} // namespace serep::sim
