// Golden-run checkpoint ladder: cheap single-fault runs.
//
// The legacy campaign loop made injection runs affordable by sorting faults
// and advancing one base machine per worker monotonically — which ties the
// fault-to-worker assignment to the fast-forward state and rules out work
// stealing. The ladder decouples them: during the golden execution we keep
// snapshots of the machine at a retired-instruction stride, and every
// injection run clones the deepest snapshot at or before its strike instant,
// replaying at most one stride of instructions instead of the whole prefix.
// Snapshot positions depend only on the deterministic instruction stream, so
// outcomes are bit-identical for any stride (including a disabled ladder,
// which degenerates to from-reset replay).
//
// A run need not start from a fresh clone. rewind_nearest() moves a machine
// that already exists — a clone of this ladder's rungs, run, struck or
// rewound any number of times since — to the rung clone_nearest() would
// pick, copying only the pages it and the rung wrote since the base
// (sim::rewind_machine). The result equals the clone in every field, so
// the batch runner keeps one resident machine per pool thread and rewinds
// it from fault run to fault run.
//
// Rungs are also convergence witnesses. A fault run paused at a rung instant
// after its strike can ask matches_rung() whether its machine is bit-for-bit
// the golden machine there; if so, its continuation is the golden run and
// the run can be closed with the golden outcome without simulating the rest.
// The answer is exact, so it never changes a record. run_to_matching_rung()
// is that walk, for uncore fault runs too once their hook has settled.
//
// Rung representation: the base rung is a full Machine copy; every deeper
// rung is a dirty-page delta snapshot against the base (sim/snapshot.hpp)
// — full non-memory state plus only the memory pages that differ — so a
// ladder costs roughly one machine plus the working set instead of
// max_checkpoints machines.
//
// Schedule: the golden run pauses at every stride boundary and offers its
// machine as the next rung, starting at LadderOptions::stride. Whenever the
// rung count (or the byte budget) would be exceeded, the ladder drops every
// other rung and doubles the stride, and the golden run pauses that much
// coarser from then on. So one golden pass yields at most `max_checkpoints`
// rungs whatever the run length, each at a multiple of the final stride.
// Unless the byte budget thins it further, a run longer than
// max_checkpoints first strides keeps at least half that many. Every
// snapshot the pass takes is offered as a rung.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/machine.hpp"
#include "sim/snapshot.hpp"

namespace serep::orch {

struct LadderOptions {
    bool enabled = true;
    /// Retired instructions to the first rung, and between rungs until
    /// thinning doubles it. Must be > 0 while the ladder is enabled.
    std::uint64_t stride = 512;
    std::size_t max_checkpoints = 36;  ///< rung budget (thinning halves to fit)
    /// Cap on live snapshot bytes. BatchRunner treats this as a batch-wide
    /// cap: it divides it across the ladders concurrently in flight.
    std::size_t memory_budget_bytes = std::size_t{1} << 30;
};

class CheckpointLadder {
public:
    /// Materialize the deepest snapshot with total_retired() <= at (the base
    /// rung at worst) as a runnable clone.
    sim::Machine clone_nearest(std::uint64_t at) const;
    /// Move `m` in place to the rung clone_nearest(at) would clone, so that
    /// it equals that clone in every field (sim::rewind_machine). `m` must
    /// be a clone of this ladder's rungs (run, struck or rewound any which
    /// way since): a resident fault machine then pays for the pages it and
    /// the rung wrote, not for all of guest memory. Counted as a restore,
    /// like a clone.
    void rewind_nearest(sim::Machine& m, std::uint64_t at) const;
    /// Retired count of the rung clone_nearest(at) would start from.
    std::uint64_t nearest_retired(std::uint64_t at) const noexcept;

    static constexpr std::uint64_t kNoRung = ~std::uint64_t{0};
    /// Retired count of the first rung above the base strictly after `at`,
    /// or kNoRung.
    std::uint64_t next_rung_after(std::uint64_t at) const noexcept;
    /// Is `m` bit-for-bit the golden machine at one of this ladder's rungs
    /// (the one at m.total_retired())? False when no rung sits there. `m`
    /// must be a clone of this ladder's rungs, run forward; see
    /// sim::matches_snapshot for what is compared.
    bool matches_rung(const sim::Machine& m) const;
    /// Run a struck fault run (a clone of this ladder's rungs, paused at its
    /// strike instant) rung to rung, and stop at the first later rung it
    /// matches: true means its continuation is the golden run. An uncore
    /// hook that has not settled holds fault state outside the machine (an
    /// armed bus one-shot, a watched line), so such a run is not compared;
    /// at the first rung where its hook has settled the hook is detached,
    /// which is observable-neutral, and the machine is compared from then
    /// on. False — `run` paused at the last rung, or stopped — when no
    /// rung matches.
    bool run_to_matching_rung(sim::Machine& run) const;

    /// The base rung (pre-run machine); valid while !empty(). Fault-list
    /// generation reads machine geometry from it.
    const sim::Machine& base() const noexcept { return *base_; }

    /// Drop every rung, base included. Called once no in-flight injection
    /// run references the ladder; a later batch must reset_base() first
    /// (the base is a deterministic rebuild — npb::make_machine — so it is
    /// not worth retaining one Machine copy per cached scenario).
    void release_all();
    bool empty() const noexcept { return !base_.has_value(); }
    /// Reinstall a freshly built (pre-run) machine as the base rung (its
    /// dirty-page bitmap cleared, as when the ladder was built).
    void reset_base(sim::Machine m);

    /// The current rung interval: the first stride, doubled at each
    /// thinning (0 for a disabled ladder).
    std::uint64_t stride() const noexcept { return stride_; }
    /// Rung count above the base (0 when released).
    std::size_t checkpoints() const noexcept { return rungs_.size(); }
    /// Host bytes held by the base and the rungs: what the byte budget
    /// bounds.
    std::size_t footprint_bytes() const noexcept;
    /// High-water mark of footprint_bytes() across the ladder's lifetime
    /// (the number the delta-snapshot memory claim is gated on).
    std::size_t peak_footprint_bytes() const noexcept { return peak_; }

private:
    friend CheckpointLadder run_golden_with_ladder(sim::Machine& m,
                                                   const LadderOptions& opts);
    /// Captures `m`'s current (pre-run) state as the base rung and clears
    /// the dirty-page bitmaps of `m` and of the base copy, so subsequent
    /// offers, and every clone of any rung, see exactly the pages written
    /// since this base. Refuses an enabled ladder with a zero stride.
    CheckpointLadder(sim::Machine& m, const LadderOptions& opts);

    /// Golden-run callback: consider a paused machine for the next rung.
    /// Non-const only to let make_machine_delta copy the machine's shell
    /// without duplicating guest memory; `m` is unchanged on return.
    void offer(sim::Machine& m);
    /// Retired-instruction count at which the next rung is due (~0 when the
    /// ladder is disabled). Tracks thinning: the golden driver re-reads this
    /// each pause so it never pauses finer than the current stride.
    std::uint64_t next_boundary() const noexcept;
    /// Offer `m` at every boundary until it ends: the golden pass.
    void run_offering(sim::Machine& m);

    /// The deepest rung with total_retired() <= at; null for the base.
    const sim::MachineDelta* nearest(std::uint64_t at) const noexcept;
    std::uint64_t last_retired() const noexcept;

    std::optional<sim::Machine> base_;
    std::vector<sim::MachineDelta> rungs_; ///< ascending
    std::uint64_t stride_;
    std::size_t max_rungs_;
    std::size_t budget_bytes_;
    std::size_t peak_ = 0;
};

/// Run a freshly booted machine to completion (phase 1), building the ladder
/// along the way; the golden program executes once.
/// Returns the ladder; `m` finishes in its terminal state and is what
/// capture_golden() should consume.
CheckpointLadder run_golden_with_ladder(sim::Machine& m, const LadderOptions& opts);

} // namespace serep::orch
