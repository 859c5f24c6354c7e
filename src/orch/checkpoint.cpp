#include "orch/checkpoint.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace serep::orch {

namespace {
/// Keep rungs r2, r4, ... of r1..rk (equivalent to keeping every other rung
/// of the base-rooted ladder [base, r1, r2, ...]).
void drop_every_other(std::vector<sim::MachineDelta>& rungs) {
    std::vector<sim::MachineDelta> kept;
    kept.reserve(rungs.size() / 2);
    for (std::size_t i = 1; i < rungs.size(); i += 2)
        kept.push_back(std::move(rungs[i]));
    rungs = std::move(kept);
}
} // namespace

CheckpointLadder::CheckpointLadder(sim::Machine& m, const LadderOptions& opts)
    : base_(m), stride_(opts.enabled ? opts.stride : 0),
      max_rungs_(std::max<std::size_t>(1, opts.max_checkpoints)),
      budget_bytes_(opts.memory_budget_bytes) {
    util::check(!opts.enabled || opts.stride > 0,
                "checkpoint ladder: LadderOptions::stride is 0 with the ladder "
                "enabled (the first rung interval must be > 0)");
    // From here on, m's dirty set is exactly "written since the base rung" —
    // what make_machine_delta() diffs against the base. The base's own set
    // is cleared too, so a clone of it tracks the same thing.
    m.mem().clear_dirty();
    base_->mem().clear_dirty();
    peak_ = footprint_bytes();
}

std::uint64_t CheckpointLadder::last_retired() const noexcept {
    if (!rungs_.empty()) return rungs_.back().retired();
    return base_ ? base_->total_retired() : 0;
}

void CheckpointLadder::offer(sim::Machine& m) {
    if (stride_ == 0 || !base_) return;
    if (m.total_retired() < last_retired() + stride_) return;
    rungs_.push_back(sim::make_machine_delta(m, *base_));
    if (telemetry::enabled()) {
        static const telemetry::MetricId kRungs =
            telemetry::counter_id("checkpoint.rungs_built");
        static const telemetry::MetricId kBytes =
            telemetry::counter_id("checkpoint.rung_bytes");
        telemetry::count(kRungs);
        telemetry::count(kBytes, rungs_.back().footprint_bytes());
    }
    // Delta rungs have data-dependent sizes, so the byte budget is enforced
    // here rather than precomputed. Over budget: keep every other rung,
    // double the effective stride.
    while (checkpoints() > max_rungs_ ||
           (checkpoints() > 1 && footprint_bytes() > budget_bytes_)) {
        drop_every_other(rungs_);
        stride_ *= 2;
    }
    peak_ = std::max(peak_, footprint_bytes());
}

const sim::MachineDelta* CheckpointLadder::nearest(std::uint64_t at) const noexcept {
    // Rungs are ascending.
    for (std::size_t i = rungs_.size(); i-- > 0;)
        if (rungs_[i].retired() <= at) return &rungs_[i];
    return nullptr;
}

std::uint64_t CheckpointLadder::nearest_retired(std::uint64_t at) const noexcept {
    if (const sim::MachineDelta* d = nearest(at)) return d->retired();
    return base_ ? base_->total_retired() : 0;
}

sim::Machine CheckpointLadder::clone_nearest(std::uint64_t at) const {
    if (telemetry::enabled()) {
        static const telemetry::MetricId kRestores =
            telemetry::counter_id("checkpoint.restores");
        telemetry::count(kRestores);
    }
    const sim::MachineDelta* d = nearest(at);
    return d ? sim::restore_machine_delta(*d, *base_) : *base_;
}

void CheckpointLadder::rewind_nearest(sim::Machine& m, std::uint64_t at) const {
    const sim::MachineDelta* d = nearest(at);
    const std::size_t pages = d ? sim::rewind_machine(m, *d, *base_)
                                : sim::rewind_machine(m, *base_);
    if (telemetry::enabled()) {
        static const telemetry::MetricId kRestores =
            telemetry::counter_id("checkpoint.restores");
        static const telemetry::MetricId kRewinds =
            telemetry::counter_id("checkpoint.rewinds");
        static const telemetry::MetricId kPages =
            telemetry::counter_id("checkpoint.rewind_pages");
        telemetry::count(kRestores);
        telemetry::count(kRewinds);
        telemetry::count(kPages, pages);
    }
}

std::uint64_t CheckpointLadder::next_rung_after(std::uint64_t at) const noexcept {
    for (const sim::MachineDelta& d : rungs_)
        if (d.retired() > at) return d.retired();
    return kNoRung;
}

bool CheckpointLadder::matches_rung(const sim::Machine& m) const {
    const std::uint64_t at = m.total_retired();
    for (const sim::MachineDelta& d : rungs_)
        if (d.retired() == at) return sim::matches_snapshot(m, d, *base_);
    return false;
}

bool CheckpointLadder::run_to_matching_rung(sim::Machine& run) const {
    for (std::uint64_t r = next_rung_after(run.total_retired()); r != kNoRung;
         r = next_rung_after(r)) {
        run.run_until(r);
        if (run.status() != sim::RunStatus::Running) return false;
        if (const sim::UncoreHook* hook = run.uncore_hook()) {
            if (!hook->settled()) continue;
            run.set_uncore_hook(nullptr);
        }
        if (matches_rung(run)) return true;
    }
    return false;
}

std::uint64_t CheckpointLadder::next_boundary() const noexcept {
    if (stride_ == 0) return ~std::uint64_t{0};
    return last_retired() + stride_;
}

void CheckpointLadder::release_all() {
    base_.reset();
    rungs_.clear();
}

void CheckpointLadder::reset_base(sim::Machine m) {
    rungs_.clear();
    base_.emplace(std::move(m));
    base_->mem().clear_dirty();
}

std::size_t CheckpointLadder::footprint_bytes() const noexcept {
    std::size_t total = base_ ? sim::machine_footprint_bytes(*base_) : 0;
    for (const auto& d : rungs_) total += d.footprint_bytes();
    return total;
}

void CheckpointLadder::run_offering(sim::Machine& m) {
    // Drive pauses off the ladder's *current* stride (not the initial one):
    // after thinning doubles the stride, the golden run pauses coarser too,
    // so a fine starting stride costs O(max_checkpoints * log) pauses, not
    // O(run_length / initial_stride).
    //
    // Rung alignment holds under both engines: run_until(boundary) stops at
    // exactly `boundary` retired instructions — the trace engine clips its
    // superblock budget to the instructions left before stop_at (a rung
    // never lands mid-trace) — so rung snapshots are engine-independent
    // states.
    while (m.status() == sim::RunStatus::Running) {
        m.run_until(next_boundary());
        if (m.status() == sim::RunStatus::Running) offer(m);
    }
}

CheckpointLadder run_golden_with_ladder(sim::Machine& m, const LadderOptions& opts) {
    CheckpointLadder ladder(m, opts);
    ladder.run_offering(m);
    return ladder;
}

} // namespace serep::orch
