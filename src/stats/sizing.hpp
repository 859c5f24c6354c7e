// Confidence-driven campaign sizing (layer 3 of src/stats/): stop injecting
// when the statistics are good enough.
//
// The paper fixes 8,000 injections per scenario and quotes a 1% error
// margin; most scenarios converge far earlier. The sequential sizer turns
// the margin into the contract: a campaign keeps drawing fault batches until
// every tracked outcome rate's Wilson CI half-width is at or below
// StatsOptions::target_half_width, then stops — big campaigns end as early
// as statistics allow instead of burning a fixed budget.
//
// Reproducibility is preserved by construction:
//  * the job's full fault list is the ordinary deterministic one
//    (core::make_fault_list from cfg.n_faults + seed) — the sizer never
//    invents faults, it draws a *prefix* of the PR-2 stable content-id
//    order (orch::fault_id ascending, list ordinal as tie-break);
//  * each fault's outcome depends only on the fault and the golden run, so
//    every record the sizer emits is bit-identical to the record the fixed
//    fixed-count campaign produces at the same ordinal (gated in
//    tests/stats_test.cpp);
//  * batches are injected through BatchRunner per-job ordinal filters on a
//    runner with retain_ladders, so rounds reuse one golden run and one
//    checkpoint ladder per scenario.
#pragma once

#include <cstdint>
#include <vector>

#include "orch/shard.hpp"

namespace serep::stats {

struct StatsOptions {
    /// Stop once every outcome rate's CI half-width (in probability units,
    /// e.g. 0.05 == +/-5 percentage points) is <= this. Must be positive.
    double target_half_width = 0.05;
    double confidence = 0.95;
    /// Faults drawn per round and per job after the opening round. The
    /// opening round draws at least min_trials_for_half_width() so the rule
    /// is not evaluated on hopelessly small samples.
    std::uint32_t batch_faults = 50;
    /// Hard floor on injections per job before the rule may stop a job.
    std::uint32_t min_faults = 20;
};

struct AdaptiveJobResult {
    /// Injected records in ascending full-list ordinal order (a strict
    /// subset of the fixed-count campaign's records); counts rebuilt.
    core::CampaignResult result;
    /// Full-list ordinal of each record of `result`.
    std::vector<std::uint32_t> ordinals;
    std::uint32_t fault_space = 0; ///< the fixed campaign's fault count
    unsigned rounds = 0;           ///< injection rounds actually run
    bool converged = false;        ///< target met before the space ran out
    double max_half_width = 1.0;   ///< widest tracked CI at stop time
};

/// The draw order of the sequential rule: full-list ordinals sorted by
/// stable fault content id (ties by ordinal). Depends only on fault content,
/// never on shard count or list position — the same id a shard cut splits
/// a job by (orch::ShardCut).
std::vector<std::uint32_t> content_id_order(const std::vector<core::Fault>& faults);

/// Run every job under the sequential stopping rule (opts.retain_ladders is
/// forced on for the runner's lifetime); results come back in job order.
std::vector<AdaptiveJobResult> run_adaptive_campaign(
    const std::vector<orch::ShardJobSpec>& jobs, orch::BatchOptions opts,
    const StatsOptions& stats);

} // namespace serep::stats
