// Fault-injection campaign runner — the paper's four-phase workflow:
//  1. golden execution (reference capture + checkpoint ladder),
//  2. fault-list generation (seeded uniform random),
//  3. parallel injection runs (a process-wide work-stealing pool standing in
//     for the paper's 5,000-core cluster; each run resumes from the deepest
//     golden-run checkpoint at or before its strike instant — see
//     orch/checkpoint.hpp and orch/batch_runner.hpp),
//  4. merged outcome database (CSV + JSON).
// Results are bit-deterministic for a given seed, independent of the host
// thread count and of the checkpoint stride.
//
// This header holds the campaign's data model: one job's configuration, its
// fault records and their database exports. Campaigns execute through
// orch::BatchRunner, which shares golden runs across jobs and interleaves
// their fault runs on one pool; `serep run` / `serep fleet` drive it from an
// experiment spec (src/exp/).
#pragma once

#include <array>
#include <ostream>
#include <vector>

#include "core/fault.hpp"
#include "npb/npb.hpp"

namespace serep::core {

struct CampaignConfig {
    unsigned n_faults = 150;
    std::uint64_t seed = 0xDAC2018;
    double watchdog_factor = 4.0;   ///< Hang when run exceeds golden x factor
    bool include_fp_regs = false;   ///< add V8 FP registers to the target space
    bool memory_faults = false;     ///< target data memory instead of registers
    /// When set to one of the uncore kinds (CacheTag / CacheData / Bus) the
    /// campaign targets that uncore fault space (src/uncore/) instead of the
    /// architectural ones; GPR is the "not an uncore campaign" sentinel and
    /// leaves include_fp_regs/memory_faults in charge.
    FaultTarget::Kind uncore_kind = FaultTarget::Kind::GPR;
};

struct FaultRecord {
    Fault fault;
    Outcome outcome = Outcome::Vanished;
    std::uint64_t retired = 0; ///< instructions retired by the faulty run
    /// Outcome provenance: false = the fault run was actually simulated;
    /// true = the outcome was inferred by pruning (src/prune/) from the
    /// golden run's diff walk: the fault's corruption never reached a real
    /// use. Reports can gate on this (`serep report --no-inferred`).
    bool inferred = false;
};

struct CampaignResult {
    npb::Scenario scenario;
    GoldenRef golden;
    std::array<std::uint64_t, kOutcomeCount> counts{};
    std::vector<FaultRecord> records;

    std::uint64_t total() const noexcept;
    double pct(Outcome o) const noexcept;
    /// "masking rate": executions with no user-visible error (Vanished+ONA).
    double masked_pct() const noexcept;
    /// Rebuild `counts` from `records` (the phase-4 finisher step; shared by
    /// the batch runner, the shard merger, and the stats sizer).
    void recount() noexcept;
};

/// Generate the fault list (phase 2) — exposed for tests and tools.
std::vector<Fault> make_fault_list(const sim::Machine& golden_machine,
                                   const GoldenRef& golden,
                                   const CampaignConfig& cfg);

/// Append per-fault records as CSV rows (phase 4 database export).
std::string campaign_csv(const CampaignResult& r);

/// One campaign as a compact JSON object (the CSV database's JSON sibling):
/// scenario, golden reference, outcome counts/percentages, per-fault records.
std::string campaign_json(const CampaignResult& r);

/// Append `r` to the merged campaign streams every writer shares: its
/// campaign_csv rows (the header only when `header`) and its campaign_json
/// line. Null sinks are skipped.
void write_campaign_streams(const CampaignResult& r, std::ostream* csv,
                            std::ostream* jsonl, bool header);

} // namespace serep::core
