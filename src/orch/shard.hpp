// Cross-process fault-space sharding with mergeable outcome databases.
//
// The paper's campaign is ~1.2M injections across 130 scenarios — beyond one
// process. The shard layer splits it without giving up the repo's core
// invariant (bit-identical outcome databases for a given seed):
//
//  * ShardPlan deterministically assigns every fault to exactly one of N
//    shards by a *stable content id* (a hash of the fault's strike instant
//    and target), not by fault-list position — so re-partitioning the same
//    campaign into a different N never changes which run a fault gets or
//    its classification, only where it executes.
//  * run_shard() executes one shard of a job list on a BatchRunner and
//    writes a self-contained outcome database: one JSONL manifest line
//    (magic, shard index/count, a config hash over the exact job list, and
//    each job's golden reference) followed by one record line per injected
//    fault carrying its full-fault-list ordinal.
//  * read_shard_db() is the format's one reader: merge, `serep report`,
//    resume and the fleet's landing check give the same bytes the same
//    verdict — complete, incomplete (a killed writer), or refused by name.
//  * merge_shards() validates the manifests (same config hash, complete and
//    disjoint shard cover, identical golden references), reassembles each
//    job's record array by ordinal, and emits the same merged CSV / JSONL
//    BatchRunner streams for an unsharded run — byte-identical, which
//    orch_test and CI assert.
//
// Shards can run in separate processes or on separate hosts; the database
// files are plain text and order-independent under merge. The exp::Driver
// is the front end to both halves: `serep run spec.json --shard=k/n` (or a
// `serep fleet` worker) writes shard k, and a plain `serep run spec.json`
// merges the pieces once they have all landed.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "orch/batch_runner.hpp"

namespace serep::orch {

/// Most shards one campaign may be cut into. Specs are validated against it
/// (shard.count), and readers check a database manifest's count against it
/// before narrowing or sizing anything by it, so a forged count can neither
/// wrap into a different shard layout nor drive a huge allocation.
constexpr unsigned kMaxShardCount = 4096;

/// Stable content id of a fault: depends only on the strike instant and the
/// target, never on list order or shard count.
std::uint64_t fault_id(const core::Fault& f) noexcept;

/// Deterministic 1-of-N assignment of the fault space.
struct ShardPlan {
    unsigned index = 0;
    unsigned count = 1;

    bool owns(const core::Fault& f) const noexcept {
        return count <= 1 || fault_id(f) % count == index;
    }
};

/// Work-weighted 1-of-N assignment. The uniform ShardPlan gives every shard
/// ~1/N of *each* job's faults, so every shard pays the golden-run and
/// ladder cost of *every* scenario. The weighted plan instead slices the
/// campaign as one line of per-job work (weight ~ measured golden-run
/// length x fault count) cut into N equal-work pieces: most jobs land
/// wholly on one shard (no redundant goldens), only the jobs straddling a
/// cut are split — by contiguous ranges of `fault_id(f) % resolution`, so
/// ownership still depends only on fault content. Cut points are exact and
/// monotone; the N plans of a campaign always cover every fault exactly
/// once, and the shard databases merge with the ordinary merge_shards().
struct WeightedShardPlan {
    unsigned index = 0;
    unsigned count = 1;
    std::uint32_t resolution = 1u << 20; ///< id-space granularity of cuts
    /// This shard's [lo, hi) slice of each job's id space.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> job_ranges;
    /// Hash of the complete cut matrix (every shard's ranges) — identical on
    /// every shard built from the same weights/count/resolution. Written to
    /// the shard manifest as the partition id, so databases cut by
    /// different schemes (uniform vs weighted, or differently weighted)
    /// refuse to blend in `serep report` instead of silently double-counting
    /// or dropping faults.
    std::uint64_t partition_hash = 0;

    bool owns(std::size_t job, const core::Fault& f) const noexcept {
        const auto& r = job_ranges[job];
        const std::uint32_t id =
            static_cast<std::uint32_t>(fault_id(f) % resolution);
        return r.first <= id && id < r.second;
    }
};

/// Build shard `index` of `count`'s weighted plan from per-job weights
/// (any positive scale; probe_job_weights() supplies golden-length-based
/// ones). Weights <= 0 are treated as empty jobs.
WeightedShardPlan make_weighted_plan(const std::vector<double>& weights,
                                     unsigned index, unsigned count,
                                     std::uint32_t resolution = 1u << 20);

/// One campaign job, the unit both sharded and unsharded runs agree on.
struct ShardJobSpec {
    npb::Scenario scenario;
    core::CampaignConfig cfg;
};

/// Measured per-job work weights for make_weighted_plan(): golden-run
/// length (one throwaway probe execution per distinct scenario) x the
/// job's fault count.
std::vector<double> probe_job_weights(const std::vector<ShardJobSpec>& jobs);

/// Hash over the exact job list (scenarios + campaign configs). Two shard
/// databases merge only if their hashes match: same jobs, same seeds, same
/// fault-space parameters.
std::uint64_t campaign_config_hash(const std::vector<ShardJobSpec>& jobs);

struct ShardRunStats {
    std::size_t owned = 0;       ///< fault records this shard wrote
    std::size_t fault_space = 0; ///< total faults across all jobs
    /// Records whose outcome was derived by equivalence pruning instead of
    /// simulated (0 unless BatchOptions::prune was on). Actually-simulated
    /// runs = owned - inferred.
    std::size_t inferred = 0;
};

/// Optional experiment provenance written into the shard manifest
/// ("experiment" + "spec_hash" keys) — the exp::Driver's resume key: a
/// database at a spec's shard path is reused only when its spec hash
/// matches. Readers that predate these keys ignore them; merge
/// compatibility is still governed by config hash + partition id.
struct ShardDbAnnotation {
    std::string experiment; ///< ExperimentSpec name
    std::string spec_hash;  ///< ExperimentSpec::spec_hash_hex()
};

/// Run shard `plan` of `jobs` on a BatchRunner configured from `opts` and
/// write the shard's outcome database to `os`.
ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs, const ShardPlan& plan,
                        const BatchOptions& opts, std::ostream& os,
                        const ShardDbAnnotation* note = nullptr);

/// Weighted variant: same database format, same merge path — only the
/// fault-to-shard assignment differs (plan.job_ranges per job). The N
/// weighted shard databases of one campaign merge byte-identically to the
/// unsharded run, exactly like uniform shards.
ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs,
                        const WeightedShardPlan& plan, const BatchOptions& opts,
                        std::ostream& os,
                        const ShardDbAnnotation* note = nullptr);

/// A shard database as read_shard_db() reads it back.
struct ShardDb {
    struct Job {
        npb::Scenario scenario;
        std::uint32_t fault_space = 0;
        /// Scalar fields only; none where a weighted shard ran none of the
        /// job's faults ("golden": null) — another shard has the reference.
        std::optional<core::GoldenRef> golden;
    };
    struct Record {
        std::uint32_t job = 0;
        std::uint32_t ord = 0; ///< position in the job's full fault list
        core::FaultRecord rec;
    };
    unsigned shard = 0;
    unsigned count = 1;
    std::string partition; ///< "uniform" when the manifest predates the field
    std::string config_hash;
    std::string spec_hash; ///< ShardDbAnnotation; empty when unannotated
    std::vector<Job> jobs; ///< empty when not even the manifest line is whole
    std::vector<Record> records;
    std::string incomplete; ///< why the writer did not finish; "" if it did

    bool complete() const noexcept { return incomplete.empty(); }
};

/// Read shard-database bytes, plain or SRZF; `label` names them in errors.
/// Incomplete (returned): an SRZF frame that does not decode, a torn final
/// line, or fewer record lines than the manifest's "records"; the whole
/// lines before the cut are validated. Refused (util::ValidationError
/// naming `label` and the line): a missing member, bad magic, version,
/// shard slot or empty job list; an unknown name; a fault_space other than
/// n_faults; a record out of range or whose u64 field would be narrowed; a
/// (job, ord) twice; more record lines than "records". Nothing is sized
/// from a manifest field. Unannotated databases (no "records") are
/// accepted but cannot show a cut at a line boundary.
ShardDb read_shard_db(const std::string& bytes, const std::string& label);

/// True when decoded `text` starts with a shard-database manifest line.
bool is_shard_db(const std::string& text) noexcept;

/// Merge shard databases (file *contents*, any order), each read by
/// read_shard_db() and refused if incomplete. Validates the set (config
/// hash, shard count, partition, job lists, golden references, each shard
/// once, exact record cover), returns the per-job results in job order,
/// and — when sinks are given — streams the merged per-fault CSV and
/// per-campaign JSONL exactly as BatchRunner does for an unsharded run.
/// Throws util::ValidationError on any inconsistency.
std::vector<core::CampaignResult> merge_shards(
    const std::vector<std::string>& shard_dbs, std::ostream* csv_sink = nullptr,
    std::ostream* jsonl_sink = nullptr);

} // namespace serep::orch
