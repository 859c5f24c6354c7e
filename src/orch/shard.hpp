// Cross-process fault-space sharding with mergeable outcome databases.
//
// The paper's campaign is ~1.2M injections across 130 scenarios — beyond one
// process. The shard layer splits it without giving up the repo's core
// invariant (bit-identical outcome databases for a given seed):
//
//  * make_shard_cut() deterministically assigns every fault to exactly one
//    of N shards. The jobs lie end to end on one line, scenario-major (all
//    jobs of a golden scenario together), each as long as its work, and
//    shard k owns the slice [k, k+1) * total / N of it. A job a boundary
//    cuts through is split by a *stable content id* (a hash of the fault's
//    strike instant and target), not by fault-list position — so
//    re-partitioning the same campaign into a different N never changes
//    which run a fault gets or its classification, only where it executes,
//    and a shard runs the goldens of only the scenarios it injects into.
//  * run_shard() executes one shard of a job list on a BatchRunner and
//    writes a self-contained outcome database: one JSONL manifest line
//    (magic, shard index/count, the partition id, a config hash over the
//    exact job list, and each job's golden reference) followed by one
//    record line per injected fault carrying its full-fault-list ordinal.
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

/// One campaign job, the unit both sharded and unsharded runs agree on.
struct ShardJobSpec {
    npb::Scenario scenario;
    core::CampaignConfig cfg;
};

/// One shard's slice of a campaign: the single fault-to-shard rule of both
/// partitions. The jobs lie end to end on a line in scenario-major order
/// (scenario_major_line), each as long as its work — its fault count under
/// the uniform partition, golden length x fault count under the weighted
/// one — and shard k of N owns the slice [k, k+1) * total / N. Most jobs
/// land wholly on one shard; a job a boundary cuts through is split by
/// contiguous ranges of `fault_id(f) % resolution`, so ownership still
/// depends only on fault content. A shard therefore runs the golden and
/// ladder of only the scenarios its slice touches: at most ceil(S/N) + 1 of
/// S equally long ones. Cut points are exact and monotone; the N cuts of a
/// campaign cover every fault exactly once, and the shard databases merge
/// with the ordinary merge_shards().
struct ShardCut {
    unsigned index = 0;
    unsigned count = 1;
    std::uint32_t resolution = 1u << 20; ///< id-space granularity of cuts
    /// This shard's [lo, hi) slice of each job's id space, by job index.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> job_ranges;
    /// "<scheme>-<hash of the complete cut matrix>": identical on every
    /// shard cut from the same lengths, line, count and resolution. Written
    /// to the shard manifest, so databases cut differently (uniform vs
    /// weighted, differently weighted, or by an older rule) are refused by
    /// resume, merge and `serep report` instead of silently double-counting
    /// or dropping faults.
    std::string partition;

    /// True when this shard injects into job `job` at all.
    bool runs(std::size_t job) const noexcept {
        return job_ranges[job].first < job_ranges[job].second;
    }
    bool owns(std::size_t job, const core::Fault& f) const noexcept {
        const auto& r = job_ranges[job];
        const std::uint32_t id =
            static_cast<std::uint32_t>(fault_id(f) % resolution);
        return r.first <= id && id < r.second;
    }
};

/// The cut line: job indices grouped by golden key (scenario_cache_key),
/// groups in order of first appearance, list order within a group. A
/// multi-kind plan lists its jobs kind-major; the line keeps each
/// scenario's jobs of every kind together, so one shard pays its golden. A
/// list with one job per scenario lies in its own order.
std::vector<std::size_t> scenario_major_line(
    const std::vector<ShardJobSpec>& jobs);

/// Cut shard `index` of `count` from jobs laid end to end in `line` order
/// (a permutation of job indices), job j `lengths[j]` long; lengths <= 0
/// are empty jobs, and all-empty lengths cut as if equal. `scheme`
/// ("uniform" / "weighted") prefixes the partition id. The id hashes the
/// cut points in line order, plus the line itself where it is not the job
/// order, so a cut over the job order keeps the id it always had.
ShardCut make_shard_cut(const std::string& scheme,
                        const std::vector<double>& lengths,
                        const std::vector<std::size_t>& line, unsigned index,
                        unsigned count, std::uint32_t resolution = 1u << 20);

/// Shard `index` of `count` of the uniform partition: each job as long as
/// its fault count, on the scenario-major line. No golden run, no probe.
ShardCut uniform_cut(const std::vector<ShardJobSpec>& jobs, unsigned index,
                     unsigned count);

/// Measured per-job lengths for the weighted partition's make_shard_cut():
/// golden-run length (one throwaway probe execution per distinct scenario)
/// x the job's fault count.
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

/// Run shard `cut` of `jobs` on a BatchRunner configured from `opts` and
/// write the shard's outcome database to `os`. Only the jobs the cut runs
/// are added to the runner; the others appear in the manifest with
/// "golden": null and no records. The N shard databases of one campaign
/// merge byte-identically to the unsharded run.
ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs,
                        const ShardCut& cut, const BatchOptions& opts,
                        std::ostream& os,
                        const ShardDbAnnotation* note = nullptr);

/// A shard database as read_shard_db() reads it back.
struct ShardDb {
    struct Job {
        npb::Scenario scenario;
        std::uint32_t fault_space = 0;
        /// Scalar fields only; none where the shard ran none of the job's
        /// faults ("golden": null) — another shard has the reference.
        std::optional<core::GoldenRef> golden;
    };
    struct Record {
        std::uint32_t job = 0;
        std::uint32_t ord = 0; ///< position in the job's full fault list
        core::FaultRecord rec;
    };
    unsigned shard = 0;
    unsigned count = 1;
    /// The cut's partition id; "uniform" when the manifest predates the
    /// field (a database of the older every-job rule).
    std::string partition;
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

/// Merge decoded shard databases (any order), refusing an incomplete one.
/// Validates the set (config hash, shard count, partition, job lists,
/// golden references, each shard once, exact record cover), returns the
/// per-job results in job order, and — when sinks are given — streams the
/// merged per-fault CSV and per-campaign JSONL exactly as an unsharded run
/// writes its results (core::write_campaign_streams). Throws
/// util::ValidationError on any inconsistency.
std::vector<core::CampaignResult> merge_shards(const std::vector<ShardDb>& dbs,
                                               std::ostream* csv_sink = nullptr,
                                               std::ostream* jsonl_sink = nullptr);
/// The same over file *contents*, each read by read_shard_db() first.
std::vector<core::CampaignResult> merge_shards(
    const std::vector<std::string>& shard_dbs, std::ostream* csv_sink = nullptr,
    std::ostream* jsonl_sink = nullptr);

} // namespace serep::orch
