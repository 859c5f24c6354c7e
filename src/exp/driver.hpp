// exp::Driver (layer 3 of src/exp/): execute a planned experiment end to
// end — golden runs, shard/fault runs, merge, report — with resume. It is
// the one campaign front door: `serep run`, examples/full_campaign and the
// bench drivers all go through run_experiment(), and `serep fleet` closes
// with its merge_and_report() step.
//
// Three execution paths, chosen by the spec:
//
//  * adaptive (fault.target_ci > 0): the stats sizer's sequential stopping
//    rule, single process, writing `<out>_faults.csv` /
//    `<out>_campaigns.jsonl` directly. Completion is recorded in a small
//    `<out>.exp.json` sidecar carrying the spec hash (the CSV itself
//    cannot carry one without changing bytes); a re-run whose sidecar
//    matches skips the sizing and only re-renders the reports.
//  * in-memory (spec.out empty): one BatchRunner pass, nothing written —
//    the results come back in DriverResult::results (the bench drivers and
//    the examples).
//  * sharded (every spec with an out prefix, any shard count >= 1): each
//    shard k runs to `<out>_shard<k>.jsonl` — its manifest annotated with
//    the spec hash — then the shards merge into the canonical
//    `<out>_faults.csv` / `<out>_campaigns.jsonl`, byte-identical for every
//    shard count and partition, and the requested reports are rendered
//    from the merged database.
//
// Resume: a complete shard database on disk whose manifest carries this
// spec's hash is skipped (its bytes ARE the job's output); one cut short by
// a killed writer is re-run; any other database at that path — a different
// or missing spec hash, another cut of the same spec (an older ownership
// rule, re-baked weights), or bytes the shard reader refuses — is REFUSED
// (util::ValidationError, serep exit 3) and left in place. Merge and report
// are cheap pure functions of the shard databases and re-run every time.
// DriverOptions::only_shard runs exactly one shard and stops before the
// merge — the remote-worker unit (`serep run spec.json --shard=k/n`);
// gathering the files and re-running `serep run spec.json` merges them.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/plan.hpp"

namespace serep::exp {

/// CLI override of the spec's pruning block
/// (`serep run --prune=off|on|verify`).
enum class PruneMode : std::uint8_t {
    Spec,   ///< follow spec.prune (the default: no flag given)
    Off,    ///< force full simulation, ignore spec.prune
    On,     ///< force pruning on
    Verify, ///< pruning on + re-simulate a seeded sample of inferred
            ///< faults; any outcome/retired mismatch fails the run
};

struct DriverOptions {
    /// >= 0: run only this shard index, write its database, stop (no merge,
    /// no report).
    int only_shard = -1;
    /// Equivalence-pruning override; Spec = whatever spec.prune says.
    PruneMode prune = PruneMode::Spec;
    /// Write shard databases zstd-framed to `<shard path>.zst` (store codec
    /// when the build lacks libzstd). Resume and merge accept either form,
    /// so compressed and plain runs of one spec interoperate.
    bool compress_shards = false;
    /// With only_shard >= 0: stream the shard database here instead of to a
    /// file — the fleet worker's stdout. Combined with compress_shards the
    /// stream carries the zstd-framed form.
    std::ostream* shard_stream = nullptr;
    /// Progress stream (skip/run/merge/report lines); null = quiet.
    std::FILE* log = stdout;
    /// Non-empty: enable telemetry and write the metrics.json sidecar here
    /// when the experiment finishes. Strictly out of band — outcome
    /// databases and reports are byte-identical either way (CI-gated).
    std::string metrics_out;
    /// Non-empty: enable telemetry and write Chrome trace-event JSON here
    /// (load in Perfetto to see the phase spans).
    std::string trace_out;
};

struct DriverResult {
    /// Per-job campaign results in plan order. Empty when only_shard was
    /// used (the merge step reassembles them later) and when every stage
    /// of a resumed run was skipped.
    std::vector<core::CampaignResult> results;
    std::size_t shards_run = 0;
    std::size_t shards_skipped = 0;
    std::size_t injected = 0;    ///< fault records written by this invocation
    std::size_t simulated = 0;   ///< injection runs actually executed (equals
                                 ///< injected unless pruning inferred some)
    std::size_t inferred = 0;    ///< records inferred by pruning
    std::size_t fault_space = 0; ///< total fault space of the experiment
    bool merged = false;         ///< canonical CSV/JSONL were (re)written
    bool report_written = false; ///< at least one report file was rendered
};

/// Execute the experiment. Throws util::UsageError on contradictory
/// options, util::ValidationError on resume conflicts (spec-hash mismatch,
/// corrupt shard databases), util::Error on I/O failure.
DriverResult run_experiment(ExperimentPlan& plan,
                            const DriverOptions& opts = {});

/// Close a sharded experiment: merge the shard databases (shard k at index
/// k, each already decoded by orch::read_shard_db) into the plan's
/// canonical CSV/JSONL and render the spec's reports, under the `merge`
/// and `report` spans. Sets res.results, res.merged and
/// res.report_written. run_experiment ends a sharded run with it, and the
/// fleet controller with the databases it decoded as the shards landed.
void merge_and_report(ExperimentPlan& plan,
                      const std::vector<orch::ShardDb>& dbs, DriverResult& res,
                      std::FILE* log);

/// Resume-probe verdict for one shard database (file or payload).
enum class ShardDbState {
    Missing,    ///< nothing there — run the shard
    Match,      ///< complete output of THIS spec's shard k/n — skip it
    Incomplete, ///< this spec's shard, but truncated (killed worker) — re-run
};

/// Classify shard-database bytes (plain or zstd-framed, read by
/// orch::read_shard_db) against shard k of n of `plan`: empty is Missing,
/// a cut the reader reports is Incomplete (a worker died mid-stream).
/// Throws util::ValidationError naming `label` for anything that is NOT
/// this spec's shard k/n output: bytes the reader refuses, spec-hash
/// mismatches, wrong shard indices, a partition id other than the plan's
/// cut (ExperimentPlan::accepts_partition; never probes). The fleet vets
/// payloads with it. When `db` is non-null it receives the database read
/// (on Match, ready for stats::OutcomeTally::add_shard_db).
ShardDbState classify_shard_db(const std::string& contents,
                               const std::string& label,
                               const ExperimentPlan& plan, unsigned k,
                               unsigned n, orch::ShardDb* db = nullptr);

/// Probe shard k's on-disk database: `<out>_shard<k>.jsonl` first, then the
/// compressed `.jsonl.zst` form. When `found_path` is non-null it receives
/// the path of the database that decided the verdict (unset for Missing);
/// when `db` is non-null and the verdict is Match, the database read there.
ShardDbState probe_shard_db(const ExperimentPlan& plan, unsigned k, unsigned n,
                            std::string* found_path = nullptr,
                            orch::ShardDb* db = nullptr);

/// The BatchOptions every execution path derives from a spec — the single
/// successor of the old per-tool `batch_options_from_cli` plumbing.
orch::BatchOptions batch_options(const ExperimentSpec& spec);

} // namespace serep::exp
