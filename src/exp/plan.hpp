// Planner (layer 2 of src/exp/): expand an ExperimentSpec into the
// canonical ExperimentPlan — the exact, ordered job list every execution
// path (direct, sharded, adaptive) agrees on.
//
// Multi-kind specs expand kind-major: the full scenario selection for
// kinds[0], then for kinds[1], ... — so a single-kind spec's job list (and
// ordering) is exactly what it was before fault.kind grew a list form.
//
// Canonical job order is the paper_scenarios() order, filtered by the
// matrix selectors (tests/golden/plan_paper_mini.txt pins it: every
// database's job order rests on it), with one extension: explicit
// matrix.cells come first, in the order the spec lists them, and the
// cross-product matches follow minus any duplicates. Each job gets a stable
// human-readable id ("ARMv7-EP-SER-1-Mini-gpr") and the whole plan carries
// the spec hash that flows into shard manifests, resume checks, and report
// provenance.
//
// The plan also owns the shard cut (orch::ShardCut) of both partitions.
// Its line is scenario-major and its job lengths are the fault counts
// (uniform) or golden length x fault count (weighted). Weighted lengths are
// probed at most ONCE per plan (or taken verbatim from spec.shard.weights)
// and the cached vector feeds both the dry-run work estimate (`serep plan`)
// and every shard's cut (`serep run`) — golden-length probing happens at
// most once per experiment instead of once per shard invocation.
#pragma once

#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "orch/shard.hpp"

namespace serep::exp {

struct PlannedJob {
    std::string id;   ///< "ARMv7-EP-SER-1-Mini-gpr" — stable across runs
    std::string kind; ///< the fault kind this job draws from
    npb::Scenario scenario;
    core::CampaignConfig cfg;
};

class ExperimentPlan {
public:
    /// Expand (and re-validate) the spec. Throws util::UsageError when the
    /// matrix matches no paper scenario, an explicit cell names a
    /// configuration the paper does not have, or spec.shard.weights has the
    /// wrong length for the job list.
    explicit ExperimentPlan(ExperimentSpec spec);

    const ExperimentSpec& spec() const noexcept { return spec_; }
    const std::vector<PlannedJob>& jobs() const noexcept { return jobs_; }
    std::uint64_t spec_hash() const noexcept { return spec_hash_; }
    const std::string& spec_hash_hex() const noexcept { return hash_hex_; }

    /// The job list in the shape the orch layer consumes.
    std::vector<orch::ShardJobSpec> shard_jobs() const;

    bool weighted() const noexcept { return spec_.partition == "weighted"; }
    unsigned shard_count() const noexcept { return spec_.shards; }

    /// Per-job lengths on the cut line: each job's fault count under the
    /// uniform partition; under the weighted one spec.shard.weights when
    /// baked in, otherwise probed (one golden execution per distinct
    /// scenario) on first call and cached — the single probe the dry-run
    /// estimate and every shard cut share.
    const std::vector<double>& weights();
    /// True once weights() would return without running any probe.
    bool weights_ready() const noexcept {
        return !weights_.empty() || !spec_.weights.empty();
    }

    /// Shard `index`'s cut of the plan's jobs, built from weights() on the
    /// scenario-major line — the one ownership rule of both partitions.
    orch::ShardCut shard_cut(unsigned index);

    /// The partition id every shard database of this plan carries
    /// (orch::ShardCut::partition), or just the scheme ("weighted") while
    /// the weights would still need a probe. Never probes.
    const std::string& partition_id() const noexcept {
        return partition_id_.empty() ? spec_.partition : partition_id_;
    }
    /// True when a manifest's partition id can be this plan's cut: equal to
    /// partition_id(), or of the same scheme while the weights are unknown.
    bool accepts_partition(const std::string& id) const;

    /// Dry-run listing: spec hash, fault model, job ids, shard layout and
    /// an estimated-work line. Never probes on its own (a fully-resumed
    /// `serep run` must stay golden-run-free): the weighted estimate and
    /// the ready-to-bake "weights": [...] line appear only once weights
    /// are cached or baked — `serep plan` probes explicitly first.
    std::string listing();

    // Output-file naming shared by the driver, the CLI, and the tests.
    std::string csv_path() const { return spec_.out + "_faults.csv"; }
    std::string jsonl_path() const { return spec_.out + "_campaigns.jsonl"; }
    std::string shard_db_path(unsigned k) const {
        return spec_.out + "_shard" + std::to_string(k) + ".jsonl";
    }
    /// Completion sidecar for the adaptive (target_ci) path, whose CSV/JSONL
    /// outputs cannot carry the spec hash themselves.
    std::string state_path() const { return spec_.out + ".exp.json"; }

private:
    ExperimentSpec spec_;
    std::vector<PlannedJob> jobs_;
    std::uint64_t spec_hash_ = 0;
    std::string hash_hex_;
    std::vector<double> weights_; ///< line lengths (weighted: empty until probed)
    std::vector<std::size_t> line_; ///< orch::scenario_major_line of the jobs
    std::string partition_id_;      ///< empty until the weights are ready
};

} // namespace serep::exp
