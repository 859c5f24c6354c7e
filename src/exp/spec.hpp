// Declarative experiment specifications (layer 1 of src/exp/).
//
// The paper's contribution is breadth — 570M injections over a 130-cell
// scenario matrix — and reproducing any slice of it used to mean hand-wiring
// CampaignConfig, BatchOptions, StatsOptions and per-subcommand serep flags.
// An ExperimentSpec is the replacement: ONE serializable document that names
// an entire experiment —
//
//   * the scenario matrix (ISA / app / API / cores sets, cross-product
//     and/or explicit cells),
//   * the fault model (gpr | fp | mem | cache-tag | cache-data | bus — one
//     kind or a list, fixed count or fault.target_ci sizing),
//   * engine and checkpoint knobs,
//   * shard partitioning (uniform or weighted, shard count, baked weights),
//   * report outputs (markdown / CSV / figure-JSON paths).
//
// Specs load from JSON (util::json), serialize back to a *canonical* compact
// form (fixed field order, every field present), and carry a stable
// spec hash: an FNV-1a fold of the canonical serialization of the
// experiment-identity fields (matrix + fault model + shard count and
// partition scheme). The hash subsumes orch::campaign_config_hash — the job
// list derives deterministically from those fields — and is written into
// every shard outcome database the exp::Driver produces, so resumed runs
// can tell "this database belongs to this spec" apart from "stale artifact
// of some other experiment". Presentation and execution knobs (name, out
// prefix, engine, threads, report paths) are deliberately NOT part of the
// hash: both engines are bit-identical in every observable and thread count
// never changes outcomes, so completed work survives those edits. Baked
// shard.weights are excluded too — the probe is deterministic, so pasting
// the vector `serep plan` prints into the spec must not invalidate shards
// that finished before the bake (a genuinely different cut is still caught:
// resume, merge and report compare the partition id every manifest
// carries).
//
// Everything here throws util::UsageError on malformed or contradictory
// input (the spec is operator input, exit code 2 in serep), with messages
// that name the offending key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace serep::exp {

/// One explicit scenario cell of the matrix ("that exact configuration").
struct CellSpec {
    std::string isa; ///< "v7" / "v8"
    std::string app; ///< "EP", "CG", ...
    std::string api; ///< "SER" / "OMP" / "MPI"
    unsigned cores = 1;
};

struct ExperimentSpec {
    // ---- identity / outputs -------------------------------------------
    std::string name = "experiment";
    /// Output file prefix: <out>_faults.csv, <out>_campaigns.jsonl,
    /// <out>_shard<k>.jsonl. Empty = in-memory experiment (no files, the
    /// results come back from exp::run_experiment — the bench drivers and
    /// examples).
    std::string out = "campaign";

    // ---- scenario matrix ----------------------------------------------
    std::string klass = "S"; ///< problem class: "Mini" / "S" / "W"
    /// Cross-product selectors; an empty list means "no constraint". The
    /// product is only applied when `cross_product` is true — a spec that
    /// gives only explicit `cells` runs exactly those cells.
    std::vector<std::string> isas; ///< subset of {"v7","v8"}
    std::vector<std::string> apps; ///< subset of the NPB app names
    std::vector<std::string> apis; ///< subset of {"SER","OMP","MPI"}
    std::vector<unsigned> cores;   ///< subset of the paper's core counts
    std::vector<CellSpec> cells;   ///< explicit cells, unioned with the product
    /// True when the cross-product form participates (always, unless the
    /// JSON matrix gives cells and none of the four selector keys).
    bool cross_product = true;

    // ---- fault model ---------------------------------------------------
    /// Fault-target spaces: any subset of "gpr" / "fp" / "mem" (the
    /// architectural spaces) and "cache-tag" / "cache-data" / "bus" (the
    /// uncore spaces, src/uncore/). JSON accepts a scalar or a list
    /// ("kind": "gpr" == "kind": ["gpr"]); a multi-kind spec expands to one
    /// job per (scenario, kind), kind-major. Single-kind specs serialize
    /// and hash exactly as before the list form existed.
    std::vector<std::string> kinds{"gpr"};
    unsigned faults = 100;    ///< fault-space size per job (ceiling when adaptive)
    std::uint64_t seed = 0xDAC2018;
    double watchdog = 4.0; ///< hang threshold: golden length x this factor
    /// > 0 enables confidence-driven sizing (the sequential stopping rule):
    /// stop each job once every outcome rate's CI half-width is <= this.
    double target_ci = 0;
    double ci_confidence = 0.95;
    unsigned ci_batch = 50;
    unsigned ci_min = 20;

    // ---- engine / checkpoint knobs (not part of the spec hash) ---------
    std::string engine = "trace"; ///< "trace" / "switch" (the reference)
    unsigned threads = 2;
    /// Checkpoint ladder; false replays every fault run from reset (the
    /// oracle the laddered runs are compared against).
    bool checkpoints = true;

    // ---- pruning -------------------------------------------------------
    /// Infer the outcome of every fault whose corruption never reaches a
    /// real use from the golden run's def-use walk (src/prune/), and
    /// simulate the rest. Outcome counts and report bytes match the
    /// unpruned run exactly; inferred records gain an "inferred" provenance
    /// flag. Part of the spec hash ONLY when enabled, so every existing
    /// spec's hash (and its finished shard databases) is untouched.
    bool prune = false;
    /// Sample size for `serep run --prune=verify`: per job, up to this many
    /// pruning-derived records are re-simulated and compared. Not part of
    /// the spec hash (verification never changes outcomes).
    unsigned prune_verify = 32;

    // ---- shard partitioning -------------------------------------------
    unsigned shards = 1;
    std::string partition = "uniform"; ///< "uniform" / "weighted"
    /// Optional pre-probed per-job work weights (weighted partition only):
    /// bake the vector `serep plan` prints into the spec and no worker ever
    /// probes golden lengths again.
    std::vector<double> weights;

    // ---- report outputs (not part of the spec hash) --------------------
    std::string report_md;   ///< markdown report path ("" = skip)
    std::string report_csv;  ///< rates-CSV report path ("" = skip)
    std::string report_json; ///< figure-JSON report path ("" = skip)
    double confidence = 0.95;
    unsigned top_regs = 8;

    // ---- fleet (distributed launcher; not part of the spec hash) -------
    // Where and how `serep fleet` fans the shards out. Deliberately
    // hash-neutral: the fleet topology never changes a single outcome byte
    // (the merged DB is byte-identical to the single-process run), so
    // re-pointing a campaign at different hosts must not strand finished
    // shard databases.
    std::string fleet_backend = "local-proc"; ///< "local-proc" / "ssh"
    std::vector<std::string> fleet_hosts;     ///< ssh destinations (ssh only)
    unsigned fleet_workers = 0; ///< concurrent workers; 0 = one per shard,
                                ///< capped at 8 (local-proc) or the host list
    unsigned fleet_workers_per_host = 1;   ///< ssh: workers per destination
    double fleet_heartbeat_interval = 1.0; ///< worker heartbeat period (s)
    double fleet_heartbeat_timeout = 30.0; ///< silence -> presumed dead (s)
    unsigned fleet_max_retries = 3; ///< attempts per shard before quarantine
    bool fleet_compress = true;     ///< stream shard DBs zstd-framed
    std::string fleet_remote_cmd = "serep"; ///< serep spelling on remote hosts

    /// Parse + validate a spec from JSON text. Unknown keys are rejected
    /// with the offending key and its location named (same policy as the
    /// serep unknown-flag audit: silent typos never reconfigure a campaign).
    static ExperimentSpec load(const std::string& json_text);

    /// Canonical compact JSON: fixed field order, every field emitted.
    /// load(canonical_json()) == *this, and two specs that differ only in
    /// JSON field order canonicalize identically.
    std::string canonical_json() const;

    /// Stable experiment-identity hash (see file comment). Hex spelling via
    /// spec_hash_hex() is what shard manifests and resume checks carry.
    std::uint64_t spec_hash() const;
    std::string spec_hash_hex() const;

    /// Re-check invariants (load() already calls this; programmatic
    /// constructors call it through the planner). Throws util::UsageError —
    /// except prune+uncore-kind, which is util::ValidationError (exit 3):
    /// the spec is well-formed, but pruning cannot produce valid outcomes
    /// for uncore faults.
    void validate() const;
};

} // namespace serep::exp
