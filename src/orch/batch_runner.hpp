// Campaign batch orchestrator (the paper's cluster job manager, in-process).
//
// BatchRunner takes a list of Scenario x CampaignConfig jobs and runs them as
// one workload on a single work-stealing pool:
//   * golden executions are cached per scenario — two jobs on the same
//     scenario share one golden run and one checkpoint ladder,
//   * jobs run in scenario-complete waves of at most kMaxLaddersInFlight
//     scenarios (scenario_waves): every job of a scenario, in whatever order
//     it was queued (a multi-kind spec queues kind-major), runs in the wave
//     that holds the scenario's full ladder,
//   * every job's fault runs are interleaved on the shared pool, so a batch
//     of skewed campaigns keeps all host threads busy,
//   * injection runs start from the nearest checkpoint-ladder rung instead of
//     fast-forwarding from reset (see orch/checkpoint.hpp). Each pool thread
//     keeps one resident machine for a wave's injection phase and rewinds it
//     to the rung, copying only the pages it and the rung wrote; it clones
//     only for the first run on a ladder. The wave runs its fault tasks
//     scenario-major, so consecutive tasks share a ladder,
//   * a run is closed with the golden outcome as soon as its machine is
//     bit-for-bit the golden one: at injection (a dead-on-arrival uncore
//     strike) or at the first later rung it matches (a fault that stopped
//     propagating; an uncore strike once its hook has settled) — exact, so
//     such records are not `inferred`,
//   * run_all() returns the campaigns in job order; callers that write
//     CSV / JSONL streams do so from those results
//     (core::write_campaign_streams).
//
// Invariant (inherited from the legacy runner and covered by orch_test):
// CampaignResult::counts and campaign_csv output are bit-identical for a
// given seed regardless of pool width or checkpoint stride.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/campaign.hpp"
#include "orch/checkpoint.hpp"
#include "orch/scheduler.hpp"

namespace serep::orch {

/// Cache identity of a scenario's golden run: everything that changes the
/// executed instruction stream. Scenario::name() omits klass and the fma
/// flag, so they are appended. Shared by the BatchRunner golden cache, the
/// shard cut's scenario-major line and the weighted-shard probe so they can
/// never disagree about which jobs share a golden execution.
std::string scenario_cache_key(const npb::Scenario& s);

/// Distinct scenarios whose checkpoint ladders may be live at once. The
/// batch runner processes jobs in waves of at most this many scenarios and
/// splits LadderOptions::memory_budget_bytes across them; anything that
/// retains ladders across run_all() calls (the stats sizer's chunks) must
/// bound itself by the same constant or the budget argument breaks.
inline constexpr std::size_t kMaxLaddersInFlight = 16;

/// Split job indices 0..keys.size()-1 (keys[j]: job j's golden key) into
/// scenario-complete waves. Each wave takes the first `max_keys` distinct
/// keys among the jobs not yet placed, plus every job on those keys, in
/// ascending index order — so all jobs of a scenario share one golden run
/// and one full ladder whatever order they were queued in (a multi-kind
/// spec queues them kind-major). When each key's jobs are consecutive (a
/// single-kind spec), the waves are the consecutive split.
std::vector<std::vector<std::size_t>> scenario_waves(
    const std::vector<std::string>& keys, std::size_t max_keys);

struct BatchOptions {
    unsigned threads = 0; ///< pool width; 0 = the shared process-wide pool
    LadderOptions ladder; ///< checkpoint-ladder knobs (batch-wide)
    /// Execution engine for golden and fault runs. Outcomes are bit-identical
    /// across both (gated in tests and CI); Trace, the production engine,
    /// measured ~2.2x over the Switch reference solo-core and ~1.5x
    /// multi-core (bench_micro --engines, BENCH_engines.json). The scenario's
    /// decode-once ExecCache is built with the golden machine and shared by
    /// every clone the checkpoint ladder materializes.
    sim::Engine engine = sim::Engine::Trace;
    /// Keep each scenario's checkpoint ladder alive after its last job of a
    /// run_all() completes, so a later batch on the same runner resumes from
    /// real rungs instead of a from-reset base. Used by the sequential
    /// (confidence-driven) campaign sizer, which re-queues the same
    /// scenarios round after round; costs one ladder of memory per distinct
    /// scenario until the runner dies, so leave it off for one-shot batches.
    bool retain_ladders = false;
    /// Fault-equivalence pruning (src/prune/): replay each job's golden run
    /// once with the def-use tracer attached, simulate one representative
    /// per equivalence class, and derive the rest — records carry
    /// FaultRecord::inferred. Outcome counts and report bytes are identical
    /// to the unpruned run (the analyzer is exact, and gated in CI); only
    /// per-fault provenance differs.
    bool prune = false;
    /// With prune: re-simulate up to this many pruning-derived records per
    /// job (seeded, deterministic sample) after the job completes and
    /// compare outcome + retired count. Any mismatch makes run_all() throw
    /// util::Error once all jobs have completed. 0 = no verification.
    unsigned prune_verify = 0;
};

class BatchRunner {
public:
    /// Per-job fault filter: receives each fault's full-list ordinal plus
    /// the fault itself, so callers can select exact list positions (the
    /// sequential sizer's content-id prefixes) as well as content-keyed
    /// subsets (shard plans).
    using JobFaultFilter = std::function<bool(std::uint32_t, const core::Fault&)>;

    explicit BatchRunner(BatchOptions opts = {});
    ~BatchRunner();

    /// Queue one campaign; returns its job index (also its result index).
    /// A `filter` injects only the faults of the full fault list it accepts;
    /// their positions are kept (job_ordinals) so a merger can reassemble
    /// the unsharded record array. Golden runs are unaffected.
    std::size_t add(const npb::Scenario& s, const core::CampaignConfig& cfg,
                    JobFaultFilter filter = nullptr);

    /// Run the jobs queued since the last run_all(); returns their results
    /// in add() order. Jobs run in scenario-complete waves (scenario_waves),
    /// possibly out of add() order. Jobs may be queued and run again on the
    /// same runner; the golden cache persists.
    std::vector<core::CampaignResult> run_all();

    /// Golden executions actually performed (cache-miss counter; test hook
    /// for the one-golden-run-per-scenario guarantee).
    std::size_t golden_executions() const noexcept { return golden_runs_; }

    /// Instructions replayed to position injection clones at their strike
    /// instants (checkpoint -> strike fast-forward). Deterministic for a
    /// given seed and ladder config: the ladder's benefit is exactly the
    /// reduction of this number vs the stride-disabled path, which is how
    /// bench_speedup gates the >= 1.5x claim without wall-clock flakiness.
    /// Telemetry counts the same quantity as `batch.ff_steps`.
    std::uint64_t fast_forward_retired() const noexcept {
        return ff_retired_.load(std::memory_order_relaxed);
    }

    /// Injection runs actually executed across all jobs so far. Without
    /// pruning this equals the total record count; with pruning it is the
    /// number of class representatives (the denominator of the >= 3.5x
    /// job-reduction gate in CI).
    std::size_t simulated_runs() const noexcept { return simulated_runs_; }
    /// Of those, runs closed at a checkpoint rung where their machine was
    /// bit-for-bit the golden one (see run_wave phase 3).
    std::size_t converged_runs() const noexcept {
        return converged_runs_.load(std::memory_order_relaxed);
    }
    /// Records whose outcome was derived by pruning instead of simulated.
    std::size_t inferred_records() const noexcept { return inferred_records_; }
    /// Fault runs pruning declined to analyze because their job targets an
    /// uncore fault space (they were all simulated; see run_wave). The
    /// driver logs the decline reason when this is non-zero.
    std::size_t prune_declined() const noexcept { return prune_declined_; }
    /// Pruning-derived records re-simulated by the verify sample (and found
    /// to match — a mismatch throws from run_all()).
    std::size_t verified_records() const noexcept { return verified_records_; }

    /// Size of job j's full (pre-filter) fault list. Equals the record count
    /// unless the job has a filter. Valid after run_all().
    std::uint32_t job_fault_space(std::size_t j) const;
    /// Global fault-list ordinal of each record of job j (ordinals[i] is the
    /// position record i held in the full list). Empty when the job has no
    /// filter (identity mapping). Valid after run_all().
    const std::vector<std::uint32_t>& job_ordinals(std::size_t j) const;

    Scheduler& scheduler() noexcept {
        return own_pool_ ? *own_pool_ : Scheduler::instance();
    }

private:
    struct GoldenEntry;
    struct JobState;

    GoldenEntry* golden_for(const npb::Scenario& s);
    void run_wave(const std::vector<std::size_t>& wave_jobs, Scheduler& pool);
    void complete_job(JobState& job);
    void drop_golden_ref(GoldenEntry* golden);

    BatchOptions opts_;
    std::unique_ptr<Scheduler> own_pool_;
    std::vector<std::pair<std::string, std::unique_ptr<GoldenEntry>>> golden_cache_;
    std::vector<std::unique_ptr<JobState>> jobs_;
    std::size_t golden_runs_ = 0;
    std::size_t next_job_ = 0; ///< first job the next run_all() runs
    std::atomic<std::uint64_t> ff_retired_{0};
    std::size_t simulated_runs_ = 0;
    std::atomic<std::size_t> converged_runs_{0};
    std::size_t inferred_records_ = 0;
    std::size_t prune_declined_ = 0;
    std::size_t verified_records_ = 0;
    /// Verify-sample mismatches ("job f<ordinal>: recorded X, simulated Y");
    /// reported as one util::Error at the end of run_all().
    std::vector<std::string> verify_failures_;
    std::mutex verify_mu_;
};

} // namespace serep::orch
