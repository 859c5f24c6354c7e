#include "orch/batch_runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>

#include "npb/npb.hpp"
#include "prune/prune.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace serep::orch {

namespace {

namespace tm = serep::telemetry;

void fold_trace_stats(const sim::Machine& m) {
    static const tm::MetricId kBursts = tm::counter_id("engine.trace.bursts");
    static const tm::MetricId kChains =
        tm::counter_id("engine.trace.chain_links");
    static const tm::MetricId kFalls =
        tm::counter_id("engine.trace.fallbacks");
    const sim::Machine::TraceStats& ts = m.trace_stats();
    tm::count(kBursts, ts.bursts);
    tm::count(kChains, ts.chain_links);
    tm::count(kFalls, ts.fallbacks);
}

/// A machine's monotone engine/cache totals: retired steps, then per-core
/// L1I and L1D hits/misses/credits summed over cores, then L2 hits/misses.
struct MachineTally {
    std::uint64_t steps = 0;
    std::array<std::uint64_t, 8> cache{};
};

MachineTally machine_tally(const sim::Machine& m) {
    MachineTally t;
    t.steps = m.total_retired();
    for (unsigned c = 0; c < m.cores(); ++c) {
        t.cache[0] += m.l1i(c).hits();
        t.cache[1] += m.l1i(c).misses();
        t.cache[2] += m.l1i(c).credits();
        t.cache[3] += m.l1d(c).hits();
        t.cache[4] += m.l1d(c).misses();
        t.cache[5] += m.l1d(c).credits();
    }
    t.cache[6] = m.l2().hits();
    t.cache[7] = m.l2().misses();
    return t;
}

/// Fold the engine/cache work `m` did since `from` into the registry. A
/// golden machine is built fresh, so it folds against a zero tally; a
/// fault-run machine inherits its rung's totals, so it folds against the
/// tally taken right after the clone or rewind. TraceStats reset on both
/// and fold whole.
void fold_machine(const sim::Machine& m, const MachineTally& from = {}) {
    if (!tm::enabled()) return;
    static const tm::MetricId kSteps = tm::counter_id("engine.steps");
    static const std::array<tm::MetricId, 8> kCache{
        tm::counter_id("cache.l1i.hits"),   tm::counter_id("cache.l1i.misses"),
        tm::counter_id("cache.l1i.credits"), tm::counter_id("cache.l1d.hits"),
        tm::counter_id("cache.l1d.misses"), tm::counter_id("cache.l1d.credits"),
        tm::counter_id("cache.l2.hits"),    tm::counter_id("cache.l2.misses")};
    const MachineTally now = machine_tally(m);
    tm::count(kSteps, now.steps - from.steps);
    for (std::size_t i = 0; i < kCache.size(); ++i)
        tm::count(kCache[i], now.cache[i] - from.cache[i]);
    fold_trace_stats(m);
}

} // namespace

struct BatchRunner::GoldenEntry {
    GoldenEntry(CheckpointLadder l, core::GoldenRef r, core::Outcome o)
        : ladder(std::move(l)), ref(std::move(r)), outcome(o) {}
    CheckpointLadder ladder;
    core::GoldenRef ref;
    /// The golden machine's own classification: the record of every fault
    /// run whose machine turns out bit-identical to the golden one, at
    /// injection or at a rung (see run_wave phase 3).
    core::Outcome outcome;
    /// Jobs of the current run_all still using this ladder; the last
    /// finisher trims the ladder to its base rung so batch memory is
    /// bounded by ladders-in-flight, not total scenario count.
    std::atomic<std::size_t> active_jobs{0};
};

struct BatchRunner::JobState {
    npb::Scenario scenario;
    core::CampaignConfig cfg;
    JobFaultFilter filter; ///< null: inject the whole fault list
    GoldenEntry* golden = nullptr;
    std::vector<core::Fault> faults;     ///< faults actually injected
    std::vector<std::uint32_t> ordinals; ///< full-list position per fault (sharding)
    std::uint32_t fault_space = 0;       ///< full (pre-filter) fault-list size
    std::uint64_t budget = 0;
    /// Equivalence-pruning plan (parallel to `faults`); null when pruning is
    /// off. With pruning, `remaining` counts class representatives only.
    std::unique_ptr<prune::PruneAnalysis> prune;
    /// followers[i]: fault indices that copy representative i's record.
    std::vector<std::vector<std::uint32_t>> followers;
    std::atomic<std::size_t> remaining{0};
    core::CampaignResult result;
};

std::string scenario_cache_key(const npb::Scenario& s) {
    return s.name() + "|k" + std::to_string(static_cast<unsigned>(s.klass)) +
           (s.contract_fma ? "|fma" : "|nofma");
}

namespace {

/// Golden runs (and ladders) depend on everything in the scenario.
std::string golden_key(const npb::Scenario& s) { return scenario_cache_key(s); }

} // namespace

std::vector<std::vector<std::size_t>> scenario_waves(
    const std::vector<std::string>& keys, std::size_t max_keys) {
    // Keys join waves in order of first appearance, max_keys to a wave;
    // each job follows its key. Equivalent to repeatedly taking the first
    // max_keys distinct keys among the jobs not yet placed.
    std::unordered_map<std::string, std::size_t> wave_of;
    std::vector<std::vector<std::size_t>> waves;
    std::size_t keys_in_last = 0;
    for (std::size_t j = 0; j < keys.size(); ++j) {
        auto [it, fresh] = wave_of.try_emplace(keys[j], 0);
        if (fresh) {
            if (waves.empty() || keys_in_last == max_keys) {
                waves.emplace_back();
                keys_in_last = 0;
            }
            it->second = waves.size() - 1;
            ++keys_in_last;
        }
        waves[it->second].push_back(j);
    }
    return waves;
}

BatchRunner::BatchRunner(BatchOptions opts) : opts_(opts) {
    if (opts_.threads != 0) own_pool_ = std::make_unique<Scheduler>(opts_.threads);
}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::add(const npb::Scenario& s, const core::CampaignConfig& cfg,
                             JobFaultFilter filter) {
    auto job = std::make_unique<JobState>();
    job->scenario = s;
    job->cfg = cfg;
    job->filter = std::move(filter);
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

BatchRunner::GoldenEntry* BatchRunner::golden_for(const npb::Scenario& s) {
    const std::string key = golden_key(s);
    for (auto& [k, entry] : golden_cache_)
        if (k == key) return entry.get();
    return nullptr;
}

void BatchRunner::drop_golden_ref(GoldenEntry* golden) {
    // Last reference on this scenario in the batch: no injection (or verify)
    // run can touch the ladder anymore (every task finishes with its clone
    // before dropping its reference), so release all rungs. A later batch on
    // the same runner still hits the golden cache (reference + fault list
    // reuse) and reinstalls a rebuilt base for from-reset replay.
    // retain_ladders keeps the rungs instead, for callers that re-queue the
    // same scenarios.
    if (golden &&
        golden->active_jobs.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        !opts_.retain_ladders)
        golden->ladder.release_all();
}

void BatchRunner::complete_job(JobState& job) {
    job.result.recount();
    drop_golden_ref(job.golden);
}

void BatchRunner::run_wave(const std::vector<std::size_t>& wave_jobs,
                           Scheduler& pool) {
    // Phase 1+2 (per distinct scenario): golden execution + checkpoint
    // ladder, in parallel across cache misses.
    std::vector<std::pair<std::string, npb::Scenario>> missing;
    for (std::size_t j : wave_jobs) {
        const std::string key = golden_key(jobs_[j]->scenario);
        bool known = golden_for(jobs_[j]->scenario) != nullptr;
        for (const auto& kv : missing) known = known || kv.first == key;
        if (!known) missing.emplace_back(key, jobs_[j]->scenario);
    }
    // Split the snapshot budget across the ladders actually being built this
    // wave (cache hits are base-only after release_all and cost ~nothing).
    LadderOptions ladder_opts = opts_.ladder;
    ladder_opts.memory_budget_bytes =
        opts_.ladder.memory_budget_bytes /
        std::max<std::size_t>(1, missing.size());
    std::vector<std::unique_ptr<GoldenEntry>> built(missing.size());
    {
        tm::Span phase("batch.golden");
        pool.parallel_for(missing.size(), [&](std::size_t i, unsigned) {
            const npb::Scenario& s = missing[i].second;
            tm::Span span("golden:" + s.name());
            sim::Machine m = npb::make_machine(s, false);
            m.set_engine(opts_.engine); // clones (ladder rungs, fault runs) inherit
            CheckpointLadder ladder = run_golden_with_ladder(m, ladder_opts);
            util::check(m.status() == sim::RunStatus::Shutdown,
                        "golden run did not terminate: " + s.name());
            util::check(m.exit_code() == 0, "golden run failed: " + s.name());
            core::GoldenRef ref = core::capture_golden(m);
            const core::Outcome outcome = core::classify(m, ref, false);
            util::check(outcome == core::Outcome::Vanished,
                        "golden run does not classify as Vanished: " + s.name());
            fold_machine(m);
            built[i] = std::make_unique<GoldenEntry>(std::move(ladder),
                                                     std::move(ref), outcome);
        });
    }
    for (std::size_t i = 0; i < missing.size(); ++i)
        golden_cache_.emplace_back(missing[i].first, std::move(built[i]));
    golden_runs_ += missing.size();
    if (tm::enabled()) tm::count("batch.golden_runs", missing.size());

    // Every job of the wave takes its golden reference before any job can
    // complete, so a job with nothing to inject cannot release a ladder
    // another job of the wave still needs.
    for (std::size_t j : wave_jobs) {
        JobState& job = *jobs_[j];
        job.golden = golden_for(job.scenario);
        // A cache hit from an earlier batch has had its rungs released;
        // reinstall the (deterministically rebuilt) base machine.
        if (job.golden->ladder.empty()) {
            sim::Machine base = npb::make_machine(job.scenario, false);
            base.set_engine(opts_.engine);
            job.golden->ladder.reset_base(std::move(base));
        }
        job.golden->active_jobs.fetch_add(1, std::memory_order_relaxed);
    }

    // Phase 3 setup: fault lists (deterministic from seed + golden ref).
    std::vector<std::pair<JobState*, std::uint32_t>> tasks;
    std::vector<JobState*> to_analyze; // pruning: jobs awaiting the diff walk
    for (std::size_t j : wave_jobs) {
        JobState& job = *jobs_[j];
        const sim::Machine& base = job.golden->ladder.base();
        job.result.scenario = job.scenario;
        job.result.golden = job.golden->ref;
        std::vector<core::Fault> full =
            core::make_fault_list(base, job.golden->ref, job.cfg);
        job.fault_space = static_cast<std::uint32_t>(full.size());
        if (job.filter) {
            job.faults.clear();
            job.ordinals.clear();
            for (std::uint32_t i = 0; i < full.size(); ++i) {
                if (!job.filter(i, full[i])) continue;
                job.faults.push_back(full[i]);
                job.ordinals.push_back(i);
            }
        } else {
            job.faults = std::move(full);
        }
        job.result.records.resize(job.faults.size());
        job.budget = static_cast<std::uint64_t>(
                         static_cast<double>(job.golden->ref.total_retired) *
                         job.cfg.watchdog_factor) +
                     200'000;
        if (opts_.prune && !job.faults.empty()) {
            if (core::is_uncore_kind(job.cfg.uncore_kind)) {
                // Pruning's register-diff def-use walk has no theory of
                // cache-tag/cache-data/bus faults: decline cleanly and
                // simulate this job's whole fault list rather than risk a
                // silently mis-inferred outcome. The serep front end already
                // rejects prune+uncore (exit 3); this guards programmatic
                // callers.
                prune_declined_ += job.faults.size();
                if (tm::enabled())
                    tm::count("prune.uncore_declined", job.faults.size());
            } else {
                to_analyze.push_back(&job);
                continue; // tasks queued after the analysis phase below
            }
        }
        job.remaining.store(job.faults.size(), std::memory_order_relaxed);
        if (job.faults.empty()) {
            complete_job(job);
            continue;
        }
        simulated_runs_ += job.faults.size();
        if (tm::enabled()) tm::count("batch.runs_planned", job.faults.size());
        for (std::uint32_t i = 0; i < job.faults.size(); ++i)
            tasks.emplace_back(&job, i);
    }

    // Phase 2.5 (pruning only): one instrumented golden replay per job
    // classifies its whole fault list into equivalence classes — jobs in
    // parallel, like the golden runs themselves. Faults whose corruption
    // never reaches a "real use" get their records written here (inferred);
    // only class representatives join the injection task list, and each
    // representative's record is copied to its followers when it lands.
    {
        tm::Span phase("batch.prune_analyze");
        pool.parallel_for(to_analyze.size(), [&](std::size_t a, unsigned) {
            JobState& job = *to_analyze[a];
            tm::Span span("prune:" + job.scenario.name());
            job.prune = std::make_unique<prune::PruneAnalysis>(
                prune::analyze(job.scenario, opts_.engine, job.faults));
        });
    }
    for (JobState* jp : to_analyze) {
        JobState& job = *jp;
        const prune::PruneAnalysis& pa = *job.prune;
        job.followers.assign(job.faults.size(), {});
        std::size_t reps = 0, follows = 0;
        for (std::uint32_t i = 0; i < job.faults.size(); ++i) {
            const prune::FaultPlan& p = pa.plan[i];
            switch (p.action) {
            case prune::FaultPlan::Action::Simulate:
                ++reps;
                break;
            case prune::FaultPlan::Action::Follow:
                ++follows;
                job.followers[p.rep].push_back(i);
                break;
            case prune::FaultPlan::Action::Infer: {
                core::FaultRecord rec;
                rec.fault = job.faults[i];
                rec.outcome = p.outcome;
                rec.retired = p.retired;
                rec.inferred = true;
                job.result.records[i] = rec;
                break;
            }
            }
        }
        simulated_runs_ += reps;
        inferred_records_ += job.faults.size() - reps;
        if (tm::enabled()) {
            tm::count("prune.simulated", reps);
            tm::count("prune.followed", follows);
            tm::count("prune.inferred", job.faults.size() - reps - follows);
            tm::count("batch.runs_planned", reps);
        }
        // The verify sample clones from this job's ladder after the job
        // completes; hold an extra golden reference so complete_job cannot
        // trim the rungs first.
        if (opts_.prune_verify > 0)
            job.golden->active_jobs.fetch_add(1, std::memory_order_relaxed);
        job.remaining.store(reps, std::memory_order_relaxed);
        if (reps == 0) {
            complete_job(job);
            continue;
        }
        for (std::uint32_t i = 0; i < job.faults.size(); ++i)
            if (pa.plan[i].action == prune::FaultPlan::Action::Simulate)
                tasks.emplace_back(&job, i);
    }

    // Scenario-major task order: scenarios by first appearance in the wave,
    // then jobs, then faults. Each participant takes a contiguous share of
    // the list (and thieves the upper half of one), so consecutive tasks on
    // one ladder let its resident machine rewind instead of re-cloning.
    // Records land at their own index and results return in job order, so
    // no output byte moves.
    {
        std::unordered_map<const GoldenEntry*, std::size_t> scenario_rank;
        std::unordered_map<const JobState*, std::size_t> rank;
        for (std::size_t n = 0; n < wave_jobs.size(); ++n) {
            const JobState* job = jobs_[wave_jobs[n]].get();
            const std::size_t s =
                scenario_rank.try_emplace(job->golden, scenario_rank.size())
                    .first->second;
            rank[job] = s * wave_jobs.size() + n;
        }
        std::stable_sort(tasks.begin(), tasks.end(),
                         [&](const auto& a, const auto& b) {
                             return rank.at(a.first) < rank.at(b.first);
                         });
    }

    // Phase 3: every job's injection runs interleaved on one pool. Each run
    // resumes from the deepest ladder rung at or before its strike instant.
    // A participant keeps one resident machine for the phase: when its last
    // task ran on the same ladder, the resident is rewound to the rung
    // (only the pages it and the rung wrote are copied), else a clone of
    // the rung replaces it. Either way the run starts from the machine
    // clone_nearest returns, bit for bit.
    {
        tm::Span phase("batch.inject");
        struct Resident {
            const CheckpointLadder* ladder = nullptr; ///< null: clone anew
            std::optional<sim::Machine> m;
        };
        std::vector<Resident> residents(pool.threads());
        pool.parallel_for(tasks.size(), [&](std::size_t t, unsigned slot) {
            JobState& job = *tasks[t].first;
            const std::uint32_t i = tasks[t].second;
            const core::Fault& f = job.faults[i];
            const CheckpointLadder& ladder = job.golden->ladder;
            // Cleared until the task completes: a task that throws leaves
            // its resident to be replaced, not rewound.
            Resident& res = residents[slot];
            if (std::exchange(res.ladder, nullptr) == &ladder) {
                ladder.rewind_nearest(*res.m, f.at_retired);
            } else {
                res.m.reset(); // freed before the clone allocates its own
                res.m = ladder.clone_nearest(f.at_retired);
            }
            sim::Machine& run = *res.m;
            const MachineTally at_clone = machine_tally(run);
            const std::uint64_t ff = f.at_retired - at_clone.steps;
            ff_retired_.fetch_add(ff, std::memory_order_relaxed);
            run.run_until(f.at_retired);
            core::FaultRecord rec;
            rec.fault = f;
            const bool live = core::apply_fault(run, f.target);
            // A live strike runs rung to rung and stops at the first golden
            // rung its machine matches (an uncore strike only once its hook
            // has settled).
            const bool converged = live && ladder.run_to_matching_rung(run);
            if (live && !converged) {
                run.run_until(job.budget);
                const bool watchdog = run.status() == sim::RunStatus::Running;
                rec.outcome = core::classify(run, job.golden->ref, watchdog);
                rec.retired = run.total_retired();
            } else {
                // `run` is bit-for-bit the golden machine: at injection (a
                // dead-on-arrival strike changed nothing) or at a rung. The
                // engines being deterministic, its continuation is the golden
                // run. Exact, so the record is not `inferred`.
                rec.outcome = job.golden->outcome;
                rec.retired = job.golden->ref.total_retired;
            }
            job.result.records[i] = rec;
            if (converged) converged_runs_.fetch_add(1, std::memory_order_relaxed);
            if (tm::enabled()) {
                static const tm::MetricId kRuns =
                    tm::counter_id("batch.fault_runs");
                static const tm::MetricId kAnswered =
                    tm::counter_id("batch.answered_at_injection");
                static const tm::MetricId kConverged =
                    tm::counter_id("batch.converged");
                static const tm::MetricId kFastForward =
                    tm::counter_id("batch.ff_steps");
                fold_machine(run, at_clone);
                tm::count(kRuns);
                tm::count(kFastForward, ff);
                if (!live) tm::count(kAnswered);
                if (converged) tm::count(kConverged);
            }
            // Pruning: every member of this representative's equivalence class
            // has a bit-identical faulty future, so its record is this one
            // with the fault field swapped and inferred provenance.
            if (job.prune)
                for (std::uint32_t fi : job.followers[i]) {
                    core::FaultRecord frec = rec;
                    frec.fault = job.faults[fi];
                    frec.inferred = true;
                    job.result.records[fi] = frec;
                }
            res.ladder = &ladder;
            // Phase 4: the finisher merges the job's counts.
            if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
                complete_job(job);
        });
    }

    // Phase 3.5 (prune=verify): re-simulate a seeded sample of the
    // pruning-derived records and demand bit-identical outcome + retired
    // count. Sampling is deterministic (cfg.seed), so CI and a laptop check
    // the same faults. Mismatches are collected and thrown from run_all()
    // after every job has completed.
    if (opts_.prune && opts_.prune_verify > 0) {
        struct VerifyTask {
            JobState* job;
            std::uint32_t i;
        };
        std::vector<VerifyTask> vtasks;
        for (std::size_t j : wave_jobs) {
            JobState& job = *jobs_[j];
            if (!job.prune) continue;
            std::vector<std::uint32_t> derived;
            for (std::uint32_t i = 0; i < job.faults.size(); ++i)
                if (job.prune->plan[i].action !=
                    prune::FaultPlan::Action::Simulate)
                    derived.push_back(i);
            // Partial Fisher-Yates: the first k entries become the sample.
            util::Rng rng(job.cfg.seed ^ 0x7072756e65ULL); // "prune"
            const std::size_t k =
                std::min<std::size_t>(opts_.prune_verify, derived.size());
            for (std::size_t s = 0; s < k; ++s) {
                const std::size_t pick =
                    s + static_cast<std::size_t>(rng.below(derived.size() - s));
                std::swap(derived[s], derived[pick]);
                vtasks.push_back({&job, derived[s]});
            }
        }
        tm::Span phase("batch.prune_verify");
        std::atomic<std::size_t> verified{0};
        pool.parallel_for(vtasks.size(), [&](std::size_t t, unsigned) {
            JobState& job = *vtasks[t].job;
            const std::uint32_t i = vtasks[t].i;
            const core::Fault& f = job.faults[i];
            sim::Machine run = job.golden->ladder.clone_nearest(f.at_retired);
            run.run_until(f.at_retired);
            core::apply_fault(run, f.target);
            run.run_until(job.budget);
            const bool watchdog = run.status() == sim::RunStatus::Running;
            const core::Outcome outcome =
                core::classify(run, job.golden->ref, watchdog);
            const std::uint64_t retired = run.total_retired();
            const core::FaultRecord& rec = job.result.records[i];
            if (outcome == rec.outcome && retired == rec.retired) {
                verified.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            std::lock_guard<std::mutex> lk(verify_mu_);
            verify_failures_.push_back(
                job.scenario.name() + " fault " + std::to_string(i) +
                " (at=" + std::to_string(f.at_retired) +
                "): recorded " + core::outcome_name(rec.outcome) + "/" +
                std::to_string(rec.retired) + ", simulated " +
                core::outcome_name(outcome) + "/" + std::to_string(retired));
        });
        verified_records_ += verified.load(std::memory_order_relaxed);
        if (tm::enabled())
            tm::count("prune.verified", verified.load(std::memory_order_relaxed));
        for (std::size_t j : wave_jobs)
            if (jobs_[j]->prune) drop_golden_ref(jobs_[j]->golden);
    }
}

std::uint32_t BatchRunner::job_fault_space(std::size_t j) const {
    return jobs_.at(j)->fault_space;
}

const std::vector<std::uint32_t>& BatchRunner::job_ordinals(std::size_t j) const {
    return jobs_.at(j)->ordinals;
}

std::vector<core::CampaignResult> BatchRunner::run_all() {
    const std::size_t first = std::exchange(next_job_, jobs_.size());
    Scheduler& pool = scheduler();

    // Pending jobs run in scenario-complete waves spanning at most
    // kMaxLaddersInFlight distinct scenarios each, so the snapshot memory
    // budget holds at any batch size (130-scenario full campaigns included)
    // and every job of a scenario resumes from, and converges at, the
    // scenario's full ladder.
    std::vector<std::string> keys;
    for (std::size_t j = first; j < jobs_.size(); ++j)
        keys.push_back(golden_key(jobs_[j]->scenario));
    for (std::vector<std::size_t>& wave :
         scenario_waves(keys, kMaxLaddersInFlight)) {
        for (std::size_t& j : wave) j += first;
        run_wave(wave, pool);
    }

    if (!verify_failures_.empty()) {
        std::string msg = "prune verify: " +
                          std::to_string(verify_failures_.size()) +
                          " of " + std::to_string(verified_records_ +
                                                  verify_failures_.size()) +
                          " sampled inferred records diverge from simulation:";
        for (const std::string& f : verify_failures_) msg += "\n  " + f;
        throw util::Error(msg);
    }

    std::vector<core::CampaignResult> results;
    results.reserve(jobs_.size() - first);
    for (std::size_t j = first; j < jobs_.size(); ++j)
        results.push_back(std::move(jobs_[j]->result));
    return results;
}

} // namespace serep::orch
