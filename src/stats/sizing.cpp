#include "stats/sizing.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "npb/npb.hpp"
#include "stats/ci.hpp"
#include "util/check.hpp"

namespace serep::stats {

namespace {

/// Widest Wilson half-width across the five outcome rates at sample size n.
double max_rate_half_width(
    const std::array<std::uint64_t, core::kOutcomeCount>& counts,
    std::uint64_t n, double confidence) {
    double worst = 0;
    for (std::uint64_t k : counts)
        worst = std::max(worst, wilson(k, n, confidence).half_width());
    return worst;
}

struct JobProgress {
    std::vector<core::Fault> full;    ///< the fixed campaign's fault list
    std::vector<std::uint32_t> order; ///< content-id draw order
    std::uint32_t drawn = 0;          ///< prefix length injected so far
    std::vector<std::pair<std::uint32_t, core::FaultRecord>> records;
    std::array<std::uint64_t, core::kOutcomeCount> counts{};
    AdaptiveJobResult out;
    bool active = true;
};

} // namespace

std::vector<std::uint32_t> content_id_order(
    const std::vector<core::Fault>& faults) {
    std::vector<std::uint32_t> order(faults.size());
    for (std::uint32_t i = 0; i < faults.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  const std::uint64_t ia = orch::fault_id(faults[a]);
                  const std::uint64_t ib = orch::fault_id(faults[b]);
                  return ia != ib ? ia < ib : a < b;
              });
    return order;
}

namespace {

/// One bounded chunk of jobs run to convergence on its own runner. The
/// runner keeps its ladders alive across rounds (retain_ladders), so the
/// chunk size caps how many ladders can be resident at once — the caller
/// slices big campaigns so adaptive memory stays bounded like a fixed
/// batch's waves.
std::vector<AdaptiveJobResult> run_adaptive_chunk(
    const std::vector<orch::ShardJobSpec>& jobs, orch::BatchOptions opts,
    const StatsOptions& stats) {
    opts.retain_ladders = true; // rounds re-queue the same scenarios
    orch::BatchRunner runner(opts);

    // Opening pass: golden runs only (reject-all filters). This seeds the
    // golden cache and the ladders, and yields each job's golden reference —
    // everything needed to regenerate the deterministic full fault list.
    for (const orch::ShardJobSpec& j : jobs)
        runner.add(j.scenario, j.cfg,
                   [](std::uint32_t, const core::Fault&) { return false; });
    const std::vector<core::CampaignResult> goldens = runner.run_all();

    std::vector<JobProgress> prog(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        JobProgress& p = prog[j];
        const sim::Machine base = npb::make_machine(jobs[j].scenario, false);
        p.full = core::make_fault_list(base, goldens[j].golden, jobs[j].cfg);
        p.order = content_id_order(p.full);
        p.out.fault_space = static_cast<std::uint32_t>(p.full.size());
        p.out.result.scenario = jobs[j].scenario;
        p.out.result.golden = goldens[j].golden;
    }

    // The opening draw is sized so the stopping rule has a chance to fire:
    // below min_trials_for_half_width() even an all-masked sample cannot
    // meet the target, so smaller first rounds would always need a second.
    const std::uint32_t first_draw =
        static_cast<std::uint32_t>(std::max<std::uint64_t>(
            {stats.batch_faults, stats.min_faults,
             min_trials_for_half_width(stats.target_half_width,
                                       stats.confidence)}));

    bool any_active = true;
    while (any_active) {
        // Queue one prefix-extension batch per still-active job.
        std::vector<std::pair<std::size_t, std::size_t>> queued; // (job, runner idx)
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            JobProgress& p = prog[j];
            if (!p.active) continue;
            const std::uint32_t want =
                p.drawn == 0 ? first_draw : stats.batch_faults;
            const std::uint32_t hi =
                static_cast<std::uint32_t>(std::min<std::size_t>(
                    p.full.size(), static_cast<std::size_t>(p.drawn) + want));
            auto batch = std::make_shared<std::unordered_set<std::uint32_t>>();
            for (std::uint32_t i = p.drawn; i < hi; ++i)
                batch->insert(p.order[i]);
            const std::size_t idx =
                runner.add(jobs[j].scenario, jobs[j].cfg,
                           [batch](std::uint32_t ord, const core::Fault&) {
                               return batch->count(ord) != 0;
                           });
            p.drawn = hi;
            queued.emplace_back(j, idx);
        }
        const std::vector<core::CampaignResult> round = runner.run_all();
        util::check(round.size() == queued.size(),
                    "adaptive campaign: round result count mismatch");

        any_active = false;
        for (std::size_t r = 0; r < queued.size(); ++r) {
            JobProgress& p = prog[queued[r].first];
            const core::CampaignResult& res = round[r];
            const std::vector<std::uint32_t>& ords =
                runner.job_ordinals(queued[r].second);
            util::check(ords.size() == res.records.size(),
                        "adaptive campaign: ordinal/record count mismatch");
            for (std::size_t i = 0; i < res.records.size(); ++i) {
                p.records.emplace_back(ords[i], res.records[i]);
                p.counts[static_cast<unsigned>(res.records[i].outcome)]++;
            }
            p.out.rounds += 1;
            p.out.max_half_width =
                max_rate_half_width(p.counts, p.drawn, stats.confidence);
            const bool met = p.drawn >= stats.min_faults &&
                             p.out.max_half_width <= stats.target_half_width;
            const bool exhausted = p.drawn == p.full.size();
            if (met || exhausted) {
                p.active = false;
                p.out.converged = met;
            }
            any_active = any_active || p.active;
        }
    }

    // Assemble each job's result in ascending full-list ordinal order — the
    // same relative order the fixed-count campaign stores these records in,
    // so the prefix-identity gate can compare rows positionally.
    std::vector<AdaptiveJobResult> out;
    out.reserve(jobs.size());
    for (JobProgress& p : prog) {
        std::sort(p.records.begin(), p.records.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        p.out.ordinals.reserve(p.records.size());
        p.out.result.records.reserve(p.records.size());
        for (auto& [ord, rec] : p.records) {
            p.out.ordinals.push_back(ord);
            p.out.result.records.push_back(rec);
        }
        p.out.result.recount();
        out.push_back(std::move(p.out));
    }
    return out;
}

} // namespace

std::vector<AdaptiveJobResult> run_adaptive_campaign(
    const std::vector<orch::ShardJobSpec>& jobs, orch::BatchOptions opts,
    const StatsOptions& stats) {
    util::check_usage(!jobs.empty(), "adaptive campaign: empty job list");
    util::check_usage(stats.target_half_width > 0 &&
                          stats.target_half_width < 0.5,
                      "adaptive campaign: target half-width must be in (0, 0.5)");
    util::check_usage(stats.confidence > 0 && stats.confidence < 1,
                      "adaptive campaign: confidence must be in (0, 1)");
    util::check_usage(stats.batch_faults > 0,
                      "adaptive campaign: batch size must be positive");

    // Retained ladders cost one scenario's snapshots each for the chunk's
    // whole multi-round lifetime; slice the campaign into the fixed batch's
    // scenario-complete waves, so at most as many are resident as a wave
    // would build and each scenario's golden run and ladder serve all of
    // its jobs. A 130-scenario `--target-ci` campaign therefore peaks at
    // wave memory, not campaign memory.
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    for (const orch::ShardJobSpec& j : jobs)
        keys.push_back(orch::scenario_cache_key(j.scenario));
    std::vector<AdaptiveJobResult> out(jobs.size());
    for (const std::vector<std::size_t>& wave :
         orch::scenario_waves(keys, orch::kMaxLaddersInFlight)) {
        std::vector<orch::ShardJobSpec> chunk;
        chunk.reserve(wave.size());
        for (std::size_t j : wave) chunk.push_back(jobs[j]);
        std::vector<AdaptiveJobResult> part =
            run_adaptive_chunk(chunk, opts, stats);
        for (std::size_t k = 0; k < wave.size(); ++k)
            out[wave[k]] = std::move(part[k]);
    }
    return out;
}

} // namespace serep::stats
