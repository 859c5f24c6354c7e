// Shared helpers for the paper-table/figure benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>
#include <cstdio>
#include <map>
#include <string>

#include "core/campaign.hpp"
#include "exp/driver.hpp"
#include "mine/mining.hpp"
#include "prof/profile.hpp"
#include "stats/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace serep::bench {

struct Opts {
    unsigned faults = 100;
    unsigned threads = 2;
    npb::Klass klass = npb::Klass::S;
    std::uint64_t seed = 0xDAC2018;

    static Opts parse(int argc, const char* const* argv, unsigned default_faults) {
        util::Cli cli(argc, argv);
        Opts o;
        o.faults = static_cast<unsigned>(cli.get_int("faults", default_faults));
        o.threads = static_cast<unsigned>(cli.get_int("threads", 2));
        const std::string k = cli.get("class", "S");
        o.klass = k == "Mini" ? npb::Klass::Mini
                  : k == "W" ? npb::Klass::W
                             : npb::Klass::S;
        o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0xDAC2018));
        return o;
    }

    core::CampaignConfig campaign_config() const {
        core::CampaignConfig c;
        c.n_faults = faults;
        c.seed = seed;
        return c;
    }
};

/// One scenario's campaign on its own BatchRunner. Unlike run_fi_batch it
/// takes any Scenario, including ones a spec cell cannot name
/// (bench_compilerflags' contract_fma = false ablation).
inline core::CampaignResult run_fi(const npb::Scenario& s, const Opts& o) {
    orch::BatchOptions bopts;
    bopts.threads = std::max(1u, o.threads);
    orch::BatchRunner runner(bopts);
    runner.add(s, o.campaign_config());
    return std::move(runner.run_all().front());
}

/// Run many scenarios as one orchestrated batch, phrased as an in-memory
/// experiment spec (explicit cells, no output files) executed by the
/// exp::Driver — the same pipeline `serep run` drives. Golden runs are
/// cached per scenario and every campaign's fault runs interleave on one
/// work-stealing pool. Results come back in scenario order (the planner
/// preserves explicit-cell order).
inline std::vector<core::CampaignResult> run_fi_batch(
    const std::vector<npb::Scenario>& scenarios, const Opts& o) {
    exp::ExperimentSpec spec;
    spec.name = "bench";
    spec.out.clear(); // in-memory: results only, no database files
    spec.klass = npb::klass_name(o.klass);
    spec.cross_product = false;
    for (const auto& s : scenarios)
        spec.cells.push_back({isa::profile_short_name(s.isa),
                              npb::app_name(s.app), npb::api_name(s.api),
                              s.cores});
    spec.faults = o.faults;
    spec.seed = o.seed;
    spec.threads = std::max(1u, o.threads);
    exp::ExperimentPlan plan(std::move(spec));
    exp::DriverOptions dopts;
    dopts.log = nullptr; // the table drivers print their own rows
    return exp::run_experiment(plan, dopts).results;
}

/// "SER-1" / "MPI-4" style column id used in the paper's figures.
inline std::string cell_id(npb::Api api, unsigned cores) {
    return std::string(npb::api_name(api)) + "-" + std::to_string(cores);
}

/// Fold campaign results into a stats tally (the shared table pipeline).
inline stats::OutcomeTally tally_results(
    const std::vector<core::CampaignResult>& results) {
    stats::OutcomeTally t;
    for (const core::CampaignResult& r : results) t.add_result(r);
    return t;
}

/// Stats-table key of a scenario's campaign (register campaigns are "gpr").
inline stats::GroupKey scenario_key(const npb::Scenario& s,
                                    const std::string& kind = "gpr") {
    stats::GroupKey key = stats::parse_scenario_name(s.name());
    key.kind = kind;
    return key;
}

/// Print the shared outcome-rate table (rates % with Wilson CI half-widths)
/// for a batch of campaign results, plus any driver-specific metric columns.
inline void print_outcome_table(const std::vector<core::CampaignResult>& results,
                                const stats::ExtraColumns* extra = nullptr) {
    const stats::OutcomeTally t = tally_results(results);
    std::printf("%s\n",
                stats::render_outcome_table(t, stats::ReportOptions{}, extra)
                    .c_str());
}

inline std::vector<std::string> outcome_cells(const core::CampaignResult& r) {
    using core::Outcome;
    return {util::Table::pct(r.pct(Outcome::Vanished)),
            util::Table::pct(r.pct(Outcome::ONA)),
            util::Table::pct(r.pct(Outcome::OMM)),
            util::Table::pct(r.pct(Outcome::UT)),
            util::Table::pct(r.pct(Outcome::Hang))};
}

class Stopwatch {
public:
    Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
    double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point t0_;
};

} // namespace serep::bench
