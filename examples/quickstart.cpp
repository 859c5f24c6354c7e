// Quickstart: build one scenario, run its golden execution, inject a small
// fault campaign, print the outcome distribution.
//
//   ./examples/quickstart [--app EP] [--isa v7|v8] [--faults 100]
#include <cstdio>

#include "exp/driver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace serep;

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);

    npb::Scenario s;
    s.isa = cli.get("isa", "v8") == "v7" ? isa::Profile::V7 : isa::Profile::V8;
    s.app = npb::App::EP;
    const std::string app = cli.get("app", "EP");
    for (npb::App a : npb::kAllApps)
        if (app == npb::app_name(a)) s.app = a;
    s.api = npb::Api::Serial;
    s.cores = 1;
    s.klass = npb::Klass::S;

    std::printf("scenario: %s\n\n", s.name().c_str());

    // 1. golden execution
    sim::Machine m = npb::make_machine(s, false);
    m.run_until(~0ULL >> 1);
    std::printf("golden run: %s, exit %d, %llu instructions, %llu ticks\n",
                sim::run_status_name(m.status()), m.exit_code(),
                static_cast<unsigned long long>(m.total_retired()),
                static_cast<unsigned long long>(m.time_ticks()));
    std::printf("console:\n%s\n", m.output(0).c_str());

    // 2-4. fault campaign: a one-cell experiment spec with no out prefix
    // runs in memory and hands the results back.
    exp::ExperimentSpec spec;
    spec.out.clear();
    spec.klass = npb::klass_name(s.klass);
    spec.cross_product = false;
    spec.cells = {{isa::profile_short_name(s.isa), npb::app_name(s.app),
                   npb::api_name(s.api), s.cores}};
    spec.faults = static_cast<unsigned>(cli.get_int("faults", 100));
    exp::ExperimentPlan plan(std::move(spec));
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    const core::CampaignResult r =
        exp::run_experiment(plan, quiet).results.front();
    util::Table t({"outcome", "count", "share"});
    for (unsigned o = 0; o < core::kOutcomeCount; ++o) {
        const auto oc = static_cast<core::Outcome>(o);
        t.add_row({core::outcome_name(oc), std::to_string(r.counts[o]),
                   util::Table::pct(r.pct(oc))});
    }
    std::printf("%u register bit-flips, uniformly random over the application "
                "lifespan:\n%s\nmasking rate (Vanished+ONA): %.1f%%\n",
                plan.spec().faults, t.str().c_str(), r.masked_pct());
    return 0;
}
