// Parallelization-API scenario (the paper's §4.2 story): the same kernel
// serial vs OpenMP-style vs MPI-style on four cores — workload balance,
// kernel/API vulnerability windows, and outcome distributions.
//
//   ./examples/api_explorer [--app MG] [--faults 120] [--cores 4]
#include <cstdio>

#include "exp/driver.hpp"
#include "prof/profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace serep;

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    npb::App app = npb::App::MG;
    const std::string name = cli.get("app", "MG");
    for (npb::App a : npb::kAllApps)
        if (name == npb::app_name(a)) app = a;
    const unsigned faults = static_cast<unsigned>(cli.get_int("faults", 120));
    const unsigned cores = static_cast<unsigned>(cli.get_int("cores", 4));

    // The variants as one in-memory experiment spec (explicit cells, no out
    // prefix): their campaigns share one pool, results in cell order.
    exp::ExperimentSpec spec;
    spec.out.clear();
    spec.klass = "S";
    spec.cross_product = false;
    for (npb::Api api : {npb::Api::Serial, npb::Api::OMP, npb::Api::MPI}) {
        if (!npb::app_has_api(app, api)) continue;
        const unsigned c = api == npb::Api::Serial ? 1 : cores;
        if (api == npb::Api::MPI && !npb::mpi_cores_allowed(app, c)) continue;
        spec.cells.push_back({"v8", npb::app_name(app), npb::api_name(api), c});
    }
    spec.faults = faults;
    exp::ExperimentPlan plan(std::move(spec));
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    const exp::DriverResult res = exp::run_experiment(plan, quiet);

    util::Table t({"variant", "instr", "balance dev%", "kernel%", "api%",
                   "masked%", "UT%", "Hang%"});
    for (const core::CampaignResult& r : res.results) {
        const npb::Scenario& s = r.scenario;
        const auto pd = prof::profile_scenario(s);
        t.add_row({s.name(), std::to_string(pd.instructions),
                   util::Table::num(pd.balance_dev_pct, 1),
                   util::Table::num(pd.kernel_share, 1),
                   util::Table::num(pd.api_share, 1),
                   util::Table::num(r.masked_pct(), 1),
                   util::Table::num(r.pct(core::Outcome::UT), 1),
                   util::Table::num(r.pct(core::Outcome::Hang), 1)});
    }
    std::printf("=== %s on ARMv8, serial vs OMP vs MPI (%u faults each)\n\n%s\n",
                npb::app_name(app), faults, t.str().c_str());
    std::printf("The paper's §4.2 mechanisms to look for: MPI balances work\n"
                "more evenly; OMP's fork/join leaves cores idle in the kernel\n"
                "scheduler; both libraries' windows stay a bounded share.\n");
    return 0;
}
