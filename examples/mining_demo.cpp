// Cross-layer data mining (the paper's §3.4 tool): join fault-injection
// outcomes with profiling metrics over a set of scenarios, export the
// database as CSV and mine the strongest software symptoms for each
// outcome class (e.g. memory-instruction share vs UT, §4.1.4).
//
//   ./examples/mining_demo [--faults 80] [--csv out.csv]
#include <cstdio>
#include <fstream>

#include "exp/driver.hpp"
#include "mine/mining.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace serep;

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    const unsigned faults = static_cast<unsigned>(cli.get_int("faults", 80));

    // The scenarios as one in-memory experiment spec (explicit cells, no
    // out prefix): one campaign per cell, results in cell order.
    exp::ExperimentSpec spec;
    spec.out.clear();
    spec.klass = "S";
    spec.cross_product = false;
    for (const char* isa : {"v7", "v8"})
        for (const char* app : {"EP", "IS", "CG", "MG", "LU", "DC"})
            spec.cells.push_back({isa, app, "SER", 1});
    spec.faults = faults;
    exp::ExperimentPlan plan(std::move(spec));
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    std::printf("building dataset (this runs one campaign per scenario)...\n");
    const exp::DriverResult res = exp::run_experiment(plan, quiet);
    mine::Dataset d;
    for (const core::CampaignResult& r : res.results) {
        d.add(r, prof::profile_scenario(r.scenario));
        std::printf("  %s done\n", r.scenario.name().c_str());
    }

    const std::string csv_path = cli.get("csv", "");
    if (!csv_path.empty()) {
        std::ofstream(csv_path) << d.to_csv();
        std::printf("database written to %s\n", csv_path.c_str());
    }

    for (const char* target : {"pct_UT", "pct_Hang", "pct_masked"}) {
        util::Table t({"feature", "pearson r"});
        int shown = 0;
        for (const auto& c : mine::correlations(d, target)) {
            if (c.key.rfind("pct_", 0) == 0) continue; // skip outcome columns
            t.add_row({c.key, util::Table::num(c.r, 3)});
            if (++shown == 6) break;
        }
        std::printf("\nstrongest software symptoms for %s:\n%s", target,
                    t.str().c_str());
    }
    std::printf("\nExpect mem_pct / rd_wr_ratio near the top for UT (the\n"
                "paper's §4.1.4) and calls x branches features for Hang (§4.1.3).\n");
    return 0;
}
