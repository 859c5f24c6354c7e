// Phase-4 database tool: run the campaign an experiment spec declares (the
// paper's full 130-scenario matrix in examples/specs/paper_full_s.json, or
// any slice of it) and write the merged per-fault record database (CSV),
// the per-campaign summaries (JSONL) and the joined profiling dataset
// (CSV) — the artifacts the paper's data-mining tool consumes.
//
//   ./full_campaign ../examples/specs/paper_full_s.json
//   ./full_campaign ../examples/specs/mem_mini.json
//
// The campaign itself is exp::run_experiment, the pipeline `serep run`
// drives: shard databases, resume, merge and the spec's reports, with
// byte-identical outputs. Re-running resumes every finished shard and only
// redoes the merge, the reports and the dataset join. For sharding across
// processes or hosts use `serep run spec.json --shard=k/n` or
// `serep fleet spec.json`, then run this tool for the join.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/driver.hpp"
#include "mine/mining.hpp"
#include "prof/profile.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace serep;

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    try {
        cli.require_known({});
        util::check_usage(cli.positional().size() == 1,
                          "give exactly one experiment spec file "
                          "(full_campaign spec.json)");
        std::ifstream in(cli.positional().front());
        util::check_usage(in.good(), "cannot read experiment spec " +
                                         cli.positional().front());
        std::ostringstream text;
        text << in.rdbuf();
        exp::ExperimentPlan plan(exp::ExperimentSpec::load(text.str()));
        const exp::ExperimentSpec& spec = plan.spec();
        util::check_usage(!spec.out.empty(),
                          "the spec needs an out prefix (the databases and "
                          "the dataset are written next to it)");
        std::printf("campaign over %zu jobs of the paper's matrix, %u faults "
                    "each, %u threads, checkpoints %s\n",
                    plan.jobs().size(), spec.faults, spec.threads,
                    spec.checkpoints ? "on" : "off");

        const exp::DriverResult res = exp::run_experiment(plan);
        // An adaptive experiment whose completion sidecar matched skipped
        // the sizing and has no results in memory to join.
        util::check(res.results.size() == plan.jobs().size(),
                    "no campaign results to join (adaptive experiment "
                    "resumed from " + plan.state_path() +
                        "; delete it to re-run)");

        mine::Dataset dataset;
        for (const core::CampaignResult& r : res.results)
            dataset.add(r, prof::profile_scenario(r.scenario));
        std::ofstream(spec.out + "_dataset.csv") << dataset.to_csv();
        std::printf("wrote %s (per-fault records), %s (per-campaign "
                    "summaries) and %s_dataset.csv (scenario x metric join)\n",
                    plan.csv_path().c_str(), plan.jsonl_path().c_str(),
                    spec.out.c_str());
    } catch (const util::UsageError& e) {
        std::fprintf(stderr, "full_campaign: %s\n", e.what());
        return 2;
    } catch (const util::ValidationError& e) {
        std::fprintf(stderr, "full_campaign: %s\n", e.what());
        return 3;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "full_campaign: %s\n", e.what());
        return 4;
    }
    return 0;
}
