// ISA comparison scenario (the paper's §4.1 story): run the same kernel on
// the ARMv7-like and ARMv8-like profiles and compare instruction counts,
// instruction mix and soft-float library exposure, then contrast the
// fault-outcome distributions.
//
//   ./examples/isa_compare [--app CG] [--faults 120]
#include <cstdio>

#include "exp/driver.hpp"
#include "prof/profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace serep;

int main(int argc, char** argv) {
    util::Cli cli(argc, argv);
    npb::App app = npb::App::CG;
    const std::string name = cli.get("app", "CG");
    for (npb::App a : npb::kAllApps)
        if (name == npb::app_name(a)) app = a;
    const unsigned faults = static_cast<unsigned>(cli.get_int("faults", 120));

    // Both ISAs as one in-memory experiment spec (explicit cells, no out
    // prefix): results come back in cell order, v7 then v8.
    exp::ExperimentSpec spec;
    spec.out.clear();
    spec.klass = "S";
    spec.cross_product = false;
    spec.cells = {{"v7", npb::app_name(app), "SER", 1},
                  {"v8", npb::app_name(app), "SER", 1}};
    spec.faults = faults;
    exp::ExperimentPlan plan(std::move(spec));
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    const std::vector<core::CampaignResult> r =
        exp::run_experiment(plan, quiet).results;

    util::Table t({"metric", "ARMv7 (A9-like)", "ARMv8 (A72-like)"});
    prof::ProfileData p[2];
    for (int i = 0; i < 2; ++i) p[i] = prof::profile_scenario(r[i].scenario);
    auto row = [&](const char* m, double a, double b, int prec = 1) {
        t.add_row({m, util::Table::num(a, prec), util::Table::num(b, prec)});
    };
    row("instructions", static_cast<double>(p[0].instructions),
        static_cast<double>(p[1].instructions), 0);
    row("ticks (exec time)", static_cast<double>(p[0].ticks),
        static_cast<double>(p[1].ticks), 0);
    row("branch %", p[0].branch_pct, p[1].branch_pct);
    row("memory-instruction %", p[0].mem_pct, p[1].mem_pct);
    row("FP-instruction %", p[0].fp_pct, p[1].fp_pct);
    row("soft-float library share %", p[0].softfloat_share, p[1].softfloat_share);
    row("masked (Vanished+ONA) %", r[0].masked_pct(), r[1].masked_pct());
    row("UT %", r[0].pct(core::Outcome::UT), r[1].pct(core::Outcome::UT));
    row("Hang %", r[0].pct(core::Outcome::Hang), r[1].pct(core::Outcome::Hang));
    std::printf("=== %s serial, both ISAs (%u faults each)\n\n%s\n",
                npb::app_name(app), faults, t.str().c_str());
    std::printf("ARMv8 executes %.1fx fewer instructions -> proportionally "
                "smaller exposure window (paper §4.1.1: better MTBF).\n",
                static_cast<double>(p[0].instructions) /
                    static_cast<double>(p[1].instructions));
    return 0;
}
