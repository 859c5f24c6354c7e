// Two speedup ablations:
//
// 1. Paper §4.1.1: ARMv8-vs-ARMv7 per-application speedup. The paper reports
//    up to ~10x runtime speedup and a ~25x average executed-instruction
//    reduction, attributed to hardware FP replacing the soft-float library.
//
// 2. Orchestrator checkpoint ladder: a campaign with the golden-run
//    checkpoint ladder vs the stride-disabled path (every injection run
//    fast-forwards from reset). The ladder bounds per-fault replay to one
//    stride, cutting average per-fault work from ~1 golden run to ~0.5, so
//    the ladder path should be >= 1.5x faster wall-clock with identical
//    outcome counts. Run with --section ladder (or isa, or both; default
//    both).
#include "bench_common.hpp"

using namespace serep;
using namespace serep::bench;

namespace {

void isa_section(const Opts& o) {
    std::printf("=== ARMv8 vs ARMv7 speedup per application (serial, class %s)\n\n",
                o.klass == npb::Klass::S ? "S" : "Mini");
    util::Table t({"app", "v7 instr", "v8 instr", "instr ratio", "tick ratio",
                   "v7 softfloat%"});
    double worst = 0, best = 1e30;
    for (npb::App app : npb::kAllApps) {
        const npb::Scenario s7{isa::Profile::V7, app, npb::Api::Serial, 1, o.klass};
        const npb::Scenario s8{isa::Profile::V8, app, npb::Api::Serial, 1, o.klass};
        const auto p7 = prof::profile_scenario(s7);
        const auto p8 = prof::profile_scenario(s8);
        const double ir = static_cast<double>(p7.instructions) /
                          static_cast<double>(p8.instructions);
        const double tr =
            static_cast<double>(p7.ticks) / static_cast<double>(p8.ticks);
        worst = std::max(worst, ir);
        best = std::min(best, ir);
        t.add_row({npb::app_name(app), std::to_string(p7.instructions),
                   std::to_string(p8.instructions), util::Table::num(ir, 1) + "x",
                   util::Table::num(tr, 1) + "x",
                   util::Table::num(p7.softfloat_share, 1)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("instruction-ratio range: %.1fx (integer apps) .. %.1fx "
                "(FP-heavy apps). Paper: up to ~10x time, ~25x instructions.\n\n",
                best, worst);
}

core::CampaignResult timed_campaign(const npb::Scenario& s,
                                    const core::CampaignConfig& cfg,
                                    unsigned threads, bool ladder,
                                    double& seconds, std::uint64_t& ff_work) {
    orch::BatchOptions opts;
    opts.threads = threads;
    opts.ladder.enabled = ladder;
    orch::BatchRunner runner(opts);
    runner.add(s, cfg);
    Stopwatch sw;
    auto results = runner.run_all();
    seconds = sw.seconds();
    ff_work = runner.fast_forward_retired();
    return std::move(results.front());
}

/// Guest instructions the injection phase executes: checkpoint->strike
/// fast-forward plus the faulty runs themselves (identical on both paths).
std::uint64_t injection_work(const core::CampaignResult& r, std::uint64_t ff) {
    std::uint64_t work = ff;
    for (const auto& rec : r.records) work += rec.retired - rec.fault.at_retired;
    return work;
}

int ladder_section(const Opts& o, unsigned threads) {
    const npb::Scenario s{isa::Profile::V7, npb::App::LU, npb::Api::Serial, 1,
                          o.klass};
    core::CampaignConfig cfg;
    cfg.n_faults = o.faults;
    cfg.seed = o.seed;
    std::printf("=== checkpoint ladder vs stride-disabled (from-reset) replay\n"
                "    %s, %u faults, %u threads\n\n",
                s.name().c_str(), cfg.n_faults, threads);

    double t_flat = 0, t_ladder = 0;
    std::uint64_t ff_flat = 0, ff_ladder = 0;
    const auto flat = timed_campaign(s, cfg, threads, false, t_flat, ff_flat);
    const auto laddered = timed_campaign(s, cfg, threads, true, t_ladder, ff_ladder);

    const bool identical = flat.counts == laddered.counts;
    // Gate on the deterministic instruction-work ratio, not wall clock:
    // timing on a loaded CI runner flakes, replayed-instruction counts don't.
    const double work_speedup =
        static_cast<double>(injection_work(flat, ff_flat)) /
        static_cast<double>(injection_work(laddered, ff_ladder));
    util::Table t({"path", "wall s", "ff instr", "V", "ONA", "OMM", "UT", "Hang"});
    auto row = [&](const char* name, double secs, std::uint64_t ff,
                   const core::CampaignResult& r) {
        t.add_row({name, util::Table::num(secs, 3), std::to_string(ff),
                   std::to_string(r.counts[0]), std::to_string(r.counts[1]),
                   std::to_string(r.counts[2]), std::to_string(r.counts[3]),
                   std::to_string(r.counts[4])});
    };
    row("stride-disabled", t_flat, ff_flat, flat);
    row("checkpoint ladder", t_ladder, ff_ladder, laddered);
    std::printf("%s\n", t.str().c_str());
    std::printf("outcome counts identical: %s\n", identical ? "yes" : "NO");
    std::printf("injection-work speedup: %.2fx (deterministic; target >= 1.5x)\n",
                work_speedup);
    std::printf("wall-clock speedup: %.2fx (informational)\n", t_flat / t_ladder);
    if (!identical) {
        std::printf("FAIL: checkpoint ladder changed campaign outcomes\n");
        return 1;
    }
    if (work_speedup < 1.5) {
        std::printf("FAIL: ladder injection-work speedup below 1.5x\n");
        return 1;
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Opts o = Opts::parse(argc, argv, 150);
    util::Cli cli(argc, argv);
    const std::string section = cli.get("section", "both");
    if (section != "isa" && section != "ladder" && section != "both") {
        std::fprintf(stderr, "unknown --section '%s' (isa | ladder | both)\n",
                     section.c_str());
        return 2;
    }
    // The acceptance comparison runs on 4 threads unless overridden.
    const unsigned threads = static_cast<unsigned>(cli.get_int("threads", 4));
    if (section == "isa" || section == "both") isa_section(o);
    if (section == "ladder" || section == "both") return ladder_section(o, threads);
    return 0;
}
