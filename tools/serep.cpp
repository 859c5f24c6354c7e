// serep — the campaign command-line front end.
//
// The primary interface is declarative: ONE JSON experiment spec names the
// whole pipeline (scenario matrix, fault model, engine knobs, shard
// partitioning, report outputs — see src/exp/spec.hpp and the README's
// "Experiment specs" section):
//
//   serep run spec.json                 whole experiment: plan -> shard/run
//                                       -> merge -> report, with resume
//   serep run spec.json --shard=1/4     one shard of the spec (remote worker)
//   serep plan spec.json                dry run: job list, shard layout,
//                                       estimated work — nothing executes
//
// `run` is resumable: a shard outcome database already on disk whose
// manifest carries this spec's hash is skipped; one with a different hash
// is refused (exit 3) instead of silently blended. Re-running `run` after
// remote workers produced the `--shard` pieces therefore just merges and
// reports. `plan` probes golden lengths once for weighted partitions and
// prints the weight vector so it can be baked into the spec.
//
//   serep fleet spec.json               fan the shards out to worker
//                                       processes or ssh hosts, then merge
//   serep report [--format=md|csv|json] db1 [db2 ...]
//   serep version                       build provenance
//
// Every subcommand audits its flags: an unknown --flag is a usage error
// (exit 2) naming the offender, never a silent no-op; an unknown
// subcommand is named the same way.
//
// Prefer --key=value forms for value-carrying flags: a bare `--key value`
// greedily eats the next token, which matters once positional spec/database
// operands follow. Value-less flags (--partial, --compress, ...) are
// declared to the parser and never consume the following operand.
//
// Exit codes (also in --help): 0 success; 2 usage error (bad flags or spec,
// unknown subcommand, a matrix that selects nothing); 3 validation failure
// (shard databases that do not belong together, resume spec-hash mismatch,
// corrupt or incomplete databases); 4 runtime error (I/O, internal failure).
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "exp/driver.hpp"
#include "fleet/fleet.hpp"
#include "stats/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace serep;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitValidation = 3;
constexpr int kExitRuntime = 4;

/// Load a spec file named as the single positional operand after the
/// subcommand. The operand `-` reads the spec from stdin — that is how
/// ssh fleet workers receive it (the controller pipes the spec file in,
/// so remote hosts need no shared filesystem).
exp::ExperimentSpec load_spec_operand(const util::Cli& cli,
                                      const char* subcommand) {
    const auto& pos = cli.positional();
    util::check_usage(pos.size() == 2,
                      std::string(subcommand) +
                          ": give exactly one experiment spec file (serep " +
                          subcommand + " spec.json)");
    std::ostringstream ss;
    if (pos[1] == "-") {
        ss << std::cin.rdbuf();
        util::check_usage(!ss.str().empty(),
                          "spec operand '-' given but stdin is empty");
    } else {
        std::ifstream in(pos[1]);
        util::check_usage(in.good(), "cannot read experiment spec " + pos[1]);
        ss << in.rdbuf();
    }
    return exp::ExperimentSpec::load(ss.str());
}

/// Worker-liveness beacon: `hb <i>` on stderr every `interval` seconds.
/// The fleet controller watches the worker's stderr file grow; any growth
/// counts as a heartbeat, so log lines and hb lines both prove liveness —
/// the beacon matters exactly when a long shard would otherwise be silent.
/// With telemetry on (worker mode enables it), each beat carries a progress
/// snapshot — `hb <i> {"elapsed_s":..,"runs":..,...}` — which the fleet
/// controller parses into its live-progress aggregation and its
/// kill/quarantine diagnostics (fleet::parse_worker_snapshot). One final
/// beat is written when the beacon stops, so even a shard that finishes
/// inside its first interval reports its complete totals, which the
/// controller folds into fleet.worker_runs / fleet.worker_steps on commit.
class Heartbeat {
public:
    explicit Heartbeat(double interval) {
        if (interval <= 0) return;
        th_ = std::thread([this, interval] {
            std::unique_lock<std::mutex> lk(m_);
            for (unsigned long long i = 1;; ++i) {
                const bool last =
                    cv_.wait_for(lk, std::chrono::duration<double>(interval),
                                 [this] { return stop_; });
                if (telemetry::enabled())
                    std::fprintf(stderr, "hb %llu %s\n", i,
                                 telemetry::progress_json().c_str());
                else
                    std::fprintf(stderr, "hb %llu\n", i);
                std::fflush(stderr);
                if (last) return;
            }
        });
    }
    ~Heartbeat() {
        if (!th_.joinable()) return;
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        th_.join();
    }

private:
    std::thread th_;
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/// Parse `--shard=K/N` and check it against the spec's declared count.
int parse_shard_selector(const std::string& sel, unsigned spec_shards) {
    const std::size_t slash = sel.find('/');
    util::check_usage(slash != std::string::npos && slash > 0 &&
                          slash + 1 < sel.size(),
                      "--shard must be K/N (e.g. --shard=0/4), got '" + sel +
                          "'");
    char* end = nullptr;
    const unsigned long k = std::strtoul(sel.c_str(), &end, 10);
    util::check_usage(end == sel.c_str() + slash,
                      "--shard: bad shard index in '" + sel + "'");
    const char* nstart = sel.c_str() + slash + 1;
    const unsigned long n = std::strtoul(nstart, &end, 10);
    util::check_usage(end && *end == '\0' && n >= 1,
                      "--shard: bad shard count in '" + sel + "'");
    util::check_usage(
        n == spec_shards,
        "--shard=" + sel + " disagrees with the spec's shard.count=" +
            std::to_string(spec_shards) + " — edit the spec or drop --shard");
    util::check_usage(k < n, "--shard: index " + std::to_string(k) +
                                 " out of range (count " + std::to_string(n) +
                                 ")");
    return static_cast<int>(k);
}

int cmd_run(const util::Cli& cli) {
    cli.require_known({"shard", "prune", "shard-stdout", "heartbeat",
                       "compress", "metrics-out", "trace-out"});
    exp::ExperimentSpec spec = load_spec_operand(cli, "run");
    exp::ExperimentPlan plan(std::move(spec));

    exp::DriverOptions opts;
    const std::string sel = cli.get("shard", "");
    if (!sel.empty())
        opts.only_shard = parse_shard_selector(sel, plan.shard_count());
    const std::string prune = cli.get("prune", "");
    if (prune == "off") {
        opts.prune = exp::PruneMode::Off;
    } else if (prune == "on") {
        opts.prune = exp::PruneMode::On;
    } else if (prune == "verify") {
        opts.prune = exp::PruneMode::Verify;
    } else {
        util::check_usage(prune.empty(),
                          "--prune must be off, on or verify (got '" + prune +
                              "')");
    }
    opts.compress_shards = cli.has("compress");
    opts.metrics_out = cli.get("metrics-out", "");
    opts.trace_out = cli.get("trace-out", "");

    // Worker mode: --shard-stdout streams the one shard's database to
    // stdout (zstd-framed with --compress) instead of writing it next to
    // the spec's outputs. Stdout then carries NOTHING but the payload, so
    // the listing, driver log, and summary all move to stderr.
    const bool worker = cli.has("shard-stdout");
    util::check_usage(!worker || !sel.empty(),
                      "--shard-stdout requires --shard=K/N (a worker streams "
                      "exactly one shard)");
    if (worker) {
        opts.shard_stream = &std::cout;
        opts.log = stderr;
    }
    const double hb = cli.get_double("heartbeat", 0.0);
    util::check_usage(hb >= 0,
                      "--heartbeat must be >= 0 seconds (0 turns it off)");
    // A heartbeating worker turns telemetry on so its beacon carries
    // progress snapshots for the controller — out of band by construction
    // (stderr only; the shard payload bytes never change).
    if (worker && hb > 0) telemetry::set_enabled(true);
    Heartbeat beacon(hb);

    // The dry-run listing doubles as the run preamble. It never probes:
    // a fully-resumed run must stay golden-run-free, so an unbaked
    // weighted cut is probed lazily by the driver — once per process —
    // and only when a shard actually has to execute.
    std::FILE* info = worker ? stderr : stdout;
    std::fputs(plan.listing().c_str(), info);
    const exp::DriverResult res = exp::run_experiment(plan, opts);
    std::fprintf(info, "run: %zu shard(s) executed, %zu resumed%s%s\n",
                 res.shards_run, res.shards_skipped,
                 res.merged ? ", databases merged" : "",
                 res.report_written ? ", reports rendered" : "");
    if (worker) std::cout.flush();
    return kExitOk;
}

int cmd_fleet(const util::Cli& cli) {
    cli.require_known({"backend", "hosts", "workers", "workers-per-host",
                       "heartbeat-interval", "heartbeat-timeout",
                       "max-retries", "no-compress", "serep-exe", "remote-cmd",
                       "kill-shard", "metrics-out", "trace-out"});
    const auto& pos = cli.positional();
    util::check_usage(pos.size() == 2 && pos[1] != "-",
                      "fleet: give exactly one experiment spec FILE (workers "
                      "re-read it, so stdin is not accepted)");
    exp::ExperimentSpec spec = load_spec_operand(cli, "fleet");

    // The topology flags override the spec's hash-neutral fleet block and
    // pass the same validate() as its keys: `--max-retries=101` is refused
    // like `"fleet": {"max_retries": 101}`.
    if (cli.has("backend")) spec.fleet_backend = cli.get("backend", "");
    const std::string hosts = cli.get("hosts", "");
    if (!hosts.empty()) {
        spec.fleet_hosts.clear();
        std::size_t at = 0;
        while (at <= hosts.size()) {
            const std::size_t comma = hosts.find(',', at);
            spec.fleet_hosts.push_back(hosts.substr(
                at, comma == std::string::npos ? std::string::npos
                                               : comma - at));
            if (comma == std::string::npos) break;
            at = comma + 1;
        }
        if (!cli.has("backend")) spec.fleet_backend = "ssh";
    }
    // Hosts only address the ssh backend: `--backend=local-proc` runs an
    // ssh spec on this machine.
    if (cli.has("backend") && spec.fleet_backend != "ssh")
        spec.fleet_hosts.clear();
    const auto count = [&](const char* flag, unsigned& field) {
        const std::int64_t v = cli.get_int(flag, field);
        util::check_usage(v >= 0 && v <= 0xFFFFFFFF,
                          std::string("fleet: --") + flag +
                              " must be in [0, 4294967295]");
        field = static_cast<unsigned>(v);
    };
    count("workers", spec.fleet_workers);
    count("workers-per-host", spec.fleet_workers_per_host);
    count("max-retries", spec.fleet_max_retries);
    spec.fleet_heartbeat_interval =
        cli.get_double("heartbeat-interval", spec.fleet_heartbeat_interval);
    spec.fleet_heartbeat_timeout =
        cli.get_double("heartbeat-timeout", spec.fleet_heartbeat_timeout);
    if (cli.has("no-compress")) spec.fleet_compress = false;
    spec.fleet_remote_cmd = cli.get("remote-cmd", spec.fleet_remote_cmd);

    exp::ExperimentPlan plan(std::move(spec)); // validate()s the overrides
    fleet::FleetOptions opts = fleet::fleet_options_from_spec(plan.spec());
    opts.spec_path = pos[1];
    if (cli.has("serep-exe")) opts.serep_exe = cli.get("serep-exe", "");
    if (cli.has("kill-shard")) {
        // CI/chaos hook: SIGKILL the first attempt at this shard right
        // after launch, proving the reassignment path end to end.
        const std::int64_t k = cli.get_int("kill-shard", -1);
        util::check_usage(k >= 0 && k <= 0x7FFFFFFF,
                          "fleet: --kill-shard must be a shard index >= 0");
        opts.kill_shard = static_cast<int>(k);
    }
    opts.metrics_out = cli.get("metrics-out", "");
    opts.trace_out = cli.get("trace-out", "");

    const fleet::FleetResult res = fleet::run_fleet(plan, opts);
    std::printf("fleet: %zu shard(s) — %zu resumed, %zu launched, "
                "%zu reassigned%s%s\n",
                res.shards_total, res.resumed, res.launched, res.reassigned,
                res.final.merged ? ", databases merged" : "",
                res.final.report_written ? ", reports rendered" : "");
    return kExitOk;
}

int cmd_plan(const util::Cli& cli) {
    cli.require_known({});
    exp::ExperimentSpec spec = load_spec_operand(cli, "plan");
    exp::ExperimentPlan plan(std::move(spec));
    // `plan` is the one place that probes an unbaked weighted cut: the
    // estimate and the printed weights vector are the point of a dry run,
    // and baking that vector into the spec makes every subsequent `run`
    // probe-free.
    if (!plan.weights_ready()) plan.weights();
    std::fputs(plan.listing().c_str(), stdout);
    return kExitOk;
}

int cmd_report(const util::Cli& cli) {
    cli.require_known(
        {"format", "confidence", "top-regs", "out", "partial", "no-inferred"});
    // files[0] == "report". --partial and --no-inferred are declared boolean
    // flags, so they never consume the following database operand.
    std::vector<std::string> files(cli.positional().begin() + 1,
                                   cli.positional().end());
    util::check_usage(!files.empty(),
                      "report: give the database files (shard DBs, campaign "
                      "JSONL, or per-fault CSV) after the 'report' subcommand");
    const double confidence = cli.get_double("confidence", 0.95);
    util::check_usage(confidence > 0 && confidence < 1,
                      "report: --confidence must be in (0, 1)");
    const std::int64_t top_regs = cli.get_int("top-regs", 8);
    util::check_usage(top_regs >= 0, "report: --top-regs must be >= 0");

    stats::OutcomeTally tally;
    tally.set_include_inferred(!cli.has("no-inferred"));
    for (const std::string& file : files) {
        std::ifstream in(file);
        util::check(in.good(), "cannot read database " + file);
        std::ostringstream ss;
        ss << in.rdbuf();
        tally.add_database(ss.str(), file);
    }
    if (tally.inferred_records() > 0) {
        // Provenance note on stderr so report bytes stay comparable across
        // pruned and unpruned campaigns. total_records() counts only what
        // was folded, so add the excluded records back for the "of" total.
        const std::uint64_t ingested =
            tally.total_records() +
            (cli.has("no-inferred") ? tally.inferred_records() : 0);
        std::fprintf(stderr,
                     "report: %llu of %llu records carry inferred outcomes "
                     "(equivalence pruning)%s\n",
                     static_cast<unsigned long long>(tally.inferred_records()),
                     static_cast<unsigned long long>(ingested),
                     cli.has("no-inferred") ? " — excluded (--no-inferred)"
                                            : "");
    }
    if (!tally.shard_cover_complete()) {
        // Rates over a subset of shards are a sample of the campaign, not
        // the campaign; make that an explicit choice, not an accident of a
        // forgotten file (merge hard-fails on the same situation).
        util::check_valid(cli.has("partial"),
                          "report: only " + std::to_string(tally.shards_seen()) +
                              " of " + std::to_string(tally.shard_count()) +
                              " shard databases given — pass --partial to "
                              "report on an incomplete campaign sample");
        std::fprintf(stderr,
                     "report: partial campaign sample (%zu of %u shards)\n",
                     tally.shards_seen(), tally.shard_count());
    }

    stats::ReportOptions opts;
    opts.confidence = confidence;
    opts.top_registers = static_cast<std::size_t>(top_regs);
    const std::string format = cli.get("format", "md");
    if (format == "md") {
        opts.format = stats::ReportOptions::Format::Markdown;
    } else if (format == "csv") {
        opts.format = stats::ReportOptions::Format::Csv;
    } else {
        util::check_usage(format == "json",
                          "unknown --format '" + format + "' (md | csv | json)");
        opts.format = stats::ReportOptions::Format::FigureJson;
    }

    const std::string report = stats::render_report(tally, opts);
    const std::string out = cli.get("out", "");
    if (out.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        std::ofstream os(out);
        util::check(os.good(), "cannot open output file " + out);
        os << report;
        util::check(os.good(), "error writing " + out);
        std::printf("report: %zu databases, %llu records -> %s\n",
                    tally.databases(),
                    static_cast<unsigned long long>(tally.total_records()),
                    out.c_str());
    }
    return kExitOk;
}

int cmd_version(const util::Cli& cli) {
    cli.require_known({"version"}); // `serep --version` parses as a flag
    const telemetry::BuildInfo bi = telemetry::build_info();
    std::printf("serep %s\n", bi.version.c_str());
    std::printf("compiler: %s (C++%ld)\n", bi.compiler.c_str(),
                bi.cxx_standard);
    std::printf("build: %s\n",
                bi.build_type.empty() ? "unknown" : bi.build_type.c_str());
    std::printf("zstd: %s\n", bi.zstd ? "yes" : "no");
    return kExitOk;
}

/// Shared tail of every subcommand's --help: the exit-code contract.
constexpr const char* kExitContract =
    "\n"
    "exit codes:\n"
    "  0  success\n"
    "  2  usage error (unknown flag, bad value, malformed spec)\n"
    "  3  validation failure (incompatible or corrupt databases, resume\n"
    "     spec-hash mismatch, quarantined poison shards)\n"
    "  4  runtime error (I/O or internal failure)\n";

/// `serep <subcommand> --help`: focused flag reference, one line per flag,
/// ending in the exit-code contract. Golden-tested (tests/golden/help_*.txt)
/// so help drift fails CI. Returns -1 for a mode with no dedicated page.
int help_for(const std::string& mode) {
    static const struct {
        const char* mode;
        const char* text;
    } pages[] = {
        {"run",
         "usage: serep run SPEC.json [flags]\n"
         "\n"
         "Execute the whole experiment the spec declares (golden -> shard/run\n"
         "-> merge -> report), with resume: finished shard DBs matching the\n"
         "spec hash are skipped, mismatches refused. SPEC may be '-' (stdin).\n"
         "\n"
         "flags:\n"
         "  --shard=K/N        run only shard K of the spec's N (remote\n"
         "                     worker); re-running `run SPEC` merges\n"
         "  --prune=off|on|verify  override the spec's equivalence-pruning\n"
         "                     block (verify re-simulates a seeded sample)\n"
         "  --compress         land shard DBs zstd-framed (.jsonl.zst);\n"
         "                     merge/report/resume read both forms\n"
         "  --shard-stdout     worker mode: stream the one shard's DB to\n"
         "                     stdout (requires --shard; listing, log and\n"
         "                     summary move to stderr)\n"
         "  --heartbeat=SECS   emit `hb <i>` on stderr every SECS seconds so\n"
         "                     a fleet controller can tell slow from dead\n"
         "                     (with --shard-stdout the beats carry progress\n"
         "                     snapshots the controller aggregates)\n"
         "  --metrics-out=FILE write a metrics.json telemetry sidecar\n"
         "                     (counters, phase timings, build provenance —\n"
         "                     out of band: output bytes are unchanged)\n"
         "  --trace-out=FILE   write Chrome trace-event JSON of the phase\n"
         "                     spans; load in Perfetto (see docs/telemetry.md)\n"},
        {"plan",
         "usage: serep plan SPEC.json\n"
         "\n"
         "Dry run: spec hash, job ids, shard layout, estimated work; nothing\n"
         "executes. Weighted specs probe golden lengths once and print a\n"
         "bakeable weights line. SPEC may be '-' (stdin).\n"
         "\n"
         "flags: none\n"},
        {"fleet",
         "usage: serep fleet SPEC.json [flags]\n"
         "\n"
         "Distribute the spec's shards across workers, stream their DBs back\n"
         "(zstd-framed), retry/reassign dead workers, then merge + report —\n"
         "byte-identical to `serep run SPEC.json`. Flags override the spec's\n"
         "(hash-neutral) `fleet` block field by field. See docs/fleet.md.\n"
         "\n"
         "flags:\n"
         "  --backend=local-proc|ssh  worker transport [spec, else local-proc]\n"
         "  --hosts=h1,h2,...  ssh destinations (implies --backend=ssh)\n"
         "  --workers=N        concurrent workers; 0 = auto (local-proc:\n"
         "                     min(shards, 8); ssh: hosts x workers-per-host)\n"
         "  --workers-per-host=N   ssh workers per host [1]\n"
         "  --heartbeat-interval=SECS  worker `hb` period [1]\n"
         "  --heartbeat-timeout=SECS   stderr silence -> presumed dead [30]\n"
         "  --max-retries=N    attempts per shard before quarantine [3]\n"
         "  --no-compress      stream/land plain JSONL instead of .jsonl.zst\n"
         "  --serep-exe=PATH   local worker binary [this binary]\n"
         "  --remote-cmd=CMD   serep spelling on ssh hosts [serep]\n"
         "  --kill-shard=K     chaos hook: SIGKILL shard K's first attempt\n"
         "                     right after launch (CI reassignment gate)\n"
         "  --metrics-out=FILE write one merged fleet metrics.json (controller\n"
         "                     counters + aggregated worker snapshots)\n"
         "  --trace-out=FILE   write Chrome trace-event JSON of the\n"
         "                     controller's phase spans (Perfetto)\n"},
        {"report",
         "usage: serep report [flags] DB1 [DB2 ...]\n"
         "\n"
         "Outcome-rate tables + confidence intervals from databases (shard\n"
         "DBs — plain or .zst — campaign JSONL, or per-fault CSV, auto-\n"
         "detected). Mixing a shard set with its own merged DB is refused.\n"
         "\n"
         "flags:\n"
         "  --format=md|csv|json [md]  report format\n"
         "  --confidence=C [0.95]      CI level (0 < C < 1)\n"
         "  --top-regs=N [8]   rows in the per-register table\n"
         "  --out=FILE         write the report here [stdout]\n"
         "  --partial          allow an incomplete shard cover (rates are a\n"
         "                     sample of the campaign — e.g. mid-fleet)\n"
         "  --no-inferred      tally only simulated records, dropping\n"
         "                     pruning-inferred outcomes\n"},
        {"version",
         "usage: serep version   (or: serep --version)\n"
         "\n"
         "Print build provenance: serep release, compiler and C++ standard,\n"
         "CMake build type, and whether libzstd was linked. The same facts\n"
         "are embedded in every telemetry metrics.json provenance block.\n"
         "\n"
         "flags: none\n"},
    };
    for (const auto& p : pages) {
        if (mode == p.mode) {
            std::fputs(p.text, stdout);
            std::fputs(kExitContract, stdout);
            return kExitOk;
        }
    }
    return -1;
}

int usage(std::FILE* to) {
    std::fprintf(
        to,
        "usage: serep run|plan|fleet|report|version [--key=value ...]\n"
        "  run SPEC.json       execute the whole experiment the spec declares\n"
        "                      (golden -> shard/run -> merge -> report), with\n"
        "                      resume: finished shard DBs matching the spec\n"
        "                      hash are skipped, mismatches refused\n"
        "  run SPEC --shard=K/N   run one shard of the spec (remote worker);\n"
        "                      re-running `run SPEC` merges gathered shards\n"
        "  run SPEC --prune=off|on|verify   override the spec's equivalence-\n"
        "                      pruning block: on simulates one representative\n"
        "                      per fault-equivalence class and infers the\n"
        "                      rest (records flagged \"inferred\"); verify\n"
        "                      additionally re-simulates a seeded sample of\n"
        "                      inferred faults and fails on any mismatch\n"
        "  plan SPEC.json      dry run: spec hash, job ids, shard layout,\n"
        "                      estimated work; weighted specs probe golden\n"
        "                      lengths once and print a bakeable weights line\n"
        "  fleet SPEC.json     distribute the spec's shards across workers\n"
        "                      (--backend=local-proc|ssh --hosts=h1,h2,...),\n"
        "                      stream shard DBs back zstd-framed, retry dead\n"
        "                      workers, merge + report byte-identically to\n"
        "                      `serep run` — see `serep fleet --help`\n"
        "  report    outcome-rate tables + confidence intervals from DBs\n"
        "  version   build provenance (compiler, build type, libzstd)\n"
        "\n"
        "telemetry (run / fleet): --metrics-out=FILE writes a metrics.json\n"
        "  sidecar (counters, phase timings, provenance) and --trace-out=FILE\n"
        "  a Perfetto-loadable Chrome trace of the phase spans — both\n"
        "  strictly out of band: outcome databases and reports are byte-\n"
        "  identical with or without them (see docs/telemetry.md)\n"
        "\n"
        "report options: --format=md|csv|json [md]  --confidence=C [0.95]\n"
        "  --top-regs=N [8]  --out=FILE [stdout]  --partial (allow an\n"
        "  incomplete shard cover)  --no-inferred (tally only simulated\n"
        "  records, dropping pruning-inferred outcomes), then the database\n"
        "  files. Value-less flags like --partial are declared and never\n"
        "  consume the following operand (fixed; no --partial=1 needed)\n"
        "  (shard DBs, campaign JSONL, and per-fault CSV are auto-detected;\n"
        "   shard DBs are config-hash + partition checked against each other,\n"
        "   and mixing a shard set with its own merged DB is refused — every\n"
        "   fault must appear in exactly one input)\n"
        "\n"
        "every subcommand rejects flags it does not know (exit 2, naming the\n"
        "flag), and documents itself: `serep <subcommand> --help`; see\n"
        "docs/spec-schema.md for the spec JSON schema and docs/fleet.md for\n"
        "distributed campaigns\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  2  usage error (bad flags or spec, unknown subcommand, a matrix\n"
        "     that selects nothing)\n"
        "  3  validation failure (incompatible or corrupt databases, resume\n"
        "     spec-hash mismatch)\n"
        "  4  runtime error (I/O or internal failure)\n");
    return to == stdout ? kExitOk : kExitUsage;
}

} // namespace

int main(int argc, char** argv) {
    // Declaring the value-less flags up front keeps a bare `--partial` (etc.)
    // from greedily eating the next positional operand — see util::Cli.
    util::Cli cli(argc, argv,
                  {"help", "partial", "no-inferred", "shard-stdout",
                   "compress", "no-compress", "version"});
    const std::string mode =
        cli.positional().empty() ? "" : cli.positional().front();
    if (cli.has("help")) {
        const int paged = help_for(mode);
        if (paged >= 0) return paged;
        if (mode.empty()) return usage(stdout);
        // An unknown subcommand with --help is still unknown (below).
    }
    try {
        if (mode == "version" || (mode.empty() && cli.has("version")))
            return cmd_version(cli);
        if (mode == "run") return cmd_run(cli);
        if (mode == "plan") return cmd_plan(cli);
        if (mode == "fleet") return cmd_fleet(cli);
        if (mode == "report") return cmd_report(cli);
    } catch (const util::UsageError& e) {
        std::fprintf(stderr, "serep %s: %s\n", mode.c_str(), e.what());
        return kExitUsage;
    } catch (const util::ValidationError& e) {
        std::fprintf(stderr, "serep %s: %s\n", mode.c_str(), e.what());
        return kExitValidation;
    } catch (const util::Error& e) {
        std::fprintf(stderr, "serep %s: %s\n", mode.c_str(), e.what());
        return kExitRuntime;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serep %s: %s\n", mode.c_str(), e.what());
        return kExitRuntime;
    }
    if (!mode.empty())
        std::fprintf(stderr, "serep: unknown subcommand '%s'\n", mode.c_str());
    return usage(stderr);
}
