// src/fleet/ — distributed campaign controller: protocol, retry/reassign
// state machine, and the end-to-end byte-identity gate.
//
// Contracts gated here:
//  * The worker protocol is pure argv construction (layer 1): local and ssh
//    spawns carry exactly `run <spec> --shard=k/n --shard-stdout
//    --heartbeat=… [--compress]`, with the spec over stdin and POSIX
//    quoting for the remote shell.
//  * The controller (layer 3) is driven through the WorkerBackend interface
//    with a scripted fake — no processes, no ssh: a worker that dies
//    mid-shard is retried and the campaign completes; a worker that hangs
//    trips the heartbeat timeout, is killed, and its shard is reassigned; a
//    shard that fails every attempt is quarantined with a named
//    ValidationError (exit-3 class), and the shards that DID land stay on
//    disk for resume. The controller sleeps in WorkerBackend::wait and
//    acts on every wake: shards that finish at once land in one wait each.
//  * ProcBackend::wait wakes when a real worker process exits and
//    otherwise honours its timeout.
//  * A real local-proc fleet run (this test execs the serep binary) with a
//    worker SIGKILLed mid-campaign merges byte-identically to the ordinary
//    in-process `serep run` — the repo's core invariant extended across
//    process and (by construction) host boundaries. fleet.worker_runs
//    counts every run even when shards finish inside one heartbeat period.
//  * The spec's `fleet` block is presentation: spec_hash is blind to it,
//    so fleet campaigns resume shard DBs produced by non-fleet runs and
//    vice versa; unknown fleet keys are rejected by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/driver.hpp"
#include "fleet/fleet.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/zframe.hpp"

using namespace serep;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void spit(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << contents;
}

/// Per-test output prefix, scrubbed of everything a previous suite run (or
/// an earlier test) could have left — the resume probe under test must see
/// only what THIS test staged.
std::string tmp_prefix(const std::string& tag) {
    const std::string prefix = testing::TempDir() + "fleet_test_" + tag;
    for (const std::string& suffix :
         {std::string("_faults.csv"), std::string("_campaigns.jsonl"),
          std::string(".exp.json"), std::string(".spec.json")})
        std::remove((prefix + suffix).c_str());
    for (unsigned k = 0; k < 4; ++k) {
        const std::string db = prefix + "_shard" + std::to_string(k) + ".jsonl";
        for (const std::string& suffix :
             {std::string(""), std::string(".zst"), std::string(".worker.log"),
              std::string(".part0"), std::string(".zst.part0"),
              std::string(".part1"), std::string(".zst.part1"),
              std::string(".part2"), std::string(".zst.part2")})
            std::remove((db + suffix).c_str());
    }
    return prefix;
}

/// A small 3-shard experiment; `out` parameterized so fleet and reference
/// runs write side by side. The fleet timings are tuned for test speed —
/// they are hash-neutral, so both spellings are the same experiment.
std::string spec_json(const std::string& out) {
    return R"({
        "name": "fleet-under-test", "out": ")" +
           out + R"(",
        "matrix": {"class": "Mini", "app": ["EP"]},
        "fault": {"kind": "gpr", "faults": 40, "seed": "0xF1EE7"},
        "engine": {"threads": 2},
        "shard": {"count": 3},
        "fleet": {"heartbeat_interval": 0.1, "heartbeat_timeout": 5,
                  "max_retries": 3}
    })";
}

/// Real shard payloads for the fake backend to "stream back": the driver's
/// own worker path (only_shard + shard_stream), so a committed payload is
/// exactly what a live worker would have produced.
std::vector<std::string> make_payloads(const std::string& spec_text,
                                       bool compress) {
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    std::vector<std::string> payloads;
    for (unsigned k = 0; k < plan.shard_count(); ++k) {
        std::ostringstream os;
        exp::DriverOptions o;
        o.only_shard = static_cast<int>(k);
        o.shard_stream = &os;
        o.compress_shards = compress;
        o.log = nullptr;
        exp::run_experiment(plan, o);
        payloads.push_back(os.str());
    }
    return payloads;
}

/// Scripted transport: each launch consumes the next behavior for its
/// shard (parsed back out of the protocol argv, which doubles as a check
/// that the argv really carries the assignment). A scripted worker finishes
/// while the controller waits: it shows as exited from the first wait()
/// after its launch. A hung worker never does, and a wait() with nothing to
/// report sleeps out its timeout, as a real backend's would.
class FakeBackend : public fleet::WorkerBackend {
public:
    enum class Do {
        Succeed,  ///< write the shard's real payload, exit 0
        FailExit, ///< exit 1, no payload
        Garbage,  ///< exit 0 with a non-shard-DB payload
        Truncate, ///< exit 0 with half the payload (killed mid-stream)
        Hang,     ///< never exit; only kill() ends it
    };

    FakeBackend(std::vector<std::string> payloads,
                std::map<unsigned, std::vector<Do>> script)
        : payloads_(std::move(payloads)), script_(std::move(script)) {}

    int launch(const fleet::WorkerSpawn& spawn) override {
        unsigned shard = 0;
        bool found = false;
        for (const std::string& a : spawn.argv) {
            if (a.rfind("--shard=", 0) == 0) {
                shard = static_cast<unsigned>(
                    std::stoul(a.substr(sizeof "--shard=" - 1)));
                found = true;
            }
        }
        EXPECT_TRUE(found) << "spawn argv carries no --shard=k/n";
        auto& plays = script_[shard];
        const Do act = next_[shard] < plays.size() ? plays[next_[shard]]
                                                   : Do::Succeed;
        ++next_[shard];

        const int id = next_id_++;
        Worker w;
        w.hangs = act == Do::Hang;
        w.exit_code = act == Do::FailExit ? 1 : 0;
        switch (act) {
        case Do::Succeed:
            spit(spawn.stdout_path, payloads_[shard]);
            break;
        case Do::Garbage:
            spit(spawn.stdout_path, "{\"magic\":\"not-a-shard\"}\n");
            break;
        case Do::Truncate:
            spit(spawn.stdout_path,
                 payloads_[shard].substr(0, payloads_[shard].size() / 2));
            break;
        case Do::FailExit:
        case Do::Hang:
            break;
        }
        workers_[id] = w;
        return id;
    }

    void wait(double timeout_s) override {
        ++waits_;
        bool exited = false;
        for (auto& [id, w] : workers_) {
            if (w.running && !w.hangs) {
                w.running = false;
                exited = true;
            }
        }
        if (!exited && timeout_s > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(timeout_s));
    }

    Status poll(int worker_id) override {
        const auto& w = workers_.at(worker_id);
        Status s;
        s.running = w.running;
        s.exit_code = w.exit_code;
        return s;
    }

    void kill(int worker_id) override {
        auto& w = workers_.at(worker_id);
        if (!w.running) return;
        w.running = false;
        w.exit_code = 137;
        ++kills_;
    }

    int kills() const { return kills_; }
    int waits() const { return waits_; }
    unsigned launches(unsigned shard) const {
        const auto it = next_.find(shard);
        return it == next_.end() ? 0 : it->second;
    }

private:
    struct Worker {
        bool running = true;
        bool hangs = false; ///< only kill() ends it
        int exit_code = 0;
    };
    std::vector<std::string> payloads_;
    std::map<unsigned, std::vector<Do>> script_;
    std::map<unsigned, unsigned> next_; // launches so far per shard
    std::map<int, Worker> workers_;
    int next_id_ = 1;
    int kills_ = 0;
    int waits_ = 0;
};

/// Fast controller timings for fake-backend tests (no real work happens).
fleet::FleetOptions fast_opts(const std::string& spec_path) {
    fleet::FleetOptions o;
    o.spec_path = spec_path;
    o.compress = false; // fake payloads are plain; framing is zframe_test's
    o.retry_backoff = 0.005;
    o.heartbeat_interval = 0.01;
    o.heartbeat_timeout = 0.25;
    o.log = nullptr;
    return o;
}

} // namespace

// ------------------------------------------------------ layer 1: protocol

TEST(FleetProtocol, WorkerArgvCarriesTheAssignment) {
    fleet::WorkerJob job;
    job.shard = 1;
    job.count = 3;
    job.spec_path = "/tmp/spec.json";
    job.compress = true;
    job.heartbeat_interval = 0.5;
    job.payload_path = "/tmp/out.part0";
    job.log_path = "/tmp/out.log";

    const auto args = fleet::worker_run_args(job);
    ASSERT_EQ(args.size(), 4u);
    EXPECT_EQ(args[0], "--shard=1/3");
    EXPECT_EQ(args[1], "--shard-stdout");
    EXPECT_EQ(args[2], "--heartbeat=0.5");
    EXPECT_EQ(args[3], "--compress");

    job.compress = false;
    EXPECT_EQ(fleet::worker_run_args(job).size(), 3u);
}

TEST(FleetProtocol, LocalSpawnExecsSerepRunOnTheSpecFile) {
    fleet::WorkerJob job;
    job.shard = 2;
    job.count = 3;
    job.spec_path = "/tmp/spec.json";
    job.payload_path = "/tmp/db.part0";
    job.log_path = "/tmp/db.log";

    const fleet::WorkerSpawn s = fleet::local_spawn(job, "/opt/serep");
    ASSERT_GE(s.argv.size(), 5u);
    EXPECT_EQ(s.argv[0], "/opt/serep");
    EXPECT_EQ(s.argv[1], "run");
    EXPECT_EQ(s.argv[2], "/tmp/spec.json");
    EXPECT_EQ(s.argv[3], "--shard=2/3");
    EXPECT_EQ(s.stdin_path, ""); // spec is a local file, stdin unused
    EXPECT_EQ(s.stdout_path, "/tmp/db.part0");
    EXPECT_EQ(s.stderr_path, "/tmp/db.log");
}

TEST(FleetProtocol, SshSpawnFeedsTheSpecOverStdinAndQuotes) {
    fleet::WorkerJob job;
    job.shard = 0;
    job.count = 2;
    job.host = "node7";
    job.spec_path = "/tmp/spec.json";
    job.payload_path = "/tmp/db.part0";
    job.log_path = "/tmp/db.log";

    const fleet::WorkerSpawn s = fleet::ssh_spawn(job, "bin/my serep");
    ASSERT_EQ(s.argv.size(), 5u);
    EXPECT_EQ(s.argv[0], "ssh");
    EXPECT_EQ(s.argv[1], "-o");
    EXPECT_EQ(s.argv[2], "BatchMode=yes");
    EXPECT_EQ(s.argv[3], "node7");
    // The remote command reads the spec from stdin (`run -`) and quotes
    // every token for the shell ssh interposes.
    EXPECT_NE(s.argv[4].find("'bin/my serep' run -"), std::string::npos)
        << s.argv[4];
    EXPECT_NE(s.argv[4].find("'--shard=0/2'"), std::string::npos);
    EXPECT_EQ(s.stdin_path, "/tmp/spec.json");
}

// --------------------------------------- layer 3: scripted fake transport

TEST(FleetController, DeadAndGarbageWorkersAreRetriedToCompletion) {
    const std::string prefix = tmp_prefix("retry");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);
    const auto payloads = make_payloads(spec_text, false);

    // Shard 0: clean. Shard 1: dies, then truncates, then lands. Shard 2:
    // returns a foreign payload once, then lands.
    FakeBackend be(payloads,
                   {{1,
                     {FakeBackend::Do::FailExit, FakeBackend::Do::Truncate,
                      FakeBackend::Do::Succeed}},
                    {2, {FakeBackend::Do::Garbage, FakeBackend::Do::Succeed}}});

    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    const fleet::FleetResult res =
        fleet::run_fleet(plan, fast_opts(spec_path), &be);

    EXPECT_EQ(res.shards_total, 3u);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(res.launched, 6u); // 1 + 3 + 2
    EXPECT_EQ(res.reassigned, 3u);
    EXPECT_TRUE(res.final.merged);
    EXPECT_EQ(be.launches(1), 3u);

    // The merged bytes equal a plain in-process run of the same campaign.
    const std::string ref = tmp_prefix("retry_ref");
    exp::ExperimentPlan ref_plan(
        exp::ExperimentSpec::load(spec_json(ref)));
    exp::DriverOptions direct;
    direct.log = nullptr;
    exp::run_experiment(ref_plan, direct);
    EXPECT_EQ(slurp(prefix + "_faults.csv"), slurp(ref + "_faults.csv"));
    EXPECT_EQ(slurp(prefix + "_campaigns.jsonl"),
              slurp(ref + "_campaigns.jsonl"));
}

TEST(FleetController, HungWorkerTripsHeartbeatTimeoutAndIsReassigned) {
    const std::string prefix = tmp_prefix("hang");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);
    const auto payloads = make_payloads(spec_text, false);

    FakeBackend be(payloads,
                   {{0, {FakeBackend::Do::Hang, FakeBackend::Do::Succeed}}});
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    const fleet::FleetResult res =
        fleet::run_fleet(plan, fast_opts(spec_path), &be);

    // The hung worker never exited on its own: the controller must have
    // killed it (stderr silence > heartbeat_timeout) and relaunched.
    EXPECT_EQ(be.kills(), 1);
    EXPECT_EQ(be.launches(0), 2u);
    EXPECT_EQ(res.reassigned, 1u);
    EXPECT_TRUE(res.final.merged);
}

TEST(FleetController, PoisonShardIsQuarantinedLandedShardsSurvive) {
    const std::string prefix = tmp_prefix("poison");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);
    const auto payloads = make_payloads(spec_text, false);

    FakeBackend be(payloads, {{2,
                               {FakeBackend::Do::FailExit,
                                FakeBackend::Do::FailExit,
                                FakeBackend::Do::FailExit}}});
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    fleet::FleetOptions opts = fast_opts(spec_path);
    opts.max_retries = 3;
    try {
        fleet::run_fleet(plan, opts, &be);
        FAIL() << "poison shard did not quarantine";
    } catch (const util::ValidationError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shard(s) 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("quarantined"), std::string::npos) << msg;
    }
    EXPECT_EQ(be.launches(2), 3u); // exactly the retry budget

    // Shards 0 and 1 landed and stay on disk: a re-run after the operator
    // fixes the cause resumes them (phase-0 probe) instead of re-running.
    exp::ExperimentPlan probe_plan(exp::ExperimentSpec::load(spec_text));
    std::string found;
    EXPECT_EQ(exp::probe_shard_db(probe_plan, 0, 3, &found),
              exp::ShardDbState::Match);
    EXPECT_EQ(exp::probe_shard_db(probe_plan, 1, 3, &found),
              exp::ShardDbState::Match);
    EXPECT_EQ(exp::probe_shard_db(probe_plan, 2, 3, &found),
              exp::ShardDbState::Missing);

    // Re-run with the shard healed: only shard 2 launches.
    FakeBackend be2(payloads, {});
    exp::ExperimentPlan plan2(exp::ExperimentSpec::load(spec_text));
    const fleet::FleetResult res2 = fleet::run_fleet(plan2, opts, &be2);
    EXPECT_EQ(res2.resumed, 2u);
    EXPECT_EQ(res2.launched, 1u);
    EXPECT_TRUE(res2.final.merged);
}

TEST(FleetController, WakesOnExitsAndDeadlinesOnly) {
    const std::string prefix = tmp_prefix("waits");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);
    const auto payloads = make_payloads(spec_text, false);

    // One slot, so each shard needs a wait of its own: three shards, three
    // wakes. A controller that slept on past an exit would wait more often.
    FakeBackend be(payloads, {});
    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    fleet::FleetOptions opts = fast_opts(spec_path);
    opts.workers = 1;
    const fleet::FleetResult res = fleet::run_fleet(plan, opts, &be);
    EXPECT_EQ(res.launched, 3u);
    EXPECT_TRUE(res.final.merged);
    EXPECT_LE(be.waits(), 4);

    // A hung worker costs one wait until its heartbeat deadline, not one
    // per tick: 0.25 s of 10 ms ticks would be 25 waits.
    const std::string prefix2 = tmp_prefix("waits_hang");
    const std::string spec_text2 = spec_json(prefix2);
    const std::string spec_path2 = prefix2 + ".spec.json";
    spit(spec_path2, spec_text2);
    FakeBackend hang(make_payloads(spec_text2, false),
                     {{0, {FakeBackend::Do::Hang, FakeBackend::Do::Succeed}}});
    exp::ExperimentPlan plan2(exp::ExperimentSpec::load(spec_text2));
    const fleet::FleetResult res2 =
        fleet::run_fleet(plan2, fast_opts(spec_path2), &hang);
    EXPECT_EQ(hang.kills(), 1);
    EXPECT_TRUE(res2.final.merged);
    EXPECT_LE(hang.waits(), 6);
}

// ------------------------------------------- end to end: real serep binary

#if defined(SEREP_TEST_BIN)
TEST(ProcBackend, WaitReturnsWhenAWorkerExits) {
    using clock = std::chrono::steady_clock;
    const auto seconds_since = [](clock::time_point t) {
        return std::chrono::duration<double>(clock::now() - t).count();
    };
    fleet::ProcBackend be;
    const int sleeper = be.launch({{"sleep", "30"}, "", "", ""});
    const auto t0 = clock::now();
    const int quick = be.launch({{SEREP_TEST_BIN, "version"}, "", "", ""});
    // The short worker's exit ends the wait long before its 10 s timeout.
    while (be.poll(quick).running && seconds_since(t0) < 10) be.wait(10);
    EXPECT_LT(seconds_since(t0), 2.0);
    EXPECT_EQ(be.poll(quick).exit_code, 0);
    EXPECT_TRUE(be.poll(sleeper).running);

    // Only the sleeper is left: the wait runs out its timeout.
    const auto t1 = clock::now();
    be.wait(0.05);
    EXPECT_GE(seconds_since(t1), 0.05);
    EXPECT_TRUE(be.poll(sleeper).running);
    be.kill(sleeper);
    EXPECT_FALSE(be.poll(sleeper).running);
}

TEST(FleetE2E, KilledWorkerFleetMergesByteIdenticalToDirectRun) {
    const std::string prefix = tmp_prefix("e2e");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);

    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    fleet::FleetOptions opts = fleet::fleet_options_from_spec(plan.spec());
    opts.spec_path = spec_path;
    opts.serep_exe = SEREP_TEST_BIN; // this test binary is not serep
    opts.workers = 3;
    opts.kill_shard = 1; // SIGKILL shard 1's first worker right after launch
    opts.retry_backoff = 0.05;
    opts.log = nullptr;

    const fleet::FleetResult res = fleet::run_fleet(plan, opts);
    EXPECT_EQ(res.launched, 4u); // 3 shards + 1 reassignment
    EXPECT_EQ(res.reassigned, 1u);
    EXPECT_TRUE(res.final.merged);

    // Compressed transport landed compressed shard DBs.
    const std::string z = slurp(prefix + "_shard0.jsonl.zst");
    EXPECT_TRUE(util::zframe_is(z));

    const std::string ref = tmp_prefix("e2e_ref");
    exp::ExperimentPlan ref_plan(exp::ExperimentSpec::load(spec_json(ref)));
    exp::DriverOptions direct;
    direct.log = nullptr;
    exp::run_experiment(ref_plan, direct);
    EXPECT_EQ(slurp(prefix + "_faults.csv"), slurp(ref + "_faults.csv"));
    EXPECT_EQ(slurp(prefix + "_campaigns.jsonl"),
              slurp(ref + "_campaigns.jsonl"));
}

TEST(FleetE2E, WorkerRunsCountShardsShorterThanOneHeartbeat) {
    // Every shard finishes long before its first periodic beat, so only the
    // beacon a worker writes as it exits can carry its totals.
    const std::string prefix = tmp_prefix("hbcount");
    const std::string spec_text = spec_json(prefix);
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_text);

    exp::ExperimentPlan plan(exp::ExperimentSpec::load(spec_text));
    fleet::FleetOptions opts = fleet::fleet_options_from_spec(plan.spec());
    opts.spec_path = spec_path;
    opts.serep_exe = SEREP_TEST_BIN;
    opts.workers = 3;
    opts.heartbeat_interval = 600;
    opts.heartbeat_timeout = 1200;
    opts.log = nullptr;

    telemetry::reset();
    telemetry::set_enabled(true);
    const fleet::FleetResult res = fleet::run_fleet(plan, opts);
    telemetry::set_enabled(false);
    ASSERT_TRUE(res.final.merged);
    EXPECT_EQ(res.launched, 3u);

    // No pruning: every record of the merged database is one simulated run.
    const std::string csv = slurp(prefix + "_faults.csv");
    const auto lines = static_cast<std::uint64_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    ASSERT_GT(lines, 1u);
    EXPECT_EQ(telemetry::counter_value("fleet.worker_runs"), lines - 1);
    EXPECT_GT(telemetry::counter_value("fleet.worker_steps"), 0u);
}

TEST(FleetCli, MalformedFlagsExitTwoBeforeAnyWorkerLaunches) {
    // `serep fleet`'s topology flags pass the spec's own validate(), and
    // numeric flags take their whole value: each case exits 2 naming the
    // flag or its spec key, and the controller launches no worker.
    const std::string prefix = tmp_prefix("badflags");
    const std::string spec_path = prefix + ".spec.json";
    spit(spec_path, spec_json(prefix));
    const struct {
        const char* flag;
        const char* named;
    } cases[] = {
        {"--max-retries=101", "fleet.max_retries"},
        {"--heartbeat-interval=0", "fleet.heartbeat_interval"},
        {"--workers=4294967297", "--workers"},
        {"--kill-shard=x", "--kill-shard"},
    };
    const std::string out = prefix + ".out", err = prefix + ".err";
    fleet::ProcBackend be;
    for (const auto& c : cases) {
        SCOPED_TRACE(c.flag);
        const int id = be.launch(
            {{SEREP_TEST_BIN, "fleet", spec_path, c.flag}, "", out, err});
        while (be.poll(id).running) be.wait(10);
        EXPECT_EQ(be.poll(id).exit_code, 2);
        const std::string msg = slurp(err);
        EXPECT_NE(msg.find(c.named), std::string::npos) << msg;
        EXPECT_EQ(slurp(out), "");
        for (unsigned k = 0; k < 3; ++k) {
            const std::string db =
                prefix + "_shard" + std::to_string(k) + ".jsonl";
            for (const std::string& f :
                 {db + ".worker.log", db, db + ".zst"})
                EXPECT_FALSE(std::ifstream(f).good()) << f << " exists";
        }
    }
    std::remove(out.c_str());
    std::remove(err.c_str());
}

TEST(FleetCli, LocalBackendFlagRunsAnSshSpecLocally) {
    // Hosts only address the ssh backend, so `--backend=local-proc` on a
    // spec that names ssh hosts passes validate() and runs every shard on
    // this machine (the one host is localhost all the same).
    const std::string prefix = tmp_prefix("local_override");
    const std::string spec_path = prefix + ".spec.json";
    exp::ExperimentSpec spec = exp::ExperimentSpec::load(spec_json(prefix));
    spec.fleet_backend = "ssh";
    spec.fleet_hosts = {"localhost"};
    spit(spec_path, spec.canonical_json());

    const std::string out = prefix + ".out", err = prefix + ".err";
    fleet::ProcBackend be;
    const int id = be.launch({{SEREP_TEST_BIN, "fleet", spec_path,
                               "--backend=local-proc"},
                              "", out, err});
    while (be.poll(id).running) be.wait(10);
    EXPECT_EQ(be.poll(id).exit_code, 0) << slurp(err);
    EXPECT_NE(slurp(out).find("0 resumed, 3 launched, 0 reassigned, "
                              "databases merged"),
              std::string::npos)
        << slurp(out);
    EXPECT_NE(slurp(prefix + "_faults.csv"), "");
    std::remove(out.c_str());
    std::remove(err.c_str());
}
#endif

// --------------------------------------------------- spec: fleet block

TEST(FleetSpec, FleetBlockIsHashNeutralAndRoundTrips) {
    const std::string with = spec_json("hashes");
    const std::string without = R"({
        "name": "fleet-under-test", "out": "hashes",
        "matrix": {"class": "Mini", "app": ["EP"]},
        "fault": {"kind": "gpr", "faults": 40, "seed": "0xF1EE7"},
        "engine": {"threads": 2},
        "shard": {"count": 3}
    })";
    const exp::ExperimentSpec a = exp::ExperimentSpec::load(with);
    const exp::ExperimentSpec b = exp::ExperimentSpec::load(without);
    // Same experiment: fleet topology must never fork the shard-DB universe.
    EXPECT_EQ(a.spec_hash(), b.spec_hash());
    EXPECT_DOUBLE_EQ(a.fleet_heartbeat_interval, 0.1);
    EXPECT_EQ(a.fleet_max_retries, 3u);

    // Canonical form is a fixed point and preserves the block.
    const exp::ExperimentSpec c = exp::ExperimentSpec::load(a.canonical_json());
    EXPECT_EQ(a.canonical_json(), c.canonical_json());
    EXPECT_DOUBLE_EQ(c.fleet_heartbeat_interval, 0.1);

    // Typos are named, exactly like every other spec block.
    try {
        exp::ExperimentSpec::load(
            R"({"fleet": {"hartbeat_interval": 1}})");
        FAIL() << "unknown fleet key accepted";
    } catch (const util::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("hartbeat_interval"),
                  std::string::npos)
            << e.what();
    }

    // Option seeding mirrors the block field by field.
    const fleet::FleetOptions o = fleet::fleet_options_from_spec(a);
    EXPECT_DOUBLE_EQ(o.heartbeat_interval, 0.1);
    EXPECT_DOUBLE_EQ(o.heartbeat_timeout, 5.0);
    EXPECT_EQ(o.max_retries, 3u);
    EXPECT_EQ(o.backend, "local-proc");
}
