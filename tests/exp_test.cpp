// src/exp/ — the declarative experiment-spec API.
//
// Contracts gated here:
//  * Specs round-trip: load -> canonical_json -> load is the identity, and
//    the canonical form is a fixed point.
//  * The spec hash is stable under JSON field reordering and blind to
//    presentation/execution knobs (name, out, reports, engine, threads) —
//    but moves with every experiment-identity field (matrix, fault model,
//    shard partitioning).
//  * Malformed specs are rejected with actionable messages that name the
//    offending key (unknown keys included — a typo must never silently
//    reconfigure a campaign).
//  * The planner preserves explicit-cell order, every checked-in spec
//    plans, and the dry-run listing (job order included: byte-identity of
//    every database rests on it) matches a checked-in golden.
//  * The driver's sharded path writes CSV/JSONL byte-identical for every
//    shard count, annotates shard manifests with the spec hash, skips
//    finished shards on re-run (resume), and REFUSES a shard database
//    whose spec hash does not match instead of blending it.
//  * The three shard-database readers — the resume probe, the merger and
//    the report tally — give one verdict for the same bytes: whole, cut
//    by a killed writer, or refused by name.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "exp/driver.hpp"
#include "stats/tally.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/zframe.hpp"

using namespace serep;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string src_path(const std::string& rel) {
    return std::string(SEREP_SOURCE_DIR) + "/" + rel;
}

/// Per-test output prefix. TempDir() contents survive across test runs, so
/// scrub every file the driver could have left — otherwise the resume
/// machinery under test "resumes" from a previous invocation of the suite.
std::string tmp_prefix(const std::string& tag) {
    const std::string prefix = testing::TempDir() + "exp_test_" + tag;
    for (const std::string& suffix :
         {std::string("_faults.csv"), std::string("_campaigns.jsonl"),
          std::string(".exp.json")})
        std::remove((prefix + suffix).c_str());
    for (unsigned k = 0; k < 8; ++k)
        std::remove((prefix + "_shard" + std::to_string(k) + ".jsonl").c_str());
    return prefix;
}

/// `text` with the first `"key":value,` member removed.
std::string drop_member(std::string text, const std::string& key) {
    const std::size_t at = text.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    return text.erase(at, text.find(',', at) + 1 - at);
}

/// `text` with the value of its first `"key":value,` member set to `value`.
std::string set_member(std::string text, const std::string& key,
                       const std::string& value) {
    const std::size_t at = text.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + key.size() + 3;
    return text.replace(from, text.find(',', from) - from, value);
}

/// Loading `json` must throw util::UsageError whose message contains
/// `needle` — rejections have to name the offender to be actionable.
void expect_reject(const std::string& json, const std::string& needle) {
    try {
        exp::ExperimentSpec::load(json);
        FAIL() << "spec accepted: " << json;
    } catch (const util::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' does not mention '" << needle
            << "'";
    }
}

} // namespace

// ------------------------------------------------------------- round trip

TEST(ExperimentSpec, LoadSaveLoadIsIdentity) {
    const std::string text = R"({
        "name": "roundtrip", "out": "rt",
        "matrix": {"class": "Mini", "isa": ["v7"], "app": ["EP", "CG"],
                   "api": ["SER", "OMP"], "cores": [1, 2],
                   "cells": [{"isa": "v8", "app": "FT", "api": "MPI",
                              "cores": 4}]},
        "fault": {"kind": "gpr", "faults": 77, "seed": "0xABC",
                  "watchdog": 3.5, "target_ci": 0, "ci_confidence": 0.9,
                  "ci_batch": 40, "ci_min": 10},
        "engine": {"engine": "switch", "threads": 3, "checkpoints": false},
        "shard": {"count": 3, "partition": "weighted",
                  "weights": [1.5, 2.0, 3.0]},
        "report": {"markdown": "a.md", "csv": "b.csv",
                   "figure_json": "c.json", "confidence": 0.99,
                   "top_regs": 4}
    })";
    const exp::ExperimentSpec a = exp::ExperimentSpec::load(text);
    const std::string canon = a.canonical_json();
    const exp::ExperimentSpec b = exp::ExperimentSpec::load(canon);
    EXPECT_EQ(canon, b.canonical_json()); // canonical form is a fixed point
    EXPECT_EQ(a.spec_hash(), b.spec_hash());
    EXPECT_EQ(a.seed, 0xABCu);
    EXPECT_EQ(b.weights.size(), 3u);
    EXPECT_FALSE(b.checkpoints);
}

TEST(ExperimentSpec, EmptyDocumentIsTheFullDefaultExperiment) {
    const exp::ExperimentSpec s = exp::ExperimentSpec::load("{}");
    EXPECT_EQ(s.out, "campaign");
    EXPECT_EQ(s.kinds, std::vector<std::string>{"gpr"});
    EXPECT_TRUE(s.cross_product);
    // Defaults expand to the paper's full 130-scenario matrix (65 per ISA).
    exp::ExperimentPlan plan(s);
    EXPECT_EQ(plan.jobs().size(), 130u);
}

// -------------------------------------------------------------- spec hash

TEST(ExperimentSpec, HashStableUnderFieldReordering) {
    const std::string a = R"({"matrix": {"app": ["EP"], "class": "Mini"},
                              "fault": {"faults": 60, "kind": "gpr"}})";
    const std::string b = R"({"fault": {"kind": "gpr", "faults": 60},
                              "matrix": {"class": "Mini", "app": "EP"}})";
    EXPECT_EQ(exp::ExperimentSpec::load(a).spec_hash(),
              exp::ExperimentSpec::load(b).spec_hash());
}

TEST(ExperimentSpec, HashIgnoresPresentationButTracksIdentity) {
    exp::ExperimentSpec base;
    const std::uint64_t h = base.spec_hash();

    exp::ExperimentSpec cosmetic = base;
    cosmetic.name = "renamed";
    cosmetic.out = "elsewhere";
    cosmetic.report_md = "report.md";
    cosmetic.engine = "switch";
    cosmetic.threads = 16;
    cosmetic.checkpoints = false;
    EXPECT_EQ(cosmetic.spec_hash(), h)
        << "presentation/execution knobs must not invalidate finished work";

    // Baking the (deterministic) probed weight vector into a weighted spec
    // is the documented probe-once workflow — it must not strand shard
    // databases finished before the bake.
    exp::ExperimentSpec weighted = base;
    weighted.partition = "weighted";
    exp::ExperimentSpec baked = weighted;
    baked.weights = {100.0, 200.0};
    EXPECT_EQ(baked.spec_hash(), weighted.spec_hash());

    for (const auto& mutate :
         std::vector<std::function<void(exp::ExperimentSpec&)>>{
             [](exp::ExperimentSpec& s) { s.faults += 1; },
             [](exp::ExperimentSpec& s) { s.seed += 1; },
             [](exp::ExperimentSpec& s) { s.kinds = {"mem"}; },
             [](exp::ExperimentSpec& s) { s.klass = "Mini"; },
             [](exp::ExperimentSpec& s) { s.apps = {"EP"}; },
             [](exp::ExperimentSpec& s) { s.shards = 3; },
             [](exp::ExperimentSpec& s) {
                 s.partition = "weighted";
                 s.weights = {1, 2};
             },
             [](exp::ExperimentSpec& s) { s.target_ci = 0.05; },
         }) {
        exp::ExperimentSpec changed = base;
        mutate(changed);
        EXPECT_NE(changed.spec_hash(), h);
    }
}

// ------------------------------------------------------------- rejections

TEST(ExperimentSpec, RejectsMalformedSpecsNamingTheOffender) {
    expect_reject("nonsense", "not valid JSON");
    expect_reject("[1,2]", "must be a JSON object");
    expect_reject(R"({"frobnicate": 1})", "frobnicate");
    expect_reject(R"({"matrix": {"klass": "S"}})", "klass"); // it is "class"
    expect_reject(R"({"fault": {"kind": "rom"}})", "rom");
    expect_reject(R"({"matrix": {"class": "XL"}})", "XL");
    expect_reject(R"({"matrix": {"app": ["EQ"]}})", "EQ");
    expect_reject(R"({"matrix": {"isa": "v9"}})", "v9");
    expect_reject(R"({"matrix": {"api": ["POSIX"]}})", "POSIX");
    expect_reject(R"({"fault": {"kind": "fp"}, "matrix": {"isa": "v7"}})",
                  "v8 profile");
    expect_reject(R"({"fault": {"faults": 0}})", "faults");
    expect_reject(R"({"fault": {"target_ci": 0.7}})", "target_ci");
    expect_reject(R"({"fault": {"target_ci": 0.05}, "shard": {"count": 2}})",
                  "shard.count");
    expect_reject(R"({"shard": {"count": 0}})", "shard.count");
    expect_reject(R"({"shard": {"partition": "striped"}})", "striped");
    expect_reject(R"({"shard": {"weights": [1, 2]}})", "weighted");
    expect_reject(R"({"engine": {"engine": "jit"}})", "jit");
    expect_reject(R"({"fault": {"seed": "0xZZ"}})", "0xZZ");
    expect_reject(R"({"report": {"confidence": 1.5}})", "confidence");
    // 2^32 + 60 must not silently wrap into a 60-fault campaign (whose spec
    // hash would even collide with the honest 60-fault experiment's).
    expect_reject(R"({"fault": {"faults": 4294967356}})", "out of range");
    expect_reject(R"({"shard": {"count": 4294967298}})", "out of range");
    expect_reject(R"({"matrix": {"cores": [4294967297]}})", "32-bit");
    // A number literal past 2^64 - 1 is refused by key, not clamped into
    // the seed 0xffffffffffffffff of some other experiment.
    expect_reject(R"({"fault": {"seed": 99999999999999999999}})", "fault.seed");
    expect_reject(R"({"fault": {"seed": 18446744073709551616}})", "fault.seed");
    // An out-less (in-memory) experiment cannot render reports — declared
    // report paths must be rejected, not silently dropped.
    expect_reject(R"({"out": "", "report": {"markdown": "lost.md"}})",
                  "spec.out");
}

TEST(ExperimentSpec, StringIntegersReadTheWholeValueLikeAFlag) {
    // A string-spelled integer is read whole, decimal or 0x-hex, as
    // util::Cli::get_int reads a --flag: an overflow, a sign, a blank or a
    // stray byte is refused by key, never clamped, negated or cut short
    // into some other experiment's seed.
    for (const char* bad :
         {"99999999999999999999", "0x10000000000000000", "-1", "-0x1", "+1",
          " 0x10", "0x10 ", "", "0x", "8x", "1e3", "0x1g", "1_000"})
        expect_reject(R"({"fault": {"seed": ")" + std::string(bad) + "\"}}",
                      "fault.seed: bad integer '" + std::string(bad) + "'");
    expect_reject(R"({"fault": {"faults": "-1"}})", "fault.faults");

    const auto seed = [](const std::string& spelled) {
        return exp::ExperimentSpec::load(R"({"fault": {"seed": ")" + spelled +
                                         "\"}}")
            .seed;
    };
    EXPECT_EQ(seed("0x10"), 0x10u);
    EXPECT_EQ(seed("0XdAc2018"), 0xDAC2018u);
    EXPECT_EQ(seed("010"), 10u); // decimal, as --seed=010 reads
    EXPECT_EQ(seed("18446744073709551615"), ~std::uint64_t{0});
    EXPECT_EQ(seed("0xffffffffffffffff"), ~std::uint64_t{0});
    EXPECT_EQ(exp::ExperimentSpec::load(R"({"fault": {"faults": "010"}})").faults,
              10u);
}

TEST(ExperimentSpec, RejectsTheRetiredLadderKeys) {
    // The checkpoint ladder has one schedule and one rung representation;
    // the engine keys that once chose a fixed stride, full-copy rungs or
    // the older thinning are unknown keys like any typo.
    const std::pair<std::string, std::string> retired[] = {
        {"stride", "5000"}, {"delta", "false"}, {"adaptive", "false"}};
    for (const auto& [key, value] : retired)
        expect_reject(R"({"engine": {"threads": 2, ")" + key + "\": " + value +
                          "}}",
                      "unknown key '" + key + "' in engine");
}

TEST(ExperimentSpec, TraceIsTheDefaultAndOnlyProductionEngine) {
    // Trace is the production engine and switch the reference interpreter;
    // the retired "cached" mode is refused like any unknown value.
    expect_reject(R"({"engine": {"engine": "cached"}})", "'cached'");
    const exp::ExperimentSpec empty = exp::ExperimentSpec::load("{}");
    EXPECT_EQ(empty.engine, "trace");
    EXPECT_EQ(exp::batch_options(empty).engine, sim::Engine::Trace);
    EXPECT_EQ(orch::BatchOptions{}.engine, sim::Engine::Trace);
    exp::ExperimentSpec reference = empty;
    reference.engine = "switch";
    EXPECT_EQ(exp::batch_options(reference).engine, sim::Engine::Switch);
}

TEST(ExperimentPlan, RejectsImpossibleMatrices) {
    // Valid names, empty intersection: UA exists but has no MPI variant.
    exp::ExperimentSpec s;
    s.apps = {"UA"};
    s.apis = {"MPI"};
    EXPECT_THROW(exp::ExperimentPlan p(s), util::UsageError);

    // An explicit cell the paper does not have: BT-MPI needs square cores.
    exp::ExperimentSpec c;
    c.cross_product = false;
    c.cells = {{"v7", "BT", "MPI", 2}};
    EXPECT_THROW(exp::ExperimentPlan p(c), util::UsageError);

    // Baked weights must match the job count.
    exp::ExperimentSpec w;
    w.klass = "Mini";
    w.apps = {"EP"};
    w.partition = "weighted";
    w.weights = {1.0, 2.0}; // 14 jobs expand from the EP matrix
    EXPECT_THROW(exp::ExperimentPlan p(w), util::UsageError);
}

// ---------------------------------------------------------------- planner

TEST(ExperimentPlan, ExplicitCellsKeepSpecOrderAndUnionWithProduct) {
    exp::ExperimentSpec s;
    s.klass = "Mini";
    s.cross_product = false;
    s.cells = {{"v8", "EP", "SER", 1}, {"v7", "EP", "SER", 1}};
    exp::ExperimentPlan plan(s);
    ASSERT_EQ(plan.jobs().size(), 2u);
    EXPECT_EQ(plan.jobs()[0].scenario.name(), "ARMv8-EP-SER-1");
    EXPECT_EQ(plan.jobs()[1].scenario.name(), "ARMv7-EP-SER-1");

    // Union form: the cell is pulled to the front, the product fills in the
    // rest without duplicating it.
    exp::ExperimentSpec u;
    u.klass = "Mini";
    u.apps = {"EP"};
    u.apis = {"SER"};
    u.cells = {{"v8", "EP", "SER", 1}};
    u.cross_product = true;
    exp::ExperimentPlan uplan(u);
    ASSERT_EQ(uplan.jobs().size(), 2u);
    EXPECT_EQ(uplan.jobs()[0].scenario.name(), "ARMv8-EP-SER-1");
    EXPECT_EQ(uplan.jobs()[1].scenario.name(), "ARMv7-EP-SER-1");
}

TEST(ExperimentPlan, ListingMatchesCheckedInGolden) {
    const exp::ExperimentSpec spec =
        exp::ExperimentSpec::load(slurp(src_path("examples/specs/paper_mini.json")));
    exp::ExperimentPlan plan(spec);
    EXPECT_EQ(plan.listing(), slurp(src_path("tests/golden/plan_paper_mini.txt")))
        << "regenerate with: ./build/serep plan examples/specs/paper_mini.json "
           "> tests/golden/plan_paper_mini.txt";
}

TEST(ExperimentPlan, EveryCheckedInSpecLoadsAndPlans) {
    std::size_t specs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             src_path("examples/specs"))) {
        if (entry.path().extension() != ".json") continue;
        const std::string path = entry.path().string();
        const exp::ExperimentSpec spec = exp::ExperimentSpec::load(slurp(path));
        exp::ExperimentPlan plan(spec);
        EXPECT_FALSE(plan.jobs().empty()) << path;
        EXPECT_FALSE(plan.spec_hash_hex().empty()) << path;
        ++specs;
    }
    EXPECT_GE(specs, 9u); // a missing directory must not pass vacuously
}

// ----------------------------------------------------------------- driver

TEST(Driver, ShardedRunMatchesDirectByteForByteAndResumes) {
    exp::ExperimentSpec spec;
    spec.name = "driver-identity";
    spec.klass = "Mini";
    spec.apps = {"EP"};
    spec.apis = {"SER"};
    spec.faults = 24;
    spec.seed = 0x5EED;
    spec.threads = 2;
    spec.shards = 2;

    exp::DriverOptions quiet;
    quiet.log = nullptr;

    // Reference: the same experiment as one shard.
    exp::ExperimentSpec direct_spec = spec;
    direct_spec.out = tmp_prefix("direct");
    direct_spec.shards = 1;
    exp::ExperimentPlan direct_plan(direct_spec);
    const exp::DriverResult direct = exp::run_experiment(direct_plan, quiet);
    ASSERT_EQ(direct.results.size(), 2u); // v7 + v8 EP-SER

    // Two shards, merged — byte-identical outputs.
    exp::ExperimentSpec sharded_spec = spec;
    sharded_spec.out = tmp_prefix("sharded");
    exp::ExperimentPlan sharded_plan(sharded_spec);
    const exp::DriverResult sharded = exp::run_experiment(sharded_plan, quiet);
    EXPECT_EQ(sharded.shards_run, 2u);
    EXPECT_TRUE(sharded.merged);
    EXPECT_EQ(slurp(sharded_plan.csv_path()), slurp(direct_plan.csv_path()));
    EXPECT_EQ(slurp(sharded_plan.jsonl_path()), slurp(direct_plan.jsonl_path()));

    // The shard manifest carries the spec hash (the resume key).
    const std::string db = slurp(sharded_plan.shard_db_path(0));
    const util::JsonValue manifest =
        util::json_parse(db.substr(0, db.find('\n')));
    EXPECT_EQ(manifest.at("spec_hash").as_string(),
              sharded_plan.spec_hash_hex());
    EXPECT_EQ(manifest.at("experiment").as_string(), "driver-identity");

    // Resume: a second run skips every shard and re-merges identically.
    exp::ExperimentPlan again(sharded_spec);
    const exp::DriverResult resumed = exp::run_experiment(again, quiet);
    EXPECT_EQ(resumed.shards_run, 0u);
    EXPECT_EQ(resumed.shards_skipped, 2u);
    EXPECT_EQ(slurp(again.csv_path()), slurp(direct_plan.csv_path()));

    // Refusal: the same out prefix under a *different* spec must not blend.
    exp::ExperimentSpec tampered = sharded_spec;
    tampered.seed += 1;
    exp::ExperimentPlan tampered_plan(tampered);
    EXPECT_THROW(exp::run_experiment(tampered_plan, quiet),
                 util::ValidationError);

    // A record-truncated shard database (killed worker) must be re-run,
    // not resumed as complete and then blamed by the merge.
    const std::string tdb = slurp(again.shard_db_path(1));
    const std::size_t second_line = tdb.find('\n', tdb.find('\n') + 1);
    ASSERT_NE(second_line, std::string::npos);
    std::ofstream(again.shard_db_path(1)) << tdb.substr(0, second_line + 1);
    exp::ExperimentPlan healed(sharded_spec);
    const exp::DriverResult rerun = exp::run_experiment(healed, quiet);
    EXPECT_EQ(rerun.shards_run, 1u); // only the truncated shard re-ran
    EXPECT_EQ(rerun.shards_skipped, 1u);
    EXPECT_EQ(slurp(healed.csv_path()), slurp(direct_plan.csv_path()));
}

TEST(Driver, UniformShardsRunOnlyTheGoldensTheyInjectInto) {
    // fleet_mini's shape: 28 Mini scenarios x two kinds, 8 uniform shards,
    // each its own run_experiment as a fleet worker is. A shard's slice of
    // the scenario-major line touches at most ceil(S/N) + 1 scenarios, and
    // the merged bytes equal the one-shard run's.
    exp::ExperimentSpec spec;
    spec.name = "fleet-shape";
    spec.klass = "Mini";
    spec.apps = {"EP", "IS"};
    spec.kinds = {"gpr", "mem"};
    spec.faults = 4;
    spec.seed = 0x5EED;
    spec.threads = 2;
    exp::DriverOptions quiet;
    quiet.log = nullptr;

    exp::ExperimentSpec direct_spec = spec;
    direct_spec.out = tmp_prefix("fleetshape_direct");
    exp::ExperimentPlan direct_plan(direct_spec);
    exp::run_experiment(direct_plan, quiet);

    spec.out = tmp_prefix("fleetshape");
    spec.shards = 8;
    exp::ExperimentPlan plan(spec);
    const std::size_t scenarios = plan.jobs().size() / 2;
    ASSERT_EQ(scenarios, 28u);
    const std::uint64_t bound = (scenarios + spec.shards - 1) / spec.shards + 1;
    telemetry::reset();
    telemetry::set_enabled(true);
    std::uint64_t goldens = 0;
    for (unsigned k = 0; k < spec.shards; ++k) {
        // The plan cuts its jobs exactly as orch::uniform_cut does.
        const orch::ShardCut cut = plan.shard_cut(k);
        const orch::ShardCut same =
            orch::uniform_cut(plan.shard_jobs(), k, spec.shards);
        EXPECT_EQ(cut.job_ranges, same.job_ranges) << "shard " << k;
        EXPECT_EQ(cut.partition, same.partition) << "shard " << k;
        exp::DriverOptions one = quiet;
        one.only_shard = static_cast<int>(k);
        exp::run_experiment(plan, one);
        const std::uint64_t total = telemetry::counter_value("batch.golden_runs");
        EXPECT_LE(total - goldens, bound) << "shard " << k;
        goldens = total;
    }
    telemetry::set_enabled(false);
    EXPECT_LE(goldens, scenarios + spec.shards - 1);

    const exp::DriverResult merged = exp::run_experiment(plan, quiet);
    EXPECT_EQ(merged.shards_skipped, 8u);
    EXPECT_EQ(slurp(plan.csv_path()), slurp(direct_plan.csv_path()));
    EXPECT_EQ(slurp(plan.jsonl_path()), slurp(direct_plan.jsonl_path()));
}

TEST(Driver, AdaptiveRunResumesFromItsSidecar) {
    exp::ExperimentSpec spec;
    spec.name = "adaptive-sidecar";
    spec.out = tmp_prefix("adsidecar");
    spec.klass = "Mini";
    spec.cross_product = false;
    spec.cells = {{"v7", "EP", "SER", 1}};
    spec.faults = 60;
    spec.seed = 0x5EED;
    spec.threads = 2;
    spec.target_ci = 0.2; // loose target: converges in a round or two
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    exp::ExperimentPlan plan(spec);
    const exp::DriverResult ran = exp::run_experiment(plan, quiet);
    EXPECT_EQ(ran.shards_run, 1u);
    EXPECT_TRUE(std::ifstream(plan.state_path()).good());
    const std::string csv = slurp(plan.csv_path());

    exp::ExperimentPlan again(spec);
    const exp::DriverResult skipped = exp::run_experiment(again, quiet);
    EXPECT_EQ(skipped.shards_run, 0u);
    EXPECT_EQ(skipped.shards_skipped, 1u);
    EXPECT_EQ(slurp(again.csv_path()), csv);
}

TEST(Driver, TinyExperimentStillRendersItsReport) {
    // Regression: render_reports re-reads the campaign JSONL from disk; a
    // small experiment's whole database used to sit unflushed in the still-
    // open ofstream's buffer, so the report stage saw an empty file.
    exp::ExperimentSpec spec;
    spec.name = "tiny-report";
    spec.out = tmp_prefix("tinyrep");
    spec.klass = "Mini";
    spec.cross_product = false;
    spec.cells = {{"v7", "EP", "SER", 1}};
    spec.faults = 5;
    spec.seed = 0x5EED;
    spec.threads = 2;
    spec.report_md = spec.out + "_report.md";
    std::remove(spec.report_md.c_str());
    exp::ExperimentPlan plan(spec);
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    const exp::DriverResult res = exp::run_experiment(plan, quiet);
    EXPECT_TRUE(res.report_written);
    const std::string report = slurp(spec.report_md);
    EXPECT_NE(report.find("ARMv7-EP-SER-1"), std::string::npos);
}

TEST(Driver, InMemoryExperimentReturnsResultsWithoutFiles) {
    exp::ExperimentSpec spec;
    spec.out.clear();
    spec.klass = "Mini";
    spec.cross_product = false;
    spec.cells = {{"v7", "EP", "SER", 1}};
    spec.faults = 16;
    spec.seed = 0x5EED;
    spec.threads = 2;
    exp::ExperimentPlan plan(spec);
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    const exp::DriverResult res = exp::run_experiment(plan, quiet);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_EQ(res.results[0].records.size(), 16u);
    EXPECT_EQ(res.results[0].scenario.name(), "ARMv7-EP-SER-1");
}

// ------------------------------------------------ shard-database verdicts

namespace {

/// Refusals name the input: `label` for the probe and the tally.
void expect_refusal(const std::function<void()>& read, const std::string& label) {
    try {
        read();
        ADD_FAILURE() << "accepted";
    } catch (const util::ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find(label), std::string::npos)
            << e.what();
    } catch (const std::exception& e) {
        ADD_FAILURE() << "not a ValidationError: " << e.what();
    }
}

/// An annotated 2-shard set cut under `partition`, then forged copies of
/// shard 0. The resume probe (also the fleet's landing check) answers Match,
/// Incomplete or a ValidationError naming the file; merge and report accept
/// only what the probe calls Match.
void expect_one_verdict_per_bytes(const std::string& partition) {
    SCOPED_TRACE(partition);
    exp::ExperimentSpec spec;
    spec.name = "reader-verdicts";
    spec.out = tmp_prefix("verdicts");
    spec.klass = "Mini";
    spec.apps = {"EP"};
    spec.apis = {"SER"};
    spec.faults = 24;
    spec.seed = 0x5EED;
    spec.threads = 2;
    spec.shards = 2;
    spec.partition = partition;
    if (partition == "weighted") spec.weights = {1, 3};
    exp::DriverOptions quiet;
    quiet.log = nullptr;
    exp::ExperimentPlan plan(spec);
    exp::run_experiment(plan, quiet);
    const std::string db0 = slurp(plan.shard_db_path(0));
    const std::string db1 = slurp(plan.shard_db_path(1));

    const std::size_t eol = db0.find('\n');
    const std::string manifest = db0.substr(0, eol);
    std::vector<std::string> recs;
    for (std::size_t pos = eol + 1; pos < db0.size();) {
        const std::size_t next = db0.find('\n', pos);
        recs.push_back(db0.substr(pos, next - pos));
        pos = next + 1;
    }
    ASSERT_GE(recs.size(), 4u);
    const auto with_first_record = [&](const std::string& rec) {
        std::string out = manifest + "\n" + rec + "\n";
        for (std::size_t i = 1; i < recs.size(); ++i) out += recs[i] + "\n";
        return out;
    };
    const std::uint64_t ord0 = util::json_parse(recs[0]).at("ord").as_u64();
    std::string cut = manifest + "\n";
    for (std::size_t i = 0; i < recs.size() / 2; ++i) cut += recs[i] + "\n";
    std::string no_manifest;
    for (const std::string& r : recs) no_manifest += r + "\n";
    const std::string framed = util::zframe_compress(db0);
    // The every-job rule's databases said "uniform" under either spelling.
    const std::string old_rule = set_member(db0, "partition", "\"uniform\"");

    enum class Verdict { Match, Incomplete, Refused };
    struct Row {
        const char* what;
        std::string bytes;
        Verdict verdict;
    };
    std::vector<Row> rows = {
        {"intact", db0, Verdict::Match},
        {"intact, zstd-framed", framed, Verdict::Match},
        {"cut at a line boundary", cut, Verdict::Incomplete},
        {"torn final line", db0.substr(0, db0.size() - 5), Verdict::Incomplete},
        {"cut SRZF frame", framed.substr(0, framed.size() / 2),
         Verdict::Incomplete},
        {"first record line appended again", db0 + recs[0] + "\n",
         Verdict::Refused},
        {"manifest version 2", set_member(db0, "version", "2"),
         Verdict::Refused},
        {"job 0 fault_space 4000000000",
         set_member(db0, "fault_space", "4000000000"), Verdict::Refused},
        {"no config_hash", drop_member(db0, "config_hash"), Verdict::Refused},
        {"a record without outcome",
         with_first_record(drop_member(recs[0], "outcome")), Verdict::Refused},
        {"a job without isa", drop_member(db0, "isa"), Verdict::Refused},
        {"ord >= fault_space", with_first_record(set_member(recs[0], "ord", "24")),
         Verdict::Refused},
        {"ord = 2^32 + a valid ordinal",
         with_first_record(
             set_member(recs[0], "ord", std::to_string((1ULL << 32) + ord0))),
         Verdict::Refused},
        {"unknown kind", with_first_record(set_member(recs[0], "kind", "\"zap\"")),
         Verdict::Refused},
        {"no manifest line", no_manifest, Verdict::Refused},
        // With no whole line there is no manifest to vouch for the bytes.
        {"manifest cut mid-line", manifest.substr(0, manifest.size() / 2),
         Verdict::Refused},
        // A count past orch::kMaxShardCount is refused before it is narrowed
        // or sizes anything: 2^32 + 1 would wrap to a 1-shard campaign,
        // 2^32 - 1 would size a 4 GiB shard bitmap.
        {"count 2^32 + 1", set_member(db0, "count", "4294967297"),
         Verdict::Refused},
        {"count 2^32 - 1", set_member(db0, "count", "4294967295"),
         Verdict::Refused},
        {"count 4097", set_member(db0, "count", "4097"), Verdict::Refused},
        // The same spec's shard cut by another rule: the every-job one
        // databases were written under before cuts were scenario-major.
        {"parent-format \"uniform\" partition", old_rule, Verdict::Refused},
    };
    // Weights are not hashed, so a cut under other baked weights carries
    // this spec's hash; only its partition id tells it apart.
    std::string other_weights;
    if (partition == "weighted") {
        exp::ExperimentSpec recut = spec;
        recut.out = tmp_prefix("verdicts_recut");
        recut.weights = {3, 1};
        exp::ExperimentPlan recut_plan(recut);
        ASSERT_EQ(recut_plan.spec_hash_hex(), plan.spec_hash_hex());
        exp::run_experiment(recut_plan, quiet);
        other_weights = slurp(recut_plan.shard_db_path(0));
        rows.push_back({"cut under other baked weights", other_weights,
                        Verdict::Refused});
    }

    for (const Row& row : rows) {
        SCOPED_TRACE(row.what);
        const auto probe = [&] {
            return exp::classify_shard_db(row.bytes, "forged", plan, 0, 2);
        };
        const auto report = [&] {
            stats::OutcomeTally tally;
            tally.add_database(db1, "shard1");
            tally.add_database(row.bytes, "forged");
            return tally.total_records();
        };
        // The fleet's landing: the database the probe read is the one the
        // tally folds, without a second decode.
        const auto land = [&] {
            orch::ShardDb db;
            EXPECT_EQ(exp::classify_shard_db(row.bytes, "forged", plan, 0, 2,
                                             &db),
                      exp::ShardDbState::Match);
            stats::OutcomeTally tally;
            tally.add_database(db1, "shard1");
            tally.add_shard_db(db, "forged");
            return tally.total_records();
        };
        switch (row.verdict) {
        case Verdict::Match:
            EXPECT_EQ(probe(), exp::ShardDbState::Match);
            EXPECT_EQ(orch::merge_shards({row.bytes, db1}).size(), 2u);
            EXPECT_EQ(report(), 48u);
            EXPECT_EQ(land(), 48u);
            continue;
        case Verdict::Incomplete: {
            EXPECT_EQ(probe(), exp::ShardDbState::Incomplete);
            orch::ShardDb db;
            exp::classify_shard_db(row.bytes, "forged", plan, 0, 2, &db);
            expect_refusal(
                [&] { stats::OutcomeTally{}.add_shard_db(db, "forged"); },
                "forged");
            break;
        }
        case Verdict::Refused:
            expect_refusal(probe, "forged");
            break;
        }
        EXPECT_THROW(orch::merge_shards({row.bytes, db1}),
                     util::ValidationError);
        expect_refusal(report, "forged");
    }

    if (partition != "weighted") return;
    // Unbaked weights: the probe compares the scheme alone rather than run
    // the golden-length probe to learn the cut.
    exp::ExperimentSpec unbaked = spec;
    unbaked.weights.clear();
    exp::ExperimentPlan unbaked_plan(unbaked);
    EXPECT_EQ(exp::classify_shard_db(other_weights, "recut", unbaked_plan, 0, 2),
              exp::ShardDbState::Match);
    expect_refusal(
        [&] { exp::classify_shard_db(old_rule, "old rule", unbaked_plan, 0, 2); },
        "old rule");
    EXPECT_FALSE(unbaked_plan.weights_ready());
}

} // namespace

TEST(ShardDbReaders, GiveOneVerdictForTheSameBytes) {
    expect_one_verdict_per_bytes("uniform");
    expect_one_verdict_per_bytes("weighted");
}
