#include "exp/driver.hpp"

#include <cstdarg>
#include <fstream>
#include <optional>
#include <sstream>

#include "stats/report.hpp"
#include "stats/sizing.hpp"
#include "stats/tally.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/zframe.hpp"

namespace serep::exp {

namespace {

constexpr const char* kStateMagic = "serep-exp-state";

void logf(std::FILE* f, const char* fmt, ...) {
    if (!f) return;
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(f, fmt, ap);
    va_end(ap);
}

/// Read a whole file; false when it cannot be opened (missing = resumable).
bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path);
    if (!in.good()) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

orch::BatchOptions batch_options_impl(const ExperimentSpec& spec) {
    orch::BatchOptions opts;
    opts.threads = spec.threads < 1 ? 1 : spec.threads;
    opts.ladder.enabled = spec.checkpoints;
    opts.engine =
        spec.engine == "switch" ? sim::Engine::Switch : sim::Engine::Trace;
    opts.prune = spec.prune;
    return opts;
}

bool has_uncore_kind(const ExperimentSpec& spec) {
    for (const std::string& k : spec.kinds) {
        core::FaultTarget::Kind fk;
        if (core::fault_kind_from_name(k, fk) && core::is_uncore_kind(fk))
            return true;
    }
    return false;
}

/// spec.prune with the CLI override folded in (`serep run --prune=...`).
/// Verification is never implied by the spec alone — it doubles part of the
/// work, so it runs only when explicitly asked for.
orch::BatchOptions resolved_batch_options(const ExperimentSpec& spec,
                                          const DriverOptions& opts) {
    orch::BatchOptions b = batch_options_impl(spec);
    switch (opts.prune) {
    case PruneMode::Spec:
        break;
    case PruneMode::Off:
        b.prune = false;
        break;
    case PruneMode::On:
    case PruneMode::Verify:
        // Mirror of the spec-level prune+uncore rejection (ValidationError,
        // exit 3), for the CLI override spelling: pruning has no theory of
        // cache/bus faults and must decline rather than silently mis-infer.
        util::check_valid(
            !has_uncore_kind(spec),
            "--prune: uncore fault kinds (cache-tag | cache-data | bus) "
            "cannot be pruned — equivalence pruning reasons over "
            "architectural def-use chains and cannot infer cache/bus "
            "outcomes; run without --prune");
        b.prune = true;
        if (opts.prune == PruneMode::Verify) b.prune_verify = spec.prune_verify;
        break;
    }
    return b;
}

void log_prune(const orch::BatchRunner& runner, const orch::BatchOptions& b,
               std::FILE* log) {
    if (!b.prune) return;
    if (runner.prune_declined() > 0)
        logf(log,
             "prune: declined for %zu uncore fault runs (no equivalence "
             "theory for cache/bus faults) — all simulated\n",
             runner.prune_declined());
    logf(log,
         "prune: %zu of %zu fault records simulated, %zu inferred from "
         "equivalence classes%s",
         runner.simulated_runs(),
         runner.simulated_runs() + runner.inferred_records(),
         runner.inferred_records(),
         b.prune_verify > 0 ? "" : "\n");
    if (b.prune_verify > 0)
        logf(log, " (%zu re-simulated and verified)\n",
             runner.verified_records());
}

} // namespace

/// Resume probe for one shard database's bytes: Missing (run it), Match
/// (skip it), Incomplete (a writer was killed — safe to re-run and
/// overwrite), or a ValidationError — anything that is not THIS spec's
/// shard k-of-n output must never be silently blended or overwritten.
ShardDbState classify_shard_db(const std::string& raw,
                               const std::string& label,
                               const ExperimentPlan& plan, unsigned k,
                               unsigned n, orch::ShardDb* db_out) {
    if (raw.empty()) return ShardDbState::Missing;
    orch::ShardDb local;
    orch::ShardDb& db = db_out ? *db_out : local;
    try {
        db = orch::read_shard_db(raw, label);
    } catch (const util::ValidationError& e) {
        throw util::ValidationError(std::string(e.what()) +
                                    " — delete it or move it out of the way");
    }
    // An SRZF payload cut or empty (a killed worker) has no spec to check.
    if (db.jobs.empty()) return ShardDbState::Incomplete;
    util::check_valid(
        db.spec_hash == plan.spec_hash_hex(),
        label + " belongs to a different experiment (spec " +
            (db.spec_hash.empty() ? "none" : db.spec_hash) + ", this spec is " +
            plan.spec_hash_hex() +
            ") — refusing to blend; delete the file or restore the "
            "original spec");
    util::check_valid(db.shard == k && db.count == n,
                      label + " is shard " + std::to_string(db.shard) +
                          " of " + std::to_string(db.count) + ", expected " +
                          std::to_string(k) + " of " + std::to_string(n));
    // Same spec, other cut: an older ownership rule or re-baked weights.
    // Its records would overlap and miss this cut's at the merge.
    util::check_valid(plan.accepts_partition(db.partition),
                      label + " was cut as partition " + db.partition +
                          ", this spec cuts " + plan.partition_id() +
                          " — refusing to blend; delete the file to re-run "
                          "the shard");
    return db.complete() ? ShardDbState::Match : ShardDbState::Incomplete;
}

ShardDbState probe_shard_db(const ExperimentPlan& plan, unsigned k, unsigned n,
                            std::string* found_path, orch::ShardDb* db) {
    // A Match at either path wins even when the other form is a truncated
    // leftover — a re-run under a different encoding must not be forced to
    // repeat work a complete database already covers.
    ShardDbState verdict = ShardDbState::Missing;
    std::string where;
    for (const std::string& path :
         {plan.shard_db_path(k), plan.shard_db_path(k) + ".zst"}) {
        std::string contents;
        if (!read_file(path, contents)) continue;
        const ShardDbState state =
            classify_shard_db(contents, "resume: " + path, plan, k, n, db);
        if (state == ShardDbState::Match) {
            if (found_path) *found_path = path;
            return state;
        }
        if (state == ShardDbState::Incomplete &&
            verdict == ShardDbState::Missing) {
            verdict = state;
            where = path;
        }
    }
    if (verdict != ShardDbState::Missing && found_path) *found_path = where;
    return verdict;
}

namespace {

/// Render the spec's requested report files from the merged campaign JSONL
/// (the same input `serep report` consumes, so the rendered bytes equal a
/// `serep report` over that file).
void render_reports(ExperimentPlan& plan, DriverResult& res, std::FILE* log) {
    const ExperimentSpec& spec = plan.spec();
    if (spec.report_md.empty() && spec.report_csv.empty() &&
        spec.report_json.empty())
        return;
    telemetry::Span span("report");
    std::string jsonl;
    util::check(read_file(plan.jsonl_path(), jsonl),
                "cannot read campaign database " + plan.jsonl_path());
    stats::OutcomeTally tally;
    tally.add_database(jsonl, plan.jsonl_path());

    stats::ReportOptions ropts;
    ropts.confidence = spec.confidence;
    ropts.top_registers = spec.top_regs;
    const struct {
        const std::string* path;
        stats::ReportOptions::Format format;
        const char* what;
    } outputs[] = {
        {&spec.report_md, stats::ReportOptions::Format::Markdown, "markdown"},
        {&spec.report_csv, stats::ReportOptions::Format::Csv, "csv"},
        {&spec.report_json, stats::ReportOptions::Format::FigureJson,
         "figure-json"},
    };
    for (const auto& o : outputs) {
        if (o.path->empty()) continue;
        ropts.format = o.format;
        const std::string report = stats::render_report(tally, ropts);
        std::ofstream os(*o.path);
        util::check(os.good(), "cannot open report file " + *o.path);
        os << report;
        util::check(os.good(), "error writing " + *o.path);
        logf(log, "report: %s -> %s\n", o.what, o.path->c_str());
        res.report_written = true;
    }
}

void write_state(ExperimentPlan& plan) {
    std::ofstream os(plan.state_path());
    util::check(os.good(), "cannot open state file " + plan.state_path());
    util::JsonWriter w(os);
    w.begin_object();
    w.key("magic").value(kStateMagic);
    w.key("experiment").value(plan.spec().name);
    w.key("spec_hash").value(plan.spec_hash_hex());
    w.key("complete").value(true);
    w.end_object();
    os << '\n';
    util::check(os.good(), "error writing " + plan.state_path());
}

/// Adaptive resume: true when the sidecar records a completed run of THIS
/// spec and the outputs are still present. A sidecar for a different spec
/// is refused, not overwritten.
bool state_matches(ExperimentPlan& plan) {
    std::string contents;
    if (!read_file(plan.state_path(), contents)) return false;
    util::JsonValue state;
    try {
        state = util::json_parse(contents);
        util::check_valid(state.find("magic") &&
                              state.at("magic").as_string() == kStateMagic,
                          "bad magic");
    } catch (const util::Error&) {
        throw util::ValidationError("resume: " + plan.state_path() +
                                    " exists but is not a serep experiment "
                                    "state file — delete it");
    }
    std::string hash;
    bool complete = false;
    try {
        hash = state.at("spec_hash").as_string();
        complete = state.at("complete").as_bool();
    } catch (const util::Error& e) {
        throw util::ValidationError("resume: " + plan.state_path() +
                                    ": corrupt experiment state file (" +
                                    std::string(e.what()) + ") — delete it");
    }
    util::check_valid(
        hash == plan.spec_hash_hex(),
        "resume: " + plan.state_path() +
            " records a different experiment (spec " + hash +
            ", this spec is " + plan.spec_hash_hex() +
            ") — refusing to blend; delete the file or restore the "
            "original spec");
    std::string ignored;
    return complete && read_file(plan.csv_path(), ignored) &&
           read_file(plan.jsonl_path(), ignored);
}

DriverResult run_adaptive(ExperimentPlan& plan, const DriverOptions& opts) {
    const ExperimentSpec& spec = plan.spec();
    util::check_usage(!spec.out.empty(),
                      "adaptive (target_ci) experiments need spec.out");
    // spec.validate() already rejects prune.enabled + target_ci; this
    // catches the CLI spelling (`--prune=on` against an adaptive spec).
    util::check_usage(opts.prune != PruneMode::On &&
                          opts.prune != PruneMode::Verify,
                      "adaptive (target_ci) experiments cannot prune: the "
                      "sequential sizer draws incremental fault lists, "
                      "pruning classifies a fixed list up front");
    DriverResult res;
    res.fault_space = plan.jobs().size() * spec.faults;
    if (state_matches(plan)) {
        logf(opts.log, "[skip] experiment complete (state %s matches spec %s)\n",
             plan.state_path().c_str(), plan.spec_hash_hex().c_str());
        res.shards_skipped = 1;
        render_reports(plan, res, opts.log);
        return res;
    }

    stats::StatsOptions sopts;
    sopts.target_half_width = spec.target_ci;
    sopts.confidence = spec.ci_confidence;
    sopts.batch_faults = spec.ci_batch;
    sopts.min_faults = spec.ci_min;
    std::vector<stats::AdaptiveJobResult> adaptive;
    {
        telemetry::Span span("adaptive");
        adaptive = stats::run_adaptive_campaign(plan.shard_jobs(),
                                                batch_options(spec), sopts);
    }

    std::ofstream csv(plan.csv_path());
    std::ofstream jsonl(plan.jsonl_path());
    util::check(csv.good(), "cannot open output file " + plan.csv_path());
    util::check(jsonl.good(), "cannot open output file " + plan.jsonl_path());
    std::size_t space = 0;
    for (std::size_t i = 0; i < adaptive.size(); ++i) {
        const stats::AdaptiveJobResult& a = adaptive[i];
        core::write_campaign_streams(a.result, &csv, &jsonl, i == 0);
        res.injected += a.result.records.size();
        space += a.fault_space;
        logf(opts.log,
             "[%3zu] %-18s injected %4zu/%u in %u rounds, masked=%5.1f%% "
             "maxCI=%.3f%s\n",
             i + 1, a.result.scenario.name().c_str(), a.result.records.size(),
             a.fault_space, a.rounds, a.result.masked_pct(), a.max_half_width,
             a.converged ? "" : " (fault space exhausted)");
    }
    // Close before rendering: render_reports re-reads the JSONL from disk,
    // and a small experiment's tail can otherwise still sit in the filebuf.
    csv.close();
    jsonl.close();
    util::check(!csv.fail() && !jsonl.fail(),
                "error writing campaign databases");
    res.fault_space = space;
    res.simulated = res.injected;
    res.shards_run = 1;
    res.merged = true;
    logf(opts.log,
         "sizing target-ci=%.3f: injected %zu of %zu faults -> %s, %s\n",
         spec.target_ci, res.injected, space, plan.csv_path().c_str(),
         plan.jsonl_path().c_str());
    write_state(plan);
    res.results.reserve(adaptive.size());
    for (const stats::AdaptiveJobResult& a : adaptive)
        res.results.push_back(a.result);
    render_reports(plan, res, opts.log);
    return res;
}

/// In-memory experiment (spec.out empty): one BatchRunner pass, results
/// returned, nothing written.
DriverResult run_direct(ExperimentPlan& plan, const DriverOptions& opts) {
    const ExperimentSpec& spec = plan.spec();
    DriverResult res;
    res.fault_space = plan.jobs().size() * spec.faults;

    const orch::BatchOptions bopts = resolved_batch_options(spec, opts);
    orch::BatchRunner runner(bopts);
    for (const PlannedJob& j : plan.jobs()) runner.add(j.scenario, j.cfg);
    res.results = runner.run_all();
    for (std::size_t i = 0; i < res.results.size(); ++i) {
        res.injected += res.results[i].records.size();
        logf(opts.log, "[%3zu] %-18s masked=%5.1f%%\n", i + 1,
             res.results[i].scenario.name().c_str(),
             res.results[i].masked_pct());
    }
    res.simulated = runner.simulated_runs();
    res.inferred = runner.inferred_records();
    log_prune(runner, bopts, opts.log);
    res.shards_run = 1;
    return res;
}

DriverResult run_sharded(ExperimentPlan& plan, const DriverOptions& opts) {
    const ExperimentSpec& spec = plan.spec();
    util::check_usage(!spec.out.empty(),
                      "sharded experiments need spec.out (file prefix for "
                      "the shard and campaign databases)");
    const unsigned n = plan.shard_count();
    const std::vector<orch::ShardJobSpec> jobs = plan.shard_jobs();
    const orch::ShardDbAnnotation note{spec.name, plan.spec_hash_hex()};
    const orch::BatchOptions bopts = resolved_batch_options(spec, opts);

    DriverResult res;
    res.fault_space = jobs.size() * spec.faults;

    // Actual on-disk database per shard, recorded as shards land: a resumed
    // shard may sit at either the plain or the compressed path. A resumed
    // shard's database stays decoded from its probe, so the merge reads only
    // the shards this process wrote.
    std::vector<std::string> db_paths(n);
    std::vector<std::optional<orch::ShardDb>> resumed(n);

    // Run shard k into `os` (plain or zstd-framed per opts.compress_shards)
    // and count it into res.
    const auto run_into = [&](unsigned k, std::ostream& os,
                              const std::string& what) {
        // The weighted cut probes golden lengths at most once per plan; say
        // so the first time, with the bakeable vector, so remote workers
        // can skip the probe entirely.
        if (!plan.weights_ready())
            logf(opts.log,
                 "probing golden lengths for the weighted cut (bake the "
                 "weights the plan prints into shard.weights to skip this)\n");
        std::optional<util::ZstdFrameWriter> zw;
        if (opts.compress_shards) zw.emplace(os);
        std::ostream& out = zw ? zw->stream() : os;
        const orch::ShardRunStats st =
            orch::run_shard(jobs, plan.shard_cut(k), bopts, out, &note);
        if (zw) zw->finish();
        util::check(os.good(), "error writing shard database " + what);
        ++res.shards_run;
        res.injected += st.owned;
        res.simulated += st.owned - st.inferred;
        res.inferred += st.inferred;
        res.fault_space = st.fault_space;
        return st;
    };

    const auto run_one = [&](unsigned k, const std::string& path) {
        telemetry::Span span("shard:" + std::to_string(k));
        db_paths[k] = path;
        std::string found;
        orch::ShardDb db;
        const ShardDbState state = probe_shard_db(plan, k, n, &found, &db);
        if (state == ShardDbState::Match) {
            logf(opts.log, "[skip] shard %u/%u: %s matches spec %s\n", k, n,
                 found.c_str(), plan.spec_hash_hex().c_str());
            db_paths[k] = found;
            resumed[k] = std::move(db);
            ++res.shards_skipped;
            return;
        }
        if (state == ShardDbState::Incomplete)
            logf(opts.log,
                 "shard %u/%u: %s is truncated (interrupted worker?) — "
                 "re-running\n",
                 k, n, found.c_str());
        std::ofstream os(path, std::ios::binary);
        util::check(os.good(), "cannot open output file " + path);
        const orch::ShardRunStats st = run_into(k, os, path);
        if (st.inferred > 0)
            logf(opts.log,
                 "shard %u/%u%s: %zu of %zu faults -> %s (%zu simulated, "
                 "%zu inferred by pruning)\n",
                 k, n, plan.weighted() ? " (weighted)" : "", st.owned,
                 st.fault_space, path.c_str(), st.owned - st.inferred,
                 st.inferred);
        else
            logf(opts.log, "shard %u/%u%s: injected %zu of %zu faults -> %s\n",
                 k, n, plan.weighted() ? " (weighted)" : "", st.owned,
                 st.fault_space, path.c_str());
    };

    // Canonical write path for shard k under the requested encoding.
    const auto shard_path = [&](unsigned k) {
        return opts.compress_shards ? plan.shard_db_path(k) + ".zst"
                                    : plan.shard_db_path(k);
    };

    if (opts.only_shard >= 0) {
        const unsigned k = static_cast<unsigned>(opts.only_shard);
        util::check_usage(k < n, "shard index " + std::to_string(k) +
                                     " out of range (the spec declares " +
                                     std::to_string(n) + " shards)");
        if (opts.shard_stream) {
            // Fleet worker mode: the database goes down the stream (the
            // worker's stdout), nothing lands on this host's disk, and
            // resume does not apply — the controller already probed.
            const orch::ShardRunStats st =
                run_into(k, *opts.shard_stream, "<shard stream>");
            logf(opts.log, "shard %u/%u%s: injected %zu of %zu faults -> "
                 "<stream>\n",
                 k, n, plan.weighted() ? " (weighted)" : "", st.owned,
                 st.fault_space);
            return res;
        }
        run_one(k, shard_path(k));
        return res;
    }

    for (unsigned k = 0; k < n; ++k) run_one(k, shard_path(k));

    // Merge — a cheap pure function of the shard databases; always re-run
    // so the canonical CSV/JSONL and reports exist even when every shard
    // resumed. read_shard_db reads zstd-framed databases itself.
    std::vector<orch::ShardDb> dbs(n);
    for (unsigned k = 0; k < n; ++k) {
        if (resumed[k]) {
            dbs[k] = std::move(*resumed[k]);
            continue;
        }
        std::string bytes;
        util::check(read_file(db_paths[k], bytes),
                    "cannot read shard database " + db_paths[k]);
        dbs[k] = orch::read_shard_db(bytes,
                                     "shard merge: database " + std::to_string(k));
    }
    merge_and_report(plan, dbs, res, opts.log);
    return res;
}

} // namespace

orch::BatchOptions batch_options(const ExperimentSpec& spec) {
    return batch_options_impl(spec);
}

void merge_and_report(ExperimentPlan& plan,
                      const std::vector<orch::ShardDb>& dbs, DriverResult& res,
                      std::FILE* log) {
    {
        telemetry::Span merge_span("merge");
        std::ofstream csv(plan.csv_path());
        std::ofstream jsonl(plan.jsonl_path());
        util::check(csv.good(), "cannot open output file " + plan.csv_path());
        util::check(jsonl.good(),
                    "cannot open output file " + plan.jsonl_path());
        res.results = orch::merge_shards(dbs, &csv, &jsonl);
        // Close before rendering: render_reports re-reads the JSONL from
        // disk, and a small experiment's tail can otherwise still sit in the
        // filebuf.
        csv.close();
        jsonl.close();
        util::check(!csv.fail() && !jsonl.fail(),
                    "error writing campaign databases");
    }
    res.merged = true;
    logf(log, "merge: %zu shard databases, %zu jobs -> %s, %s\n", dbs.size(),
         res.results.size(), plan.csv_path().c_str(),
         plan.jsonl_path().c_str());
    render_reports(plan, res, log);
}

DriverResult run_experiment(ExperimentPlan& plan, const DriverOptions& opts) {
    const ExperimentSpec& spec = plan.spec();
    // Sidecar exports imply telemetry; everything recorded stays out of
    // band, so enabling it cannot change a single output byte (CI-gated).
    const bool want_export = !opts.metrics_out.empty() || !opts.trace_out.empty();
    if (want_export) telemetry::set_enabled(true);

    const auto dispatch = [&]() -> DriverResult {
        telemetry::Span root("experiment:" + spec.name);
        if (spec.target_ci > 0) {
            util::check_usage(opts.only_shard < 0,
                              "adaptive (target_ci) experiments cannot run as "
                              "shards");
            return run_adaptive(plan, opts);
        }
        if (spec.out.empty()) {
            util::check_usage(opts.only_shard < 0,
                              "only_shard needs spec.out (an in-memory "
                              "experiment writes no shard databases)");
            return run_direct(plan, opts);
        }
        return run_sharded(plan, opts);
    };
    DriverResult res = dispatch();

    if (want_export) {
        const telemetry::Provenance prov{"serep", plan.spec_hash_hex()};
        if (!opts.metrics_out.empty()) {
            telemetry::write_metrics_file(opts.metrics_out, prov);
            logf(opts.log, "telemetry: metrics -> %s\n",
                 opts.metrics_out.c_str());
        }
        if (!opts.trace_out.empty()) {
            telemetry::write_trace_file(opts.trace_out);
            logf(opts.log, "telemetry: trace -> %s\n", opts.trace_out.c_str());
        }
    }
    return res;
}

} // namespace serep::exp
