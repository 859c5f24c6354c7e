#include "exp/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/fault.hpp"
#include "npb/npb.hpp"
#include "orch/shard.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"

namespace serep::exp {

namespace {

using util::JsonValue;

/// Reject any key of `obj` outside `allowed` — a typo in a spec must fail
/// loudly, never silently reconfigure the campaign (mirror of the serep
/// unknown-flag audit).
void reject_unknown(const JsonValue& obj, const char* where,
                    std::initializer_list<const char*> allowed) {
    for (const auto& kv : obj.obj) {
        bool known = false;
        for (const char* a : allowed) known = known || kv.first == a;
        if (!known) {
            std::string expected;
            for (const char* a : allowed)
                expected += (expected.empty() ? "" : ", ") + std::string(a);
            util::fail_usage("spec: unknown key '" + kv.first + "' in " +
                             where + " (expected one of: " + expected + ")");
        }
    }
}

const JsonValue* obj_find(const JsonValue& v, const char* key,
                          const char* where) {
    util::check_usage(v.type == JsonValue::Type::Object,
                      std::string("spec: ") + where + " must be a JSON object");
    return v.find(key);
}

std::string get_string(const JsonValue& obj, const char* key,
                       const std::string& dflt, const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    if (!v) return dflt;
    util::check_usage(v->type == JsonValue::Type::String,
                      std::string("spec: ") + where + "." + key +
                          " must be a string");
    return v->str;
}

bool get_bool(const JsonValue& obj, const char* key, bool dflt,
              const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    if (!v) return dflt;
    util::check_usage(v->type == JsonValue::Type::Bool,
                      std::string("spec: ") + where + "." + key +
                          " must be true or false");
    return v->boolean;
}

std::uint64_t get_u64(const JsonValue& obj, const char* key,
                      std::uint64_t dflt, const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    if (!v) return dflt;
    if (v->type == JsonValue::Type::Number) {
        util::check_usage(v->is_integer, std::string("spec: ") + where + "." +
                                             key +
                                             " must be a non-negative integer");
        return v->u64;
    }
    // Hex spelling, for seeds: "0xDAC2018". The whole string, as a --flag
    // takes it: decimal or 0x-hex, no sign, blank or overflow.
    if (v->type == JsonValue::Type::String) {
        const std::optional<std::uint64_t> parsed = util::parse_u64(v->str);
        util::check_usage(parsed.has_value(),
                          std::string("spec: ") + where + "." + key +
                              ": bad integer '" + v->str +
                              "' (a decimal or 0x-hex 64-bit integer)");
        return *parsed;
    }
    util::fail_usage(std::string("spec: ") + where + "." + key +
                     " must be an integer (or a \"0x...\" string)");
}

/// 32-bit fields (faults, threads, shard count, ...): reject out-of-range
/// values instead of letting a static_cast silently wrap 2^32+60 into 60.
unsigned get_uint(const JsonValue& obj, const char* key, unsigned dflt,
                  const char* where) {
    const std::uint64_t v = get_u64(obj, key, dflt, where);
    util::check_usage(v <= 0xFFFFFFFFull, std::string("spec: ") + where + "." +
                                              key + " is out of range");
    return static_cast<unsigned>(v);
}

double get_double(const JsonValue& obj, const char* key, double dflt,
                  const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    if (!v) return dflt;
    util::check_usage(v->type == JsonValue::Type::Number,
                      std::string("spec: ") + where + "." + key +
                          " must be a number");
    return v->number;
}

/// "isa": "v7" and "isa": ["v7","v8"] both work (scalar == one-element set).
std::vector<std::string> get_string_list(const JsonValue& obj, const char* key,
                                         const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    std::vector<std::string> out;
    if (!v) return out;
    const auto take = [&](const JsonValue& e) {
        util::check_usage(e.type == JsonValue::Type::String,
                          std::string("spec: ") + where + "." + key +
                              " entries must be strings");
        out.push_back(e.str);
    };
    if (v->type == JsonValue::Type::Array)
        for (const JsonValue& e : v->arr) take(e);
    else
        take(*v);
    return out;
}

std::vector<unsigned> get_uint_list(const JsonValue& obj, const char* key,
                                    const char* where) {
    const JsonValue* v = obj_find(obj, key, where);
    std::vector<unsigned> out;
    if (!v) return out;
    const auto take = [&](const JsonValue& e) {
        util::check_usage(e.type == JsonValue::Type::Number && e.is_integer &&
                              e.u64 <= 0xFFFFFFFFull,
                          std::string("spec: ") + where + "." + key +
                              " entries must be 32-bit non-negative integers");
        out.push_back(static_cast<unsigned>(e.u64));
    };
    if (v->type == JsonValue::Type::Array)
        for (const JsonValue& e : v->arr) take(e);
    else
        take(*v);
    return out;
}

bool valid_isa(const std::string& s) { return s == "v7" || s == "v8"; }

bool valid_app(const std::string& s) {
    for (npb::App a : npb::kAllApps)
        if (s == npb::app_name(a)) return true;
    return false;
}

bool valid_api(const std::string& s) {
    return s == "SER" || s == "OMP" || s == "MPI";
}

bool valid_klass(const std::string& s) {
    npb::Klass k = npb::Klass::S;
    return npb::klass_from_name(s, k);
}

bool valid_kind(const std::string& s) {
    core::FaultTarget::Kind k;
    return core::fault_kind_from_name(s, k);
}

bool uncore_kind_name(const std::string& s) {
    core::FaultTarget::Kind k;
    return core::fault_kind_from_name(s, k) && core::is_uncore_kind(k);
}

void write_strings(util::JsonWriter& w, const std::vector<std::string>& v) {
    w.begin_array();
    for (const std::string& s : v) w.value(s);
    w.end_array();
}

/// The experiment-identity fields alone, canonically serialized — the
/// domain of spec_hash(). Kept separate from canonical_json() so renaming
/// an experiment or re-pointing its reports never invalidates finished
/// shard databases.
std::string identity_json(const ExperimentSpec& s) {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("class").value(s.klass);
    w.key("cross_product").value(s.cross_product);
    w.key("isa");
    write_strings(w, s.isas);
    w.key("app");
    write_strings(w, s.apps);
    w.key("api");
    write_strings(w, s.apis);
    w.key("cores").begin_array();
    for (unsigned c : s.cores) w.value(c);
    w.end_array();
    w.key("cells").begin_array();
    for (const CellSpec& c : s.cells) {
        w.begin_object();
        w.key("isa").value(c.isa);
        w.key("app").value(c.app);
        w.key("api").value(c.api);
        w.key("cores").value(c.cores);
        w.end_object();
    }
    w.end_array();
    // Scalar when single — the only form that existed before multi-kind
    // specs, so every existing spec's hash (and its finished shard
    // databases) is untouched.
    if (s.kinds.size() == 1) {
        w.key("kind").value(s.kinds.front());
    } else {
        w.key("kind");
        write_strings(w, s.kinds);
    }
    w.key("faults").value(s.faults);
    w.key("seed").value(s.seed);
    w.key("watchdog").value(s.watchdog);
    w.key("target_ci").value(s.target_ci);
    w.key("ci_confidence").value(s.ci_confidence);
    w.key("ci_batch").value(s.ci_batch);
    w.key("ci_min").value(s.ci_min);
    w.key("shards").value(s.shards);
    w.key("partition").value(s.partition);
    // Pruning changes which faults are *simulated* but not any reported
    // outcome, so hashing it at all is a judgment call; it IS hashed when
    // enabled (the shard databases' per-record provenance flags differ),
    // but only then — a key emitted unconditionally would change every
    // existing spec's hash and strand every finished shard database.
    if (s.prune) w.key("prune").value(true);
    // shard.weights is deliberately NOT hashed: the probe is deterministic,
    // so baking the vector `serep plan` prints into the spec (the
    // documented probe-once workflow) must not strand shard databases that
    // finished before the bake. Hand-edited weights that change the cut are
    // still caught downstream — every manifest carries the partition
    // (cut-matrix) id, and resume, merge and report refuse another cut.
    w.end_object();
    return os.str();
}

} // namespace

ExperimentSpec ExperimentSpec::load(const std::string& json_text) {
    JsonValue root;
    try {
        root = util::json_parse(json_text);
    } catch (const util::Error& e) {
        throw util::UsageError(std::string("spec: not valid JSON: ") + e.what());
    }
    util::check_usage(root.type == JsonValue::Type::Object,
                      "spec: the document must be a JSON object");
    reject_unknown(root, "the spec",
                   {"name", "out", "matrix", "fault", "engine", "prune",
                    "shard", "report", "fleet"});

    ExperimentSpec s;
    s.name = get_string(root, "name", s.name, "spec");
    s.out = get_string(root, "out", s.out, "spec");

    if (const JsonValue* m = root.find("matrix")) {
        reject_unknown(*m, "matrix",
                       {"class", "isa", "app", "api", "cores", "cells"});
        s.klass = get_string(*m, "class", s.klass, "matrix");
        s.isas = get_string_list(*m, "isa", "matrix");
        s.apps = get_string_list(*m, "app", "matrix");
        s.apis = get_string_list(*m, "api", "matrix");
        s.cores = get_uint_list(*m, "cores", "matrix");
        if (const JsonValue* cells = m->find("cells")) {
            util::check_usage(cells->type == JsonValue::Type::Array,
                              "spec: matrix.cells must be an array of "
                              "{isa, app, api, cores} objects");
            for (const JsonValue& cv : cells->arr) {
                reject_unknown(cv, "matrix.cells[]",
                               {"isa", "app", "api", "cores"});
                CellSpec c;
                c.isa = get_string(cv, "isa", "", "matrix.cells[]");
                c.app = get_string(cv, "app", "", "matrix.cells[]");
                c.api = get_string(cv, "api", "", "matrix.cells[]");
                c.cores = get_uint(cv, "cores", 1, "matrix.cells[]");
                s.cells.push_back(c);
            }
        }
        // Cells-only specs run exactly those cells; the cross product joins
        // in as soon as any selector key appears (even as an empty list).
        s.cross_product = s.cells.empty() || m->find("isa") || m->find("app") ||
                          m->find("api") || m->find("cores");
    }

    if (const JsonValue* f = root.find("fault")) {
        reject_unknown(*f, "fault",
                       {"kind", "faults", "seed", "watchdog", "target_ci",
                        "ci_confidence", "ci_batch", "ci_min"});
        if (f->find("kind")) s.kinds = get_string_list(*f, "kind", "fault");
        s.faults = get_uint(*f, "faults", s.faults, "fault");
        s.seed = get_u64(*f, "seed", s.seed, "fault");
        s.watchdog = get_double(*f, "watchdog", s.watchdog, "fault");
        s.target_ci = get_double(*f, "target_ci", s.target_ci, "fault");
        s.ci_confidence =
            get_double(*f, "ci_confidence", s.ci_confidence, "fault");
        s.ci_batch = get_uint(*f, "ci_batch", s.ci_batch, "fault");
        s.ci_min = get_uint(*f, "ci_min", s.ci_min, "fault");
    }

    if (const JsonValue* e = root.find("engine")) {
        reject_unknown(*e, "engine", {"engine", "threads", "checkpoints"});
        s.engine = get_string(*e, "engine", s.engine, "engine");
        s.threads = get_uint(*e, "threads", s.threads, "engine");
        s.checkpoints = get_bool(*e, "checkpoints", s.checkpoints, "engine");
    }

    if (const JsonValue* p = root.find("prune")) {
        reject_unknown(*p, "prune", {"enabled", "verify_sample"});
        s.prune = get_bool(*p, "enabled", s.prune, "prune");
        s.prune_verify = get_uint(*p, "verify_sample", s.prune_verify, "prune");
    }

    if (const JsonValue* sh = root.find("shard")) {
        reject_unknown(*sh, "shard", {"count", "partition", "weights"});
        s.shards = get_uint(*sh, "count", s.shards, "shard");
        s.partition = get_string(*sh, "partition", s.partition, "shard");
        if (const JsonValue* wv = sh->find("weights")) {
            util::check_usage(wv->type == JsonValue::Type::Array,
                              "spec: shard.weights must be an array of numbers");
            for (const JsonValue& e : wv->arr) {
                util::check_usage(e.type == JsonValue::Type::Number,
                                  "spec: shard.weights entries must be numbers");
                s.weights.push_back(e.number);
            }
        }
    }

    if (const JsonValue* fl = root.find("fleet")) {
        reject_unknown(*fl, "fleet",
                       {"backend", "hosts", "workers", "workers_per_host",
                        "heartbeat_interval", "heartbeat_timeout",
                        "max_retries", "compress", "remote_cmd"});
        s.fleet_backend = get_string(*fl, "backend", s.fleet_backend, "fleet");
        s.fleet_hosts = get_string_list(*fl, "hosts", "fleet");
        s.fleet_workers = get_uint(*fl, "workers", s.fleet_workers, "fleet");
        s.fleet_workers_per_host =
            get_uint(*fl, "workers_per_host", s.fleet_workers_per_host,
                     "fleet");
        s.fleet_heartbeat_interval = get_double(
            *fl, "heartbeat_interval", s.fleet_heartbeat_interval, "fleet");
        s.fleet_heartbeat_timeout = get_double(
            *fl, "heartbeat_timeout", s.fleet_heartbeat_timeout, "fleet");
        s.fleet_max_retries =
            get_uint(*fl, "max_retries", s.fleet_max_retries, "fleet");
        s.fleet_compress =
            get_bool(*fl, "compress", s.fleet_compress, "fleet");
        s.fleet_remote_cmd =
            get_string(*fl, "remote_cmd", s.fleet_remote_cmd, "fleet");
    }

    if (const JsonValue* r = root.find("report")) {
        reject_unknown(*r, "report",
                       {"markdown", "csv", "figure_json", "confidence",
                        "top_regs"});
        s.report_md = get_string(*r, "markdown", s.report_md, "report");
        s.report_csv = get_string(*r, "csv", s.report_csv, "report");
        s.report_json = get_string(*r, "figure_json", s.report_json, "report");
        s.confidence = get_double(*r, "confidence", s.confidence, "report");
        s.top_regs = get_uint(*r, "top_regs", s.top_regs, "report");
    }

    s.validate();
    return s;
}

void ExperimentSpec::validate() const {
    util::check_usage(valid_klass(klass),
                      "spec: matrix.class '" + klass +
                          "' is not a problem class (Mini | S | W)");
    for (const std::string& i : isas)
        util::check_usage(valid_isa(i), "spec: matrix.isa '" + i +
                                            "' is not an ISA profile (v7 | v8)");
    for (const std::string& a : apps)
        util::check_usage(valid_app(a),
                          "spec: matrix.app '" + a +
                              "' is not an NPB application (BT CG DC DT EP FT "
                              "IS LU MG SP UA)");
    for (const std::string& a : apis)
        util::check_usage(valid_api(a), "spec: matrix.api '" + a +
                                            "' is not a programming model "
                                            "(SER | OMP | MPI)");
    for (unsigned c : cores)
        util::check_usage(c >= 1, "spec: matrix.cores entries must be >= 1");
    for (const CellSpec& c : cells) {
        util::check_usage(valid_isa(c.isa),
                          "spec: matrix.cells isa '" + c.isa + "' (v7 | v8)");
        util::check_usage(valid_app(c.app), "spec: matrix.cells app '" + c.app +
                                                "' is not an NPB application");
        util::check_usage(valid_api(c.api), "spec: matrix.cells api '" + c.api +
                                                "' (SER | OMP | MPI)");
        util::check_usage(c.cores >= 1, "spec: matrix.cells cores must be >= 1");
    }
    util::check_usage(cross_product || !cells.empty(),
                      "spec: the matrix selects nothing — give isa/app/api/"
                      "cores selectors, explicit cells, or neither (= the "
                      "full paper matrix)");

    util::check_usage(!kinds.empty(),
                      "spec: fault.kind must name at least one fault kind");
    for (const std::string& k : kinds)
        util::check_usage(valid_kind(k),
                          "spec: fault.kind '" + k +
                              "' (gpr | fp | mem | cache-tag | cache-data | "
                              "bus)");
    for (std::size_t i = 0; i < kinds.size(); ++i)
        for (std::size_t j = i + 1; j < kinds.size(); ++j)
            util::check_usage(kinds[i] != kinds[j],
                              "spec: fault.kind lists '" + kinds[i] +
                                  "' more than once");
    // A pure-fp spec must not name v7 at all; in a mixed-kind spec the
    // planner instead narrows the fp jobs to the v8 scenarios (the other
    // kinds keep the full matrix), erroring only if nothing is left.
    if (kinds.size() == 1 && kinds.front() == "fp") {
        for (const std::string& i : isas)
            util::check_usage(i != "v7",
                              "spec: fault.kind 'fp' targets the FP register "
                              "file, which only the v8 profile has (drop 'v7' "
                              "from matrix.isa)");
        for (const CellSpec& c : cells)
            util::check_usage(c.isa != "v7",
                              "spec: fault.kind 'fp' targets the FP register "
                              "file, which only the v8 profile has (drop the "
                              "v7 cells)");
    }
    util::check_usage(faults >= 1, "spec: fault.faults must be >= 1");
    util::check_usage(watchdog > 0, "spec: fault.watchdog must be > 0");
    util::check_usage(target_ci >= 0 && target_ci < 0.5,
                      "spec: fault.target_ci must be 0 (fixed count) or in "
                      "(0, 0.5)");
    if (target_ci > 0) {
        util::check_usage(ci_confidence > 0 && ci_confidence < 1,
                          "spec: fault.ci_confidence must be in (0, 1)");
        util::check_usage(ci_batch >= 1 && ci_batch <= 1'000'000,
                          "spec: fault.ci_batch must be in [1, 1000000]");
        util::check_usage(ci_min <= 1'000'000,
                          "spec: fault.ci_min must be in [0, 1000000]");
        util::check_usage(shards == 1,
                          "spec: fault.target_ci (confidence-driven sizing) "
                          "is a single-process sequential rule — it cannot be "
                          "combined with shard.count > 1");
    }

    util::check_usage(!prune || target_ci == 0,
                      "spec: prune.enabled cannot be combined with "
                      "fault.target_ci (the sequential sizer draws its own "
                      "incremental fault lists; pruning classifies a fixed "
                      "list up front)");
    // ValidationError (exit 3), not UsageError: the spec is syntactically
    // fine, but pruning's register-diff def-use walk has no theory of
    // cache-tag/cache-data/bus faults and would silently mis-infer
    // outcomes. The driver refuses the CLI override (`--prune=on`) too.
    if (prune)
        for (const std::string& k : kinds)
            util::check_valid(!uncore_kind_name(k),
                              "spec: prune.enabled cannot be combined with "
                              "uncore fault kind '" + k +
                                  "' — pruning reasons over "
                                  "architectural def-use chains and cannot "
                                  "infer cache/bus outcomes (drop "
                                  "prune.enabled or the uncore kind)");

    util::check_usage(engine == "trace" || engine == "switch",
                      "spec: engine.engine '" + engine + "' (trace | switch)");
    util::check_usage(threads >= 1, "spec: engine.threads must be >= 1");

    util::check_usage(shards >= 1 && shards <= orch::kMaxShardCount,
                      "spec: shard.count must be in [1, " +
                          std::to_string(orch::kMaxShardCount) + "]");
    util::check_usage(partition == "uniform" || partition == "weighted",
                      "spec: shard.partition '" + partition +
                          "' (uniform | weighted)");
    util::check_usage(weights.empty() || partition == "weighted",
                      "spec: shard.weights only applies to the weighted "
                      "partition (set shard.partition to \"weighted\")");
    for (double w : weights)
        util::check_usage(std::isfinite(w) && w >= 0,
                          "spec: shard.weights entries must be finite and "
                          ">= 0");

    util::check_usage(fleet_backend == "local-proc" || fleet_backend == "ssh",
                      "spec: fleet.backend '" + fleet_backend +
                          "' (local-proc | ssh)");
    util::check_usage(fleet_hosts.empty() || fleet_backend == "ssh",
                      "spec: fleet.hosts only applies to the ssh backend "
                      "(set fleet.backend to \"ssh\")");
    for (const std::string& h : fleet_hosts)
        util::check_usage(!h.empty(), "spec: fleet.hosts entries must be "
                                      "non-empty ssh destinations");
    util::check_usage(fleet_workers_per_host >= 1,
                      "spec: fleet.workers_per_host must be >= 1");
    util::check_usage(fleet_heartbeat_interval > 0,
                      "spec: fleet.heartbeat_interval must be > 0 seconds");
    util::check_usage(fleet_heartbeat_timeout > fleet_heartbeat_interval,
                      "spec: fleet.heartbeat_timeout must exceed "
                      "fleet.heartbeat_interval");
    util::check_usage(fleet_max_retries >= 1 && fleet_max_retries <= 100,
                      "spec: fleet.max_retries must be in [1, 100]");
    util::check_usage(!fleet_remote_cmd.empty(),
                      "spec: fleet.remote_cmd must name the serep executable "
                      "on the remote hosts");

    util::check_usage(confidence > 0 && confidence < 1,
                      "spec: report.confidence must be in (0, 1)");
    // Reports are rendered from the on-disk campaign JSONL; an out-less
    // (in-memory) experiment has none, so declared report paths would be
    // silently dropped — reject the contradiction instead.
    util::check_usage(!out.empty() || (report_md.empty() &&
                                       report_csv.empty() &&
                                       report_json.empty()),
                      "spec: report outputs need spec.out (they are rendered "
                      "from the campaign databases it names)");
}

std::string ExperimentSpec::canonical_json() const {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("name").value(name);
    w.key("out").value(out);
    w.key("matrix").begin_object();
    w.key("class").value(klass);
    if (cross_product) {
        w.key("isa");
        write_strings(w, isas);
        w.key("app");
        write_strings(w, apps);
        w.key("api");
        write_strings(w, apis);
        w.key("cores").begin_array();
        for (unsigned c : cores) w.value(c);
        w.end_array();
    }
    w.key("cells").begin_array();
    for (const CellSpec& c : cells) {
        w.begin_object();
        w.key("isa").value(c.isa);
        w.key("app").value(c.app);
        w.key("api").value(c.api);
        w.key("cores").value(c.cores);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("fault").begin_object();
    if (kinds.size() == 1) {
        w.key("kind").value(kinds.front());
    } else {
        w.key("kind");
        write_strings(w, kinds);
    }
    w.key("faults").value(faults);
    w.key("seed").value(seed);
    w.key("watchdog").value(watchdog);
    w.key("target_ci").value(target_ci);
    w.key("ci_confidence").value(ci_confidence);
    w.key("ci_batch").value(ci_batch);
    w.key("ci_min").value(ci_min);
    w.end_object();
    w.key("engine").begin_object();
    w.key("engine").value(engine);
    w.key("threads").value(threads);
    w.key("checkpoints").value(checkpoints);
    w.end_object();
    w.key("prune").begin_object();
    w.key("enabled").value(prune);
    w.key("verify_sample").value(prune_verify);
    w.end_object();
    w.key("shard").begin_object();
    w.key("count").value(shards);
    w.key("partition").value(partition);
    w.key("weights").begin_array();
    for (double x : weights) w.value(x);
    w.end_array();
    w.end_object();
    w.key("report").begin_object();
    w.key("markdown").value(report_md);
    w.key("csv").value(report_csv);
    w.key("figure_json").value(report_json);
    w.key("confidence").value(confidence);
    w.key("top_regs").value(top_regs);
    w.end_object();
    w.key("fleet").begin_object();
    w.key("backend").value(fleet_backend);
    w.key("hosts");
    write_strings(w, fleet_hosts);
    w.key("workers").value(fleet_workers);
    w.key("workers_per_host").value(fleet_workers_per_host);
    w.key("heartbeat_interval").value(fleet_heartbeat_interval);
    w.key("heartbeat_timeout").value(fleet_heartbeat_timeout);
    w.key("max_retries").value(fleet_max_retries);
    w.key("compress").value(fleet_compress);
    w.key("remote_cmd").value(fleet_remote_cmd);
    w.end_object();
    w.end_object();
    return os.str();
}

std::uint64_t ExperimentSpec::spec_hash() const {
    std::uint64_t h = util::kFnvOffset;
    util::fnv1a_str(h, identity_json(*this));
    return h;
}

std::string ExperimentSpec::spec_hash_hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(spec_hash()));
    return buf;
}

} // namespace serep::exp
