#include "orch/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "npb/npb.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/zframe.hpp"

namespace serep::orch {

namespace {

using util::fnv1a_str;
using util::fnv1a_u64;

npb::Klass klass_from_name(const std::string& s) {
    npb::Klass k = npb::Klass::S;
    if (!npb::klass_from_name(s, k))
        throw util::ValidationError("unknown problem class '" + s +
                                    "' (expected Mini, S, or W)");
    return k;
}

isa::Profile profile_from_name(const std::string& s) {
    for (isa::Profile p : {isa::Profile::V7, isa::Profile::V8})
        if (s == isa::profile_name(p)) return p;
    throw util::ValidationError("shard: unknown ISA profile '" + s + "'");
}

npb::App app_from_name(const std::string& s) {
    for (npb::App a : npb::kAllApps)
        if (s == npb::app_name(a)) return a;
    throw util::ValidationError("shard: unknown application '" + s + "'");
}

npb::Api api_from_name(const std::string& s) {
    for (npb::Api a : {npb::Api::Serial, npb::Api::OMP, npb::Api::MPI})
        if (s == npb::api_name(a)) return a;
    throw util::ValidationError("shard: unknown API '" + s + "'");
}

std::string hash_hex(std::uint64_t h) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

constexpr const char* kMagic = "serep-shard";
constexpr std::uint64_t kVersion = 1;

} // namespace

std::uint64_t fault_id(const core::Fault& f) noexcept {
    std::uint64_t h = util::kFnvOffset;
    fnv1a_u64(h, f.at_retired);
    fnv1a_u64(h, static_cast<std::uint64_t>(f.target.kind));
    fnv1a_u64(h, f.target.core);
    fnv1a_u64(h, f.target.reg);
    fnv1a_u64(h, f.target.bit);
    fnv1a_u64(h, f.target.phys);
    return h;
}

void check_shard_slot(std::uint64_t count, std::uint64_t index,
                      const std::string& who) {
    util::check_valid(count >= 1 && count <= kMaxShardCount,
                      who + ": shard count " + std::to_string(count) +
                          " is outside [1, " +
                          std::to_string(kMaxShardCount) + "]");
    util::check_valid(index < count, who + ": bad shard index");
}

std::uint64_t campaign_config_hash(const std::vector<ShardJobSpec>& jobs) {
    std::uint64_t h = util::kFnvOffset;
    fnv1a_u64(h, jobs.size());
    for (const ShardJobSpec& j : jobs) {
        fnv1a_str(h, j.scenario.name());
        fnv1a_u64(h, static_cast<std::uint64_t>(j.scenario.klass));
        fnv1a_u64(h, j.scenario.contract_fma);
        fnv1a_u64(h, j.cfg.n_faults);
        fnv1a_u64(h, j.cfg.seed);
        std::uint64_t wd = 0;
        static_assert(sizeof wd == sizeof j.cfg.watchdog_factor, "");
        std::memcpy(&wd, &j.cfg.watchdog_factor, sizeof wd);
        fnv1a_u64(h, wd);
        fnv1a_u64(h, j.cfg.include_fp_regs);
        fnv1a_u64(h, j.cfg.memory_faults);
        // Folded only for uncore campaigns so every pre-uncore database
        // keeps its hash and stays mergeable.
        if (core::is_uncore_kind(j.cfg.uncore_kind))
            fnv1a_u64(h, static_cast<std::uint64_t>(j.cfg.uncore_kind));
    }
    return h;
}

namespace {

/// One job's contribution to a shard database. `golden`/`records`/`ordinals`
/// are null for jobs this shard does not own at all (possible only under a
/// weighted plan): the manifest then carries "golden": null and the merger
/// takes the golden reference from an owning shard.
struct ShardJobOutput {
    std::uint32_t fault_space = 0;
    const core::GoldenRef* golden = nullptr;
    const std::vector<core::FaultRecord>* records = nullptr;
    const std::vector<std::uint32_t>* ordinals = nullptr;
};

/// Shared back half of both run_shard variants: manifest + record lines.
/// `partition` identifies the fault-to-shard assignment scheme ("uniform",
/// or "weighted-<cut-matrix-hash>") so readers can refuse to blend
/// databases whose partitions do not tile the fault space together.
ShardRunStats write_shard_db(const std::vector<ShardJobSpec>& jobs,
                             unsigned index, unsigned count,
                             const std::string& partition,
                             const std::vector<ShardJobOutput>& outputs,
                             std::ostream& os,
                             const ShardDbAnnotation* note) {
    // Manifest line: everything a merger needs to validate compatibility and
    // rebuild the unsharded database.
    {
        util::JsonWriter w(os);
        w.begin_object();
        w.key("magic").value(kMagic);
        w.key("version").value(kVersion);
        w.key("shard").value(index);
        w.key("count").value(count);
        w.key("partition").value(partition);
        w.key("config_hash").value(hash_hex(campaign_config_hash(jobs)));
        if (note) {
            w.key("experiment").value(note->experiment);
            w.key("spec_hash").value(note->spec_hash);
            // Record-line count, so a resume check can tell a complete
            // database from one truncated by a killed worker.
            std::uint64_t records = 0;
            for (const ShardJobOutput& o : outputs)
                if (o.records) records += o.records->size();
            w.key("records").value(records);
        }
        w.key("jobs").begin_array();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const ShardJobSpec& spec = jobs[j];
            w.begin_object();
            w.key("isa").value(isa::profile_name(spec.scenario.isa));
            w.key("app").value(npb::app_name(spec.scenario.app));
            w.key("api").value(npb::api_name(spec.scenario.api));
            w.key("cores").value(spec.scenario.cores);
            w.key("class").value(npb::klass_name(spec.scenario.klass));
            w.key("fma").value(spec.scenario.contract_fma);
            w.key("n_faults").value(spec.cfg.n_faults);
            w.key("seed").value(spec.cfg.seed);
            w.key("watchdog").value(spec.cfg.watchdog_factor);
            w.key("fault_space").value(outputs[j].fault_space);
            if (outputs[j].golden) {
                w.key("golden").begin_object();
                w.key("total_retired").value(outputs[j].golden->total_retired);
                w.key("ticks").value(outputs[j].golden->ticks);
                w.key("app_start").value(outputs[j].golden->app_start);
                w.key("exit_code").value(outputs[j].golden->exit_code);
                w.end_object();
            } else {
                w.key("golden").value_null();
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    os << '\n';

    // Record lines: one per injected fault, keyed (job, full-list ordinal).
    ShardRunStats stats;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        stats.fault_space += outputs[j].fault_space;
        if (!outputs[j].records) continue;
        const std::vector<std::uint32_t>& ords = *outputs[j].ordinals;
        for (std::size_t i = 0; i < outputs[j].records->size(); ++i) {
            const core::FaultRecord& rec = (*outputs[j].records)[i];
            util::JsonWriter w(os);
            w.begin_object();
            w.key("job").value(static_cast<std::uint64_t>(j));
            w.key("ord").value(ords[i]);
            w.key("at").value(rec.fault.at_retired);
            w.key("kind").value(core::fault_kind_name(rec.fault.target.kind));
            w.key("core").value(rec.fault.target.core);
            w.key("reg").value(rec.fault.target.reg);
            w.key("bit").value(rec.fault.target.bit);
            w.key("phys").value(rec.fault.target.phys);
            w.key("outcome").value(core::outcome_name(rec.outcome));
            w.key("retired").value(rec.retired);
            // Emitted only when set, so unpruned shard databases stay
            // byte-identical to every release since PR 2.
            if (rec.inferred) {
                w.key("inferred").value(true);
                ++stats.inferred;
            }
            w.end_object();
            os << '\n';
            ++stats.owned;
        }
    }
    return stats;
}

} // namespace

ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs, const ShardPlan& plan,
                        BatchOptions opts, std::ostream& os,
                        const ShardDbAnnotation* note) {
    util::check_usage(plan.count >= 1 && plan.index < plan.count,
                      "run_shard: shard index out of range");
    util::check_usage(!jobs.empty(), "run_shard: empty job list");
    opts.fault_filter = [plan](const core::Fault& f) { return plan.owns(f); };
    BatchRunner runner(opts);
    for (const ShardJobSpec& j : jobs) runner.add(j.scenario, j.cfg);
    const std::vector<core::CampaignResult> results = runner.run_all();
    std::vector<ShardJobOutput> outputs(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        outputs[j] = {runner.job_fault_space(j), &results[j].golden,
                      &results[j].records, &runner.job_ordinals(j)};
    return write_shard_db(jobs, plan.index, plan.count, "uniform", outputs, os,
                          note);
}

ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs,
                        const WeightedShardPlan& plan, BatchOptions opts,
                        std::ostream& os, const ShardDbAnnotation* note) {
    util::check_usage(plan.count >= 1 && plan.index < plan.count,
                      "run_shard: shard index out of range");
    util::check_usage(!jobs.empty(), "run_shard: empty job list");
    util::check_usage(plan.job_ranges.size() == jobs.size(),
                      "run_shard: weighted plan covers a different job list");
    opts.fault_filter = nullptr; // ownership is per job below
    BatchRunner runner(opts);
    // Only jobs with a non-empty id range run here — that is the weighted
    // plan's payoff: this shard pays golden-run and ladder cost for its own
    // scenarios only. Unowned jobs appear in the manifest with
    // "golden": null and no records; the merger takes their golden
    // reference from the shard(s) that ran them (every job has one, since
    // the ranges tile the id space).
    std::vector<std::size_t> runner_idx(jobs.size(), SIZE_MAX);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (plan.job_ranges[j].first >= plan.job_ranges[j].second) continue;
        runner_idx[j] =
            runner.add(jobs[j].scenario, jobs[j].cfg,
                       [&plan, j](std::uint32_t, const core::Fault& f) {
                           return plan.owns(j, f);
                       });
    }
    const std::vector<core::CampaignResult> results = runner.run_all();
    std::vector<ShardJobOutput> outputs(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        // The fault list is exactly cfg.n_faults entries for every job
        // (make_fault_list draws a fixed count), so unowned jobs know their
        // fault space without running anything.
        outputs[j].fault_space = jobs[j].cfg.n_faults;
        if (runner_idx[j] == SIZE_MAX) continue;
        const core::CampaignResult& r = results[runner_idx[j]];
        outputs[j] = {runner.job_fault_space(runner_idx[j]), &r.golden,
                      &r.records, &runner.job_ordinals(runner_idx[j])};
    }
    return write_shard_db(jobs, plan.index, plan.count,
                          "weighted-" + hash_hex(plan.partition_hash), outputs,
                          os, note);
}

WeightedShardPlan make_weighted_plan(const std::vector<double>& weights,
                                     unsigned index, unsigned count,
                                     std::uint32_t resolution) {
    util::check_usage(count >= 1 && index < count,
                      "weighted plan: shard index out of range");
    util::check_usage(!weights.empty(), "weighted plan: empty weight list");
    util::check_usage(resolution >= 2, "weighted plan: resolution too small");
    double total = 0;
    for (double w : weights) total += w > 0 ? w : 0;

    WeightedShardPlan plan;
    plan.index = index;
    plan.count = count;
    plan.resolution = resolution;
    if (total <= 0) {
        // No information: degenerate to a uniform contiguous split.
        std::vector<double> uniform(weights.size(), 1.0);
        return make_weighted_plan(uniform, index, count, resolution);
    }

    // Cake-cutting: jobs laid end to end on [0, total); shard s owns
    // [s, s+1) * total / count. The intersection with job j's segment maps
    // linearly onto its id space [0, resolution). Cut points are monotone in
    // s by construction, so the N shards' ranges for a job are disjoint and
    // cover [0, resolution) exactly.
    auto cut = [&](double start, double w, unsigned s) {
        if (w <= 0) {
            // Zero-length job: give the whole id space to the shard whose
            // slice contains the job's position, so its faults (if any)
            // still land on exactly one shard and the cover stays complete.
            const unsigned owner = std::min<unsigned>(
                count - 1, static_cast<unsigned>(start * count / total));
            return s <= owner ? std::uint32_t{0} : resolution;
        }
        double frac = (total * s / count - start) / w;
        frac = frac < 0 ? 0 : (frac > 1 ? 1 : frac);
        const auto r = static_cast<std::uint32_t>(frac * resolution + 0.5);
        return r > resolution ? resolution : r;
    };
    double start = 0;
    std::uint64_t h = util::kFnvOffset;
    fnv1a_u64(h, count);
    fnv1a_u64(h, resolution);
    for (std::size_t j = 0; j < weights.size(); ++j) {
        const double w = weights[j] > 0 ? weights[j] : 0;
        plan.job_ranges.emplace_back(cut(start, w, index),
                                     cut(start, w, index + 1));
        // Hash every shard's cut point, not just ours: all shards of one
        // weighted campaign derive the identical matrix, so this id names
        // the partition scheme independently of the shard index.
        for (unsigned s = 0; s <= count; ++s) fnv1a_u64(h, cut(start, w, s));
        start += w;
    }
    plan.partition_hash = h;
    return plan;
}

std::vector<double> probe_job_weights(const std::vector<ShardJobSpec>& jobs) {
    // One probe golden execution per distinct scenario (jobs sharing a
    // scenario share the measurement), run in parallel on the process-wide
    // pool — a 130-scenario campaign probes at pool width, not serially.
    std::vector<std::string> keys;
    std::vector<std::size_t> job_slot;
    std::vector<const ShardJobSpec*> distinct;
    for (const ShardJobSpec& j : jobs) {
        const std::string key = scenario_cache_key(j.scenario);
        std::size_t slot = keys.size();
        for (std::size_t k = 0; k < keys.size(); ++k)
            if (keys[k] == key) slot = k;
        if (slot == keys.size()) {
            keys.push_back(key);
            distinct.push_back(&j);
        }
        job_slot.push_back(slot);
    }
    std::vector<double> lens(distinct.size());
    Scheduler::instance().parallel_for(distinct.size(), [&](std::size_t i) {
        sim::Machine m = npb::make_machine(distinct[i]->scenario, false);
        m.run_until(~0ULL >> 1);
        util::check(m.status() == sim::RunStatus::Shutdown,
                    "weight probe: golden run did not terminate: " +
                        distinct[i]->scenario.name());
        lens[i] = static_cast<double>(m.total_retired());
    });
    std::vector<double> weights;
    weights.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        weights.push_back(lens[job_slot[j]] * jobs[j].cfg.n_faults);
    return weights;
}

namespace {

struct JobShape {
    npb::Scenario scenario;
    std::uint32_t fault_space = 0;
    /// Scalar golden fields only (outputs/hashes are not in the DB). A
    /// weighted shard that does not own a job writes "golden": null; at
    /// least one shard must provide the reference.
    bool has_golden = false;
    core::GoldenRef golden;
};

JobShape parse_job(const util::JsonValue& v) {
    JobShape s;
    s.scenario.isa = profile_from_name(v.at("isa").as_string());
    s.scenario.app = app_from_name(v.at("app").as_string());
    s.scenario.api = api_from_name(v.at("api").as_string());
    s.scenario.cores = static_cast<unsigned>(v.at("cores").as_u64());
    s.scenario.klass = klass_from_name(v.at("class").as_string());
    s.scenario.contract_fma = v.at("fma").as_bool();
    s.fault_space = static_cast<std::uint32_t>(v.at("fault_space").as_u64());
    const util::JsonValue& g = v.at("golden");
    if (g.type != util::JsonValue::Type::Null) {
        s.has_golden = true;
        s.golden.total_retired = g.at("total_retired").as_u64();
        s.golden.ticks = g.at("ticks").as_u64();
        s.golden.app_start = g.at("app_start").as_u64();
        s.golden.exit_code = static_cast<int>(g.at("exit_code").as_double());
    }
    return s;
}

/// Validate shard `b`'s view of job j against the accumulated shape `a`,
/// adopting b's golden reference when a has none yet. Returns true when the
/// accumulated golden changed (callers refresh the result's copy).
bool merge_job_shape(JobShape& a, const JobShape& b, std::size_t j) {
    const std::string ctx = "shard merge: job " + std::to_string(j);
    util::check_valid(a.scenario.name() == b.scenario.name() &&
                    a.fault_space == b.fault_space,
                ctx + ": job lists differ across shards");
    if (!b.has_golden) return false;
    if (!a.has_golden) {
        a.has_golden = true;
        a.golden = b.golden;
        return true;
    }
    util::check_valid(a.golden.total_retired == b.golden.total_retired &&
                    a.golden.ticks == b.golden.ticks &&
                    a.golden.app_start == b.golden.app_start &&
                    a.golden.exit_code == b.golden.exit_code,
                ctx + ": golden references diverge across shards "
                      "(nondeterministic golden run or config drift)");
    return false;
}

} // namespace

std::vector<core::CampaignResult> merge_shards(
    const std::vector<std::string>& shard_dbs, std::ostream* csv_sink,
    std::ostream* jsonl_sink) {
    util::check_valid(!shard_dbs.empty(), "shard merge: no shard databases given");

    std::vector<JobShape> shape;
    std::vector<core::CampaignResult> results;
    std::vector<std::vector<std::uint8_t>> filled;
    std::string config_hash;
    std::string partition_id;
    unsigned shard_count = 0;
    std::vector<std::uint8_t> seen_shards;
    bool first_db = true; // explicit: an empty jobs array must not re-arm it

    for (const std::string& raw_db : shard_dbs) {
        // Fleet workers stream shard DBs back zstd-framed; accept them
        // everywhere a plain one is by decompressing transparently.
        std::string decoded;
        if (util::zframe_is(raw_db)) decoded = util::zframe_decompress(raw_db);
        const std::string& db = util::zframe_is(raw_db) ? decoded : raw_db;
        std::size_t pos = db.find('\n');
        util::check_valid(pos != std::string::npos, "shard merge: missing manifest line");
        const util::JsonValue manifest = util::json_parse(db.substr(0, pos));
        util::check_valid(manifest.find("magic") &&
                        manifest.at("magic").as_string() == kMagic,
                    "shard merge: not a serep shard database");
        util::check_valid(manifest.at("version").as_u64() == kVersion,
                    "shard merge: unsupported shard database version");
        const std::uint64_t count = manifest.at("count").as_u64();
        const std::uint64_t index = manifest.at("shard").as_u64();
        check_shard_slot(count, index, "shard merge");
        const std::string hash = manifest.at("config_hash").as_string();
        // Pre-PR-4 databases carry no partition id; they were all uniform.
        const util::JsonValue* part = manifest.find("partition");
        const std::string partition = part ? part->as_string() : "uniform";

        if (first_db) {
            first_db = false;
            shard_count = static_cast<unsigned>(count);
            config_hash = hash;
            partition_id = partition;
            seen_shards.assign(count, 0);
            util::check_valid(!manifest.at("jobs").arr.empty(),
                        "shard merge: shard database has an empty job list");
            for (const util::JsonValue& jv : manifest.at("jobs").arr) {
                shape.push_back(parse_job(jv));
                core::CampaignResult r;
                r.scenario = shape.back().scenario;
                r.golden = shape.back().golden;
                r.records.resize(shape.back().fault_space);
                results.push_back(std::move(r));
                filled.emplace_back(shape.back().fault_space, 0);
            }
        } else {
            util::check_valid(count == shard_count,
                        "shard merge: shard counts differ across databases");
            util::check_valid(hash == config_hash,
                        "shard merge: config hash mismatch — the databases "
                        "come from different campaigns");
            util::check_valid(partition == partition_id,
                        "shard merge: partition scheme mismatch — uniform and "
                        "weighted (or differently weighted) shards of a "
                        "campaign do not tile the fault space together");
            const auto& jobs = manifest.at("jobs").arr;
            util::check_valid(jobs.size() == shape.size(),
                        "shard merge: job lists differ across shards");
            for (std::size_t j = 0; j < jobs.size(); ++j)
                if (merge_job_shape(shape[j], parse_job(jobs[j]), j))
                    results[j].golden = shape[j].golden;
        }
        util::check_valid(!seen_shards[index],
                    "shard merge: shard " + std::to_string(index) +
                        " appears more than once");
        seen_shards[index] = 1;

        // Record lines.
        while (pos < db.size()) {
            const std::size_t eol = db.find('\n', pos + 1);
            const std::string line =
                db.substr(pos + 1, eol == std::string::npos ? std::string::npos
                                                            : eol - pos - 1);
            pos = eol == std::string::npos ? db.size() : eol;
            if (line.empty()) continue;
            const util::JsonValue rv = util::json_parse(line);
            const std::size_t j = rv.at("job").as_u64();
            util::check_valid(j < shape.size(), "shard merge: record for unknown job");
            const std::uint32_t ord =
                static_cast<std::uint32_t>(rv.at("ord").as_u64());
            util::check_valid(ord < shape[j].fault_space,
                        "shard merge: record ordinal out of range");
            util::check_valid(!filled[j][ord],
                        "shard merge: fault covered by more than one shard");
            filled[j][ord] = 1;
            core::FaultRecord& rec = results[j].records[ord];
            rec.fault.at_retired = rv.at("at").as_u64();
            util::check_valid(core::fault_kind_from_name(rv.at("kind").as_string(),
                                                   rec.fault.target.kind),
                        "shard merge: unknown fault kind");
            rec.fault.target.core = static_cast<unsigned>(rv.at("core").as_u64());
            rec.fault.target.reg = static_cast<unsigned>(rv.at("reg").as_u64());
            rec.fault.target.bit = static_cast<unsigned>(rv.at("bit").as_u64());
            rec.fault.target.phys = rv.at("phys").as_u64();
            core::Outcome o;
            util::check_valid(core::outcome_from_name(rv.at("outcome").as_string(), o),
                        "shard merge: unknown outcome");
            rec.outcome = o;
            rec.retired = rv.at("retired").as_u64();
            // Provenance flag from pruned campaigns (absent = simulated).
            if (const util::JsonValue* inf = rv.find("inferred"))
                rec.inferred = inf->as_bool();
        }
    }

    for (unsigned s = 0; s < shard_count; ++s)
        util::check_valid(seen_shards[s],
                    "shard merge: shard " + std::to_string(s) + " of " +
                        std::to_string(shard_count) + " is missing");
    for (std::size_t j = 0; j < shape.size(); ++j) {
        util::check_valid(shape[j].has_golden,
                    "shard merge: job " + std::to_string(j) +
                        " has no golden reference in any shard");
        for (std::uint32_t o = 0; o < shape[j].fault_space; ++o)
            util::check_valid(filled[j][o], "shard merge: job " + std::to_string(j) +
                                          " fault " + std::to_string(o) +
                                          " not covered by any shard");
    }

    // Phase 4: counts + the exact streams BatchRunner emits unsharded.
    bool header_written = false;
    for (core::CampaignResult& r : results) {
        r.recount();
        if (csv_sink) {
            const std::string csv = core::campaign_csv(r);
            if (header_written) {
                *csv_sink << csv.substr(csv.find('\n') + 1);
            } else {
                *csv_sink << csv;
                header_written = true;
            }
        }
        if (jsonl_sink) *jsonl_sink << core::campaign_json(r) << '\n';
    }
    return results;
}

} // namespace serep::orch
