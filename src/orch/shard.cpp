#include "orch/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>
#include <string_view>
#include <unordered_map>

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

/// The value among `all` that `name` spells `s`; refused otherwise.
template <typename E, std::size_t N, typename Name>
E from_name(const E (&all)[N], Name name, const std::string& s,
            const char* what) {
    for (E e : all)
        if (s == name(e)) return e;
    throw util::ValidationError(std::string("unknown ") + what + " '" + s + "'");
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
/// are null for jobs this shard does not run at all: the manifest then
/// carries "golden": null and the merger takes the golden reference from an
/// owning shard.
struct ShardJobOutput {
    std::uint32_t fault_space = 0;
    const core::GoldenRef* golden = nullptr;
    const std::vector<core::FaultRecord>* records = nullptr;
    const std::vector<std::uint32_t>* ordinals = nullptr;
};

/// Back half of run_shard: manifest + record lines. `partition` identifies
/// the cut (ShardCut::partition) so readers can refuse to blend databases
/// whose partitions do not tile the fault space together.
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

ShardRunStats run_shard(const std::vector<ShardJobSpec>& jobs,
                        const ShardCut& cut, const BatchOptions& opts,
                        std::ostream& os, const ShardDbAnnotation* note) {
    util::check_usage(cut.count >= 1 && cut.index < cut.count,
                      "run_shard: shard index out of range");
    util::check_usage(!jobs.empty(), "run_shard: empty job list");
    util::check_usage(cut.job_ranges.size() == jobs.size(),
                      "run_shard: the cut covers a different job list");
    BatchRunner runner(opts);
    // Only jobs the cut runs are added: this shard pays golden-run and
    // ladder cost for its own scenarios only. Unowned jobs appear in the
    // manifest with "golden": null and no records; the merger takes their
    // golden reference from the shard(s) that ran them (every job has one,
    // since the ranges tile the id space).
    std::vector<std::size_t> runner_idx(jobs.size(), SIZE_MAX);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!cut.runs(j)) continue;
        runner_idx[j] =
            runner.add(jobs[j].scenario, jobs[j].cfg,
                       [&cut, j](std::uint32_t, const core::Fault& f) {
                           return cut.owns(j, f);
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
    return write_shard_db(jobs, cut.index, cut.count, cut.partition, outputs,
                          os, note);
}

std::vector<std::size_t> scenario_major_line(
    const std::vector<ShardJobSpec>& jobs) {
    // Rank of each golden key by first appearance.
    std::unordered_map<std::string, std::size_t> rank;
    std::vector<std::size_t> group(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        group[j] = rank.emplace(scenario_cache_key(jobs[j].scenario), rank.size())
                       .first->second;
    std::vector<std::size_t> line(jobs.size());
    std::iota(line.begin(), line.end(), std::size_t{0});
    std::stable_sort(line.begin(), line.end(),
                     [&](std::size_t a, std::size_t b) {
                         return group[a] < group[b];
                     });
    return line;
}

ShardCut make_shard_cut(const std::string& scheme,
                        const std::vector<double>& lengths,
                        const std::vector<std::size_t>& line, unsigned index,
                        unsigned count, std::uint32_t resolution) {
    util::check_usage(count >= 1 && index < count,
                      "shard cut: shard index out of range");
    util::check_usage(!lengths.empty(), "shard cut: empty job list");
    util::check_usage(resolution >= 2, "shard cut: resolution too small");
    util::check_usage(line.size() == lengths.size(),
                      "shard cut: the line and the lengths differ in size");
    std::vector<std::uint8_t> placed(lengths.size(), 0);
    for (std::size_t j : line) {
        util::check_usage(j < lengths.size() && !placed[j],
                          "shard cut: the line is not a permutation of the "
                          "jobs");
        placed[j] = 1;
    }
    double total = 0;
    for (double w : lengths) total += w > 0 ? w : 0;
    if (total <= 0) {
        // No information: degenerate to equal lengths.
        return make_shard_cut(scheme, std::vector<double>(lengths.size(), 1.0),
                              line, index, count, resolution);
    }

    ShardCut cut;
    cut.index = index;
    cut.count = count;
    cut.resolution = resolution;
    cut.job_ranges.resize(lengths.size());

    // Cake-cutting: jobs laid end to end on [0, total) in line order; shard
    // s owns [s, s+1) * total / count. The intersection with job j's segment
    // maps linearly onto its id space [0, resolution). Cut points are
    // monotone in s by construction, so the N shards' ranges for a job are
    // disjoint and cover [0, resolution) exactly.
    auto point = [&](double start, double w, unsigned s) {
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
    bool job_order = true;
    for (std::size_t p = 0; p < line.size(); ++p) {
        const std::size_t j = line[p];
        job_order = job_order && j == p;
        const double w = lengths[j] > 0 ? lengths[j] : 0;
        cut.job_ranges[j] = {point(start, w, index), point(start, w, index + 1)};
        // Hash every shard's cut point, not just ours: all shards of one
        // campaign derive the identical matrix, so this id names the
        // partition independently of the shard index.
        for (unsigned s = 0; s <= count; ++s) fnv1a_u64(h, point(start, w, s));
        start += w;
    }
    // The same points on another line own other jobs.
    if (!job_order)
        for (std::size_t j : line) fnv1a_u64(h, j);
    cut.partition = scheme + "-" + hash_hex(h);
    return cut;
}

ShardCut uniform_cut(const std::vector<ShardJobSpec>& jobs, unsigned index,
                     unsigned count) {
    std::vector<double> lengths;
    lengths.reserve(jobs.size());
    for (const ShardJobSpec& j : jobs) lengths.push_back(j.cfg.n_faults);
    return make_shard_cut("uniform", lengths, scenario_major_line(jobs), index,
                          count);
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
    Scheduler::instance().parallel_for(distinct.size(), [&](std::size_t i, unsigned) {
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

ShardDb::Job parse_job(const util::JsonValue& v) {
    ShardDb::Job s;
    s.scenario.isa = from_name({isa::Profile::V7, isa::Profile::V8},
                               isa::profile_name, v.at("isa").as_string(), "ISA");
    s.scenario.app = from_name(npb::kAllApps, npb::app_name,
                               v.at("app").as_string(), "application");
    s.scenario.api = from_name({npb::Api::Serial, npb::Api::OMP, npb::Api::MPI},
                               npb::api_name, v.at("api").as_string(), "API");
    s.scenario.cores = v.u32_at("cores");
    s.scenario.klass = klass_from_name(v.at("class").as_string());
    s.scenario.contract_fma = v.at("fma").as_bool();
    // make_fault_list draws exactly n_faults faults for every job.
    s.fault_space = v.u32_at("fault_space");
    util::check_valid(s.fault_space == v.u32_at("n_faults"),
                      "job fault_space " + std::to_string(s.fault_space) +
                          " differs from its n_faults");
    const util::JsonValue& g = v.at("golden");
    if (g.type == util::JsonValue::Type::Null) return s;
    s.golden.emplace();
    s.golden->total_retired = g.at("total_retired").as_u64();
    s.golden->ticks = g.at("ticks").as_u64();
    s.golden->app_start = g.at("app_start").as_u64();
    s.golden->exit_code = static_cast<int>(g.at("exit_code").as_double());
    return s;
}

/// Fill db's manifest fields; returns the annotated record-line count.
std::optional<std::uint64_t> parse_manifest(const util::JsonValue& m,
                                            ShardDb& db) {
    util::check_valid(m.find("magic") && m.at("magic").as_string() == kMagic,
                      "not a serep shard database");
    const std::uint64_t version = m.at("version").as_u64();
    util::check_valid(version == kVersion,
                      "unsupported shard database version " +
                          std::to_string(version));
    // Checked before narrowing: a forged 2^32 + 1 must not wrap to 1.
    const std::uint64_t count = m.at("count").as_u64();
    const std::uint64_t index = m.at("shard").as_u64();
    util::check_valid(count >= 1 && count <= kMaxShardCount,
                      "shard count " + std::to_string(count) +
                          " is outside [1, " + std::to_string(kMaxShardCount) +
                          "]");
    util::check_valid(index < count, "bad shard index");
    db.count = static_cast<unsigned>(count);
    db.shard = static_cast<unsigned>(index);
    db.config_hash = m.at("config_hash").as_string();
    const util::JsonValue* part = m.find("partition");
    db.partition = part ? part->as_string() : "uniform";
    for (const util::JsonValue& jv : m.at("jobs").arr)
        db.jobs.push_back(parse_job(jv));
    util::check_valid(!db.jobs.empty(), "empty job list");
    // The driver's annotation comes as one block (write_shard_db).
    const util::JsonValue* h = m.find("spec_hash");
    if (!h) return std::nullopt;
    db.spec_hash = h->as_string();
    return m.at("records").as_u64();
}

ShardDb::Record parse_record(const util::JsonValue& v,
                             const std::vector<ShardDb::Job>& jobs) {
    ShardDb::Record r;
    r.job = v.u32_at("job");
    r.ord = v.u32_at("ord");
    util::check_valid(r.job < jobs.size() && r.ord < jobs[r.job].fault_space,
                      "record (job " + std::to_string(r.job) + ", ord " +
                          std::to_string(r.ord) + ") is out of range");
    core::FaultRecord& rec = r.rec;
    rec.fault.at_retired = v.at("at").as_u64();
    const std::string& kind = v.at("kind").as_string();
    util::check_valid(core::fault_kind_from_name(kind, rec.fault.target.kind),
                      "unknown fault kind '" + kind + "'");
    rec.fault.target.core = v.u32_at("core");
    rec.fault.target.reg = v.u32_at("reg");
    rec.fault.target.bit = v.u32_at("bit");
    rec.fault.target.phys = v.at("phys").as_u64();
    const std::string& outcome = v.at("outcome").as_string();
    util::check_valid(core::outcome_from_name(outcome, rec.outcome),
                      "unknown outcome '" + outcome + "'");
    rec.retired = v.at("retired").as_u64();
    // Provenance flag from pruned campaigns (absent = simulated).
    if (const util::JsonValue* inf = v.find("inferred"))
        rec.inferred = inf->as_bool();
    return r;
}

} // namespace

ShardDb read_shard_db(const std::string& bytes, const std::string& label) {
    ShardDb db;
    std::string decoded;
    if (util::zframe_is(bytes)) {
        try {
            decoded = util::zframe_decompress(bytes);
        } catch (const util::ValidationError& e) {
            db.incomplete = e.what();
            return db;
        }
    }
    const std::string& text = util::zframe_is(bytes) ? decoded : bytes;
    // Only whole lines are read: bytes past the last '\n' are a line the
    // writer never finished (npos + 1 wraps to 0). Without one whole line
    // there is no manifest to tell a cut shard DB from a foreign file.
    const std::size_t end = text.rfind('\n') + 1;
    util::check_valid(end > 0 || text.empty(),
                      label + " line 1: no manifest line");
    if (end < text.size()) db.incomplete = "torn final line";
    if (text.empty()) db.incomplete = "empty";
    std::optional<std::uint64_t> records; // the manifest's count, if annotated
    std::set<std::uint64_t> seen;         // job << 32 | ord
    std::size_t line_no = 0;
    for (std::size_t pos = 0, eol; pos < end; pos = eol + 1) {
        eol = text.find('\n', pos);
        if (++line_no > 1 && eol == pos) continue; // blank line
        // Plain util::Error (a missing member, a wrong type) is damage too.
        try {
            const util::JsonValue v = util::json_parse(text.substr(pos, eol - pos));
            if (line_no == 1) {
                records = parse_manifest(v, db);
                continue;
            }
            if (records && db.records.size() == *records)
                throw util::ValidationError("more than the manifest's " +
                                            std::to_string(*records) + " records");
            const ShardDb::Record& r =
                db.records.emplace_back(parse_record(v, db.jobs));
            util::check_valid(seen.insert(std::uint64_t{r.job} << 32 | r.ord).second,
                              "job " + std::to_string(r.job) + " ordinal " +
                                  std::to_string(r.ord) + " recorded twice");
        } catch (const util::Error& e) {
            throw util::ValidationError(label + " line " + std::to_string(line_no) +
                                        ": " + e.what());
        }
    }
    if (db.complete() && records && db.records.size() < *records)
        db.incomplete = std::to_string(db.records.size()) + " of " +
                        std::to_string(*records) + " record lines";
    return db;
}

bool is_shard_db(const std::string& text) noexcept {
    return std::string_view(text).substr(0, text.find('\n')).find(
               "\"magic\":\"serep-shard\"") != std::string_view::npos;
}

namespace {

/// Validate shard `b`'s view of job j against the accumulated shape `a`,
/// adopting b's golden reference when a has none yet.
void merge_job_shape(ShardDb::Job& a, const ShardDb::Job& b, std::size_t j) {
    const std::string ctx = "shard merge: job " + std::to_string(j);
    util::check_valid(a.scenario.name() == b.scenario.name() &&
                          a.fault_space == b.fault_space,
                      ctx + ": job lists differ across shards");
    if (!b.golden) return;
    if (!a.golden) {
        a.golden = b.golden;
        return;
    }
    util::check_valid(a.golden->total_retired == b.golden->total_retired &&
                          a.golden->ticks == b.golden->ticks &&
                          a.golden->app_start == b.golden->app_start &&
                          a.golden->exit_code == b.golden->exit_code,
                      ctx + ": golden references diverge across shards "
                            "(nondeterministic golden run or config drift)");
}

} // namespace

std::vector<core::CampaignResult> merge_shards(
    const std::vector<std::string>& shard_dbs, std::ostream* csv_sink,
    std::ostream* jsonl_sink) {
    // Read every database before sizing anything by its manifests.
    std::vector<ShardDb> dbs;
    for (const std::string& bytes : shard_dbs)
        dbs.push_back(read_shard_db(
            bytes, "shard merge: database " + std::to_string(dbs.size())));
    return merge_shards(dbs, csv_sink, jsonl_sink);
}

std::vector<core::CampaignResult> merge_shards(const std::vector<ShardDb>& dbs,
                                               std::ostream* csv_sink,
                                               std::ostream* jsonl_sink) {
    util::check_valid(!dbs.empty(), "shard merge: no shard databases given");
    for (std::size_t i = 0; i < dbs.size(); ++i)
        util::check_valid(dbs[i].complete(),
                          "shard merge: database " + std::to_string(i) +
                              " is incomplete (" + dbs[i].incomplete + ")");

    const ShardDb& first = dbs.front();
    std::vector<ShardDb::Job> shape = first.jobs;
    std::vector<std::uint8_t> seen_shards(first.count, 0);
    std::uint64_t records = 0;
    for (const ShardDb& db : dbs) {
        util::check_valid(db.count == first.count,
                          "shard merge: shard counts differ across databases");
        util::check_valid(db.config_hash == first.config_hash,
                          "shard merge: config hash mismatch — the databases "
                          "come from different campaigns");
        util::check_valid(db.partition == first.partition,
                          "shard merge: partition mismatch (" + db.partition +
                              " vs " + first.partition +
                              ") — shards of a campaign cut differently do "
                              "not tile the fault space together");
        util::check_valid(db.jobs.size() == shape.size(),
                          "shard merge: job lists differ across shards");
        for (std::size_t j = 0; j < shape.size(); ++j)
            merge_job_shape(shape[j], db.jobs[j], j);
        util::check_valid(!seen_shards[db.shard],
                          "shard merge: shard " + std::to_string(db.shard) +
                              " appears more than once");
        seen_shards[db.shard] = 1;
        records += db.records.size();
    }
    for (unsigned s = 0; s < first.count; ++s)
        util::check_valid(seen_shards[s],
                          "shard merge: shard " + std::to_string(s) + " of " +
                              std::to_string(first.count) + " is missing");
    std::uint64_t fault_space = 0;
    for (const ShardDb::Job& job : shape) fault_space += job.fault_space;
    // Fewer records than faults leave some uncovered; with at least as
    // many, only a fault filled twice (refused below) can miss one.
    util::check_valid(records >= fault_space,
                      "shard merge: " + std::to_string(fault_space - records) +
                          " of " + std::to_string(fault_space) +
                          " faults are not covered by any shard");

    std::vector<core::CampaignResult> results(shape.size());
    std::vector<std::vector<std::uint8_t>> filled(shape.size());
    for (std::size_t j = 0; j < shape.size(); ++j) {
        util::check_valid(shape[j].golden.has_value(),
                          "shard merge: job " + std::to_string(j) +
                              " has no golden reference in any shard");
        results[j].scenario = shape[j].scenario;
        results[j].golden = *shape[j].golden;
        results[j].records.resize(shape[j].fault_space);
        filled[j].assign(shape[j].fault_space, 0);
    }
    for (const ShardDb& db : dbs) {
        for (const ShardDb::Record& r : db.records) {
            util::check_valid(!filled[r.job][r.ord],
                              "shard merge: job " + std::to_string(r.job) +
                                  " fault " + std::to_string(r.ord) +
                                  " covered by more than one shard");
            filled[r.job][r.ord] = 1;
            results[r.job].records[r.ord] = r.rec;
        }
    }

    // Phase 4: counts + the exact streams of an unsharded run.
    for (std::size_t j = 0; j < results.size(); ++j) {
        results[j].recount();
        core::write_campaign_streams(results[j], csv_sink, jsonl_sink, j == 0);
    }
    return results;
}

} // namespace serep::orch
