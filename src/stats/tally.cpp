#include "stats/tally.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>

#include "orch/shard.hpp"
#include "uncore/uncore.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/zframe.hpp"

namespace serep::stats {

namespace {

core::Outcome outcome_or_throw(const std::string& name, const std::string& ctx) {
    core::Outcome o;
    util::check_valid(core::outcome_from_name(name, o),
                      ctx + ": unknown outcome '" + name + "'");
    return o;
}

core::FaultTarget::Kind kind_or_throw(const std::string& name,
                                      const std::string& ctx) {
    core::FaultTarget::Kind k;
    util::check_valid(core::fault_kind_from_name(name, k),
                      ctx + ": unknown fault kind '" + name + "'");
    return k;
}

} // namespace

std::string GroupKey::scenario() const {
    return isa + "-" + app + "-" + api + "-" + std::to_string(cores);
}

bool GroupKey::operator<(const GroupKey& o) const noexcept {
    return std::tie(isa, app, api, cores, kind) <
           std::tie(o.isa, o.app, o.api, o.cores, o.kind);
}

bool GroupKey::operator==(const GroupKey& o) const noexcept {
    return std::tie(isa, app, api, cores, kind) ==
           std::tie(o.isa, o.app, o.api, o.cores, o.kind);
}

bool RegKey::operator<(const RegKey& o) const noexcept {
    return std::tie(isa, kind, reg) < std::tie(o.isa, o.kind, o.reg);
}

bool UncoreKey::operator<(const UncoreKey& o) const noexcept {
    return std::tie(isa, kind, where) < std::tie(o.isa, o.kind, o.where);
}

std::uint64_t GroupCounts::total() const noexcept {
    std::uint64_t t = 0;
    for (std::uint64_t c : counts) t += c;
    return t;
}

std::uint64_t GroupCounts::masked() const noexcept {
    return of(core::Outcome::Vanished) + of(core::Outcome::ONA);
}

std::uint64_t GroupCounts::failed() const noexcept {
    return of(core::Outcome::OMM) + of(core::Outcome::UT) +
           of(core::Outcome::Hang);
}

GroupKey parse_scenario_name(const std::string& name) {
    // "ARMv7-EP-SER-1": isa, app, api, cores, '-'-separated. App/api names
    // never contain '-', so plain splitting is unambiguous.
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t dash = name.find('-', pos);
        if (dash == std::string::npos) {
            parts.push_back(name.substr(pos));
            break;
        }
        parts.push_back(name.substr(pos, dash - pos));
        pos = dash + 1;
    }
    util::check_valid(parts.size() == 4 && !parts[0].empty() &&
                          !parts[1].empty() && !parts[2].empty() &&
                          !parts[3].empty(),
                      "malformed scenario name '" + name + "'");
    GroupKey key;
    key.isa = parts[0];
    key.app = parts[1];
    key.api = parts[2];
    for (char c : parts[3])
        util::check_valid(c >= '0' && c <= '9',
                          "malformed scenario core count in '" + name + "'");
    const std::optional<std::uint64_t> cores = util::parse_u64(parts[3]);
    util::check_valid(cores && *cores <= UINT32_MAX,
                      "malformed scenario core count in '" + name + "'");
    key.cores = static_cast<unsigned>(*cores);
    return key;
}

void OutcomeTally::add_record_from(const GroupKey& key, core::Outcome outcome,
                                   bool has_reg, unsigned reg, bool inferred,
                                   Source src, const std::string& label) {
    std::uint8_t& sources = group_sources_[key];
    util::check_valid(
        !(sources & ~static_cast<std::uint8_t>(src)),
        label + ": " + key.scenario() + " (" + key.kind +
            ") already has records from a " +
            (src == Source::Shard ? "merged or plain" : "shard") +
            " database — a merged database contains its shards' records, so "
            "mixing the two double-counts the campaign (merge the shards "
            "first, or report them separately)");
    sources |= static_cast<std::uint8_t>(src);
    if (inferred) ++inferred_records_;
    // --no-inferred: pruning-derived outcomes are tallied above for the
    // provenance note but excluded from every counter a report reads.
    if (inferred && !include_inferred_) return;
    ++groups_[key].counts[static_cast<unsigned>(outcome)];
    ++total_records_;
    if (has_reg)
        ++registers_[RegKey{key.isa, key.kind, reg}]
              .counts[static_cast<unsigned>(outcome)];
    // Uncore records also fold into the per-structure map: the cache kinds
    // carry their level in `reg` (0 = L1D, 1 = L2), bus faults land on the
    // one shared port.
    core::FaultTarget::Kind k;
    if (core::fault_kind_from_name(key.kind, k) && core::is_uncore_kind(k)) {
        const std::string where = k == core::FaultTarget::Kind::Bus
                                      ? "bus"
                                      : uncore::level_name(reg);
        ++uncore_[UncoreKey{key.isa, key.kind, where}]
              .counts[static_cast<unsigned>(outcome)];
    }
}

void OutcomeTally::add_result(const core::CampaignResult& r) {
    const GroupKey base = parse_scenario_name(r.scenario.name());
    for (const core::FaultRecord& rec : r.records)
        add_fault_record(base, rec, Source::Plain, "add_result");
}

void OutcomeTally::add_fault_record(const GroupKey& scenario,
                                    const core::FaultRecord& rec, Source src,
                                    const std::string& label) {
    GroupKey key = scenario;
    key.kind = core::fault_kind_name(rec.fault.target.kind);
    add_record_from(key, rec.outcome,
                    core::fault_kind_has_reg(rec.fault.target.kind),
                    rec.fault.target.reg, rec.inferred, src, label);
}

void OutcomeTally::add_database(const std::string& contents,
                                const std::string& label) {
    util::check_valid(!contents.empty(), label + ": empty database");
    if (util::zframe_is(contents)) {
        // zstd-framed (fleet-streamed) databases: decompress, then sniff the
        // plaintext as usual. Recursion is bounded: frames never nest.
        std::string plain;
        try {
            plain = util::zframe_decompress(contents);
        } catch (const util::ValidationError& e) {
            throw util::ValidationError(label + ": " + e.what());
        }
        add_database(plain, label);
        return;
    }
    if (contents.rfind("scenario,", 0) == 0) {
        add_csv(contents, label);
    } else if (orch::is_shard_db(contents)) {
        add_shard_db(orch::read_shard_db(contents, label), label);
        return;
    } else if (contents.front() == '{') {
        add_campaign_jsonl(contents, label);
    } else {
        throw util::ValidationError(
            "unrecognized database format (expected a serep shard DB, "
            "campaign JSONL, or per-fault CSV): " +
            label);
    }
    ++databases_;
}

void OutcomeTally::add_shard_db(const orch::ShardDb& db,
                                const std::string& label) {
    // Records are written job by job, so a cut database lacks its last jobs
    // entirely: a biased sample, refused even under a partial shard cover.
    util::check_valid(db.complete(),
                      label + " is incomplete (" + db.incomplete + ")");

    // Config-hash + partition cross-validation: every shard DB folded into
    // one tally must come from the same campaign *and* the same
    // fault-to-shard assignment scheme (a uniform and a weighted shard of
    // one campaign overlap and leave gaps — blending them would silently
    // double-count some faults and drop others), and no shard twice.
    if (shard_count_ == 0) {
        shard_hash_ = db.config_hash;
        shard_count_ = db.count;
        shard_partition_ = db.partition;
    }
    util::check_valid(db.config_hash == shard_hash_,
                      label + ": config hash mismatch — this shard "
                              "database comes from a different campaign");
    util::check_valid(db.count == shard_count_,
                      label + ": shard count differs from earlier databases");
    util::check_valid(db.partition == shard_partition_,
                      label + ": partition scheme mismatch — this shard was "
                              "cut by a different assignment than earlier "
                              "databases");
    util::check_valid(shard_seen_.insert(db.shard).second,
                      label + ": shard " + std::to_string(db.shard) +
                          " already folded into this tally");

    std::vector<GroupKey> job_keys;
    for (const orch::ShardDb::Job& job : db.jobs)
        job_keys.push_back(parse_scenario_name(job.scenario.name()));
    for (const orch::ShardDb::Record& r : db.records)
        add_fault_record(job_keys[r.job], r.rec, Source::Shard, label);
    ++databases_;
}

void OutcomeTally::add_campaign_jsonl(const std::string& contents,
                                      const std::string& label) {
    std::size_t line_no = 0;
    for (std::size_t pos = 0, eol; pos < contents.size(); pos = eol + 1) {
        eol = std::min(contents.find('\n', pos), contents.size());
        ++line_no;
        if (eol == pos) continue; // blank line
        // A missing member or a wrong type is damaged input too (exit 3),
        // named by line like a parse error.
        try {
            const util::JsonValue cv =
                util::json_parse(contents.substr(pos, eol - pos));
            const GroupKey base =
                parse_scenario_name(cv.at("scenario").as_string());
            for (const util::JsonValue& rv : cv.at("records").arr) {
                GroupKey key = base;
                const core::FaultTarget::Kind kind =
                    kind_or_throw(rv.at("kind").as_string(), label);
                key.kind = core::fault_kind_name(kind);
                const util::JsonValue* inf = rv.find("inferred");
                add_record_from(
                    key, outcome_or_throw(rv.at("outcome").as_string(), label),
                    core::fault_kind_has_reg(kind),
                    rv.u32_at("reg"),
                    inf && inf->as_bool(), Source::Plain, label);
            }
        } catch (const util::ValidationError&) {
            throw;
        } catch (const util::Error& e) {
            throw util::ValidationError(label + " line " +
                                        std::to_string(line_no) + ": " +
                                        e.what());
        }
    }
}

void OutcomeTally::add_csv(const std::string& contents,
                           const std::string& label) {
    const std::vector<std::vector<std::string>> rows = util::csv_parse(contents);
    util::check_valid(!rows.empty(), label + ": empty CSV");
    const std::vector<std::string>& header = rows.front();
    auto column = [&](const std::string& name) {
        for (std::size_t c = 0; c < header.size(); ++c)
            if (header[c] == name) return c;
        throw util::ValidationError(label + ": CSV lacks column '" + name + "'");
    };
    const std::size_t c_scenario = column("scenario"), c_kind = column("kind"),
                      c_reg = column("reg"), c_outcome = column("outcome");
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const std::vector<std::string>& row = rows[i];
        util::check_valid(row.size() == header.size(),
                          label + " row " + std::to_string(i) +
                              ": wrong cell count");
        GroupKey key = parse_scenario_name(row[c_scenario]);
        const core::FaultTarget::Kind kind = kind_or_throw(row[c_kind], label);
        key.kind = core::fault_kind_name(kind);
        // The whole cell, bounded to 32 bits as a shard DB's "reg" is.
        const std::optional<std::uint64_t> reg = util::parse_u64(row[c_reg]);
        util::check_valid(reg && *reg <= UINT32_MAX,
                          label + " row " + std::to_string(i) +
                              ": malformed reg '" + row[c_reg] + "'");
        // The per-fault CSV carries no provenance column (its byte format
        // predates pruning and must stay stable); records fold as simulated.
        add_record_from(key, outcome_or_throw(row[c_outcome], label),
                        core::fault_kind_has_reg(kind),
                        static_cast<unsigned>(*reg), false, Source::Plain, label);
    }
}

} // namespace serep::stats
