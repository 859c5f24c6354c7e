// Outcome aggregation across campaign databases (layer 1 of src/stats/).
//
// The repo produces outcome data in three shapes — in-process
// core::CampaignResult objects, BatchRunner's merged per-fault CSV, and the
// PR-2 shard/campaign JSONL databases — and the paper's analysis needs all
// of them folded into one set of counters keyed by configuration. An
// OutcomeTally is that fold: counts per (ISA profile, application,
// programming model, core count, fault kind) x outcome class, plus a
// per-register breakdown for the AVF-style vulnerability table.
//
// Ingestion is order-independent (keys live in ordered maps; counters only
// add), so a report rendered from N unmerged shard databases is
// byte-identical to one rendered from the merged database — asserted in
// tests/stats_test.cpp and by the stats-report-golden CI job. Shard
// databases are read by orch::read_shard_db and cross-validated by config
// hash: DBs from different campaigns, the same shard twice, a cut DB or one
// holding a record twice throw util::ValidationError, even under --partial.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "core/campaign.hpp"

namespace serep::orch {
struct ShardDb;
} // namespace serep::orch

namespace serep::stats {

/// One configuration cell of the paper's tables. All fields are the string
/// spellings the databases use (Scenario::name() fragments), so a tally can
/// be built from any database without reconstructing npb enums.
struct GroupKey {
    std::string isa;    ///< "ARMv7" / "ARMv8"
    std::string app;    ///< "EP", "CG", ...
    std::string api;    ///< "SER" / "OMP" / "MPI"
    unsigned cores = 0;
    std::string kind;   ///< fault-target space: "gpr" / "fp" / "mem"

    std::string scenario() const; ///< "ARMv7-EP-SER-1" spelling
    bool operator<(const GroupKey& o) const noexcept;
    bool operator==(const GroupKey& o) const noexcept;
};

/// Per-group outcome counters.
struct GroupCounts {
    std::array<std::uint64_t, core::kOutcomeCount> counts{};

    std::uint64_t total() const noexcept;
    std::uint64_t of(core::Outcome o) const noexcept {
        return counts[static_cast<unsigned>(o)];
    }
    /// Masked injections: no user-visible error (Vanished + ONA).
    std::uint64_t masked() const noexcept;
    /// AVF-style failures: user-visible misbehaviour (OMM + UT + Hang).
    std::uint64_t failed() const noexcept;
};

/// Per-register vulnerability cell (GPR/FP strikes only; memory strikes have
/// no architectural register target).
struct RegKey {
    std::string isa;
    std::string kind; ///< "gpr" / "fp"
    unsigned reg = 0;
    bool operator<(const RegKey& o) const noexcept;
};

/// Per-structure vulnerability cell for the uncore fault spaces: where in
/// the uncore the strike landed ("L1D" / "L2" for the cache kinds, "bus"
/// for bus faults) — the per-cache-level AVF breakdown of the report.
struct UncoreKey {
    std::string isa;
    std::string kind;  ///< "cache-tag" / "cache-data" / "bus"
    std::string where; ///< "L1D" / "L2" / "bus"
    bool operator<(const UncoreKey& o) const noexcept;
};

class OutcomeTally {
public:
    /// Fold one in-process campaign result (records carry kind + outcome).
    void add_result(const core::CampaignResult& r);

    /// Fold one database by content sniffing: a serep shard DB (JSONL with a
    /// manifest line), a campaign JSONL stream (core::campaign_json lines),
    /// or a merged per-fault CSV (campaign_csv header). `label` names the
    /// input in error messages (usually the file name). Throws
    /// util::ValidationError on malformed or incomplete input or shard DBs
    /// that do not belong to the same campaign as previously ingested ones.
    void add_database(const std::string& contents, const std::string& label);

    /// Fold one shard database already read by orch::read_shard_db (the
    /// fold step of add_database's shard-DB path), so a caller that vetted
    /// the bytes need not decode them twice. Same checks and refusals.
    void add_shard_db(const orch::ShardDb& db, const std::string& label);

    /// When false, pruning-derived records (the "inferred" provenance flag)
    /// are counted by inferred_records() but excluded from every group and
    /// register counter — `serep report --no-inferred`. Set before
    /// ingesting; default true (inferred outcomes are exact and gated in
    /// CI, so reports include them unless explicitly asked not to).
    void set_include_inferred(bool include) noexcept {
        include_inferred_ = include;
    }
    /// Records with inferred provenance seen during ingestion (counted
    /// whether or not they were included).
    std::uint64_t inferred_records() const noexcept {
        return inferred_records_;
    }

    const std::map<GroupKey, GroupCounts>& groups() const noexcept {
        return groups_;
    }
    const std::map<RegKey, GroupCounts>& registers() const noexcept {
        return registers_;
    }
    /// Per-uncore-structure counters; empty unless uncore-kind records were
    /// ingested (reports gate their uncore section on that).
    const std::map<UncoreKey, GroupCounts>& uncore() const noexcept {
        return uncore_;
    }

    std::uint64_t total_records() const noexcept { return total_records_; }
    std::size_t databases() const noexcept { return databases_; }
    bool empty() const noexcept { return groups_.empty(); }

    /// Shard-cover bookkeeping: how many shard DBs were folded and how many
    /// the campaign was cut into (0 when no shard DB was ingested). A tally
    /// over an incomplete cover reports a *sample* of the campaign, not the
    /// campaign — `serep report` refuses it unless --partial is given.
    std::size_t shards_seen() const noexcept { return shard_seen_.size(); }
    unsigned shard_count() const noexcept { return shard_count_; }
    bool shard_cover_complete() const noexcept {
        return shard_seen_.size() == shard_count_;
    }

private:
    void add_campaign_jsonl(const std::string& contents, const std::string& label);
    void add_csv(const std::string& contents, const std::string& label);
    /// One record's fold, with provenance: a group fed by both a shard DB
    /// and a merged/plain database is almost certainly the same campaign
    /// counted twice (the merged DB *contains* the shards' records), which
    /// would silently double n and shrink every CI — refused instead.
    enum class Source : std::uint8_t { Plain = 1, Shard = 2 };
    void add_record_from(const GroupKey& key, core::Outcome outcome,
                         bool has_reg, unsigned reg, bool inferred, Source src,
                         const std::string& label);
    /// add_record_from for one record of `scenario` (kind left empty).
    void add_fault_record(const GroupKey& scenario, const core::FaultRecord& rec,
                          Source src, const std::string& label);

    std::map<GroupKey, GroupCounts> groups_;
    std::map<GroupKey, std::uint8_t> group_sources_;
    std::map<RegKey, GroupCounts> registers_;
    std::map<UncoreKey, GroupCounts> uncore_;
    std::uint64_t total_records_ = 0;
    std::uint64_t inferred_records_ = 0;
    bool include_inferred_ = true;
    std::size_t databases_ = 0;
    /// Shard cross-validation state (config_hash and partition scheme of
    /// the first shard DB, the shard count, and which indices have been
    /// folded already).
    std::string shard_hash_;
    std::string shard_partition_;
    unsigned shard_count_ = 0;
    std::set<unsigned> shard_seen_;
};

/// Split a "ARMv7-EP-SER-1" scenario name into the key's scenario fields
/// (kind left empty). Throws util::ValidationError on malformed names.
GroupKey parse_scenario_name(const std::string& name);

} // namespace serep::stats
