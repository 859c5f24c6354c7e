#include "core/campaign.hpp"

#include <algorithm>
#include <sstream>

#include "uncore/uncore.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace serep::core {

std::uint64_t CampaignResult::total() const noexcept {
    std::uint64_t t = 0;
    for (auto c : counts) t += c;
    return t;
}

double CampaignResult::pct(Outcome o) const noexcept {
    const auto t = total();
    if (!t) return 0;
    return 100.0 * static_cast<double>(counts[static_cast<unsigned>(o)]) /
           static_cast<double>(t);
}

double CampaignResult::masked_pct() const noexcept {
    return pct(Outcome::Vanished) + pct(Outcome::ONA);
}

void CampaignResult::recount() noexcept {
    counts = {};
    for (const FaultRecord& rec : records)
        ++counts[static_cast<unsigned>(rec.outcome)];
}

std::vector<Fault> make_fault_list(const sim::Machine& m, const GoldenRef& golden,
                                   const CampaignConfig& cfg) {
    util::check(golden.total_retired > golden.app_start,
                "fault list: empty application window");
    util::Rng rng(cfg.seed);
    const unsigned cores = m.cores();
    const auto& info = isa::profile_info(m.image().profile);
    std::vector<Fault> faults;
    faults.reserve(cfg.n_faults);
    for (unsigned i = 0; i < cfg.n_faults; ++i) {
        Fault f;
        f.at_retired = rng.range(golden.app_start, golden.total_retired - 1);
        if (is_uncore_kind(cfg.uncore_kind)) {
            f.target.kind = cfg.uncore_kind;
            if (cfg.uncore_kind == FaultTarget::Kind::Bus) {
                f.target.core = static_cast<unsigned>(rng.below(cores));
                f.target.bit = static_cast<unsigned>(rng.below(64));
            } else {
                // Cache strikes address a cache *cell* (set, way) — phys
                // carries the cell id and the strike hits whatever line is
                // resident there at the injection instant. For cache-data
                // `bit` indexes the struck bit within the 64-byte line; for
                // cache-tag it picks the flipped tag bit.
                const unsigned level =
                    static_cast<unsigned>(rng.below(uncore::kLevelCount));
                f.target.reg = level;
                f.target.core = level == uncore::kLevelL1D
                                    ? static_cast<unsigned>(rng.below(cores))
                                    : 0;
                f.target.phys = rng.below(uncore::cell_count(level));
                f.target.bit = static_cast<unsigned>(
                    cfg.uncore_kind == FaultTarget::Kind::CacheData
                        ? rng.below(64 * 8)
                        : rng.below(uncore::tag_bit_count(
                              level, m.mem().phys_size())));
            }
        } else if (cfg.memory_faults) {
            f.target.kind = FaultTarget::Kind::MEM;
            f.target.phys = rng.below(m.mem().phys_size());
            f.target.bit = static_cast<unsigned>(rng.below(8));
        } else {
            const unsigned fp_regs = cfg.include_fp_regs ? info.fp_reg_count : 0;
            const unsigned total_regs = info.gpr_count + fp_regs;
            const unsigned pick = static_cast<unsigned>(rng.below(total_regs));
            f.target.core = static_cast<unsigned>(rng.below(cores));
            if (pick < info.gpr_count) {
                f.target.kind = FaultTarget::Kind::GPR;
                f.target.reg = pick;
                f.target.bit = static_cast<unsigned>(rng.below(info.width_bits));
            } else {
                f.target.kind = FaultTarget::Kind::FP;
                f.target.reg = pick - info.gpr_count;
                f.target.bit = static_cast<unsigned>(rng.below(64));
            }
        }
        faults.push_back(f);
    }
    std::sort(faults.begin(), faults.end(), [](const Fault& a, const Fault& b) {
        return a.at_retired < b.at_retired;
    });
    return faults;
}

std::string campaign_csv(const CampaignResult& r) {
    std::ostringstream os;
    util::CsvWriter w(os);
    // `phys` is the struck physical byte for mem faults, the struck cache
    // cell id (set * ways + way, with `reg` the cache level) for cache
    // faults, and 0 for register/bus faults, whose target is the
    // core/reg/bit triple instead.
    w.row({"scenario", "at", "kind", "core", "reg", "bit", "phys", "outcome",
           "retired"});
    for (const FaultRecord& rec : r.records) {
        w.row({r.scenario.name(), std::to_string(rec.fault.at_retired),
               fault_kind_name(rec.fault.target.kind),
               std::to_string(rec.fault.target.core),
               std::to_string(rec.fault.target.reg),
               std::to_string(rec.fault.target.bit),
               std::to_string(rec.fault.target.phys), outcome_name(rec.outcome),
               std::to_string(rec.retired)});
    }
    return os.str();
}

std::string campaign_json(const CampaignResult& r) {
    std::ostringstream os;
    util::JsonWriter j(os);
    j.begin_object();
    j.key("scenario").value(r.scenario.name());
    j.key("golden").begin_object();
    j.key("total_retired").value(r.golden.total_retired);
    j.key("ticks").value(r.golden.ticks);
    j.key("app_start").value(r.golden.app_start);
    j.key("exit_code").value(r.golden.exit_code);
    j.end_object();
    j.key("counts").begin_object();
    for (unsigned o = 0; o < kOutcomeCount; ++o)
        j.key(outcome_name(static_cast<Outcome>(o))).value(r.counts[o]);
    j.end_object();
    j.key("pct").begin_object();
    for (unsigned o = 0; o < kOutcomeCount; ++o)
        j.key(outcome_name(static_cast<Outcome>(o)))
            .value(r.pct(static_cast<Outcome>(o)));
    j.end_object();
    j.key("masked_pct").value(r.masked_pct());
    j.key("records").begin_array();
    for (const FaultRecord& rec : r.records) {
        j.begin_object();
        j.key("at").value(rec.fault.at_retired);
        j.key("kind").value(fault_kind_name(rec.fault.target.kind));
        j.key("core").value(rec.fault.target.core);
        j.key("reg").value(rec.fault.target.reg);
        j.key("bit").value(rec.fault.target.bit);
        j.key("phys").value(rec.fault.target.phys);
        j.key("outcome").value(outcome_name(rec.outcome));
        j.key("retired").value(rec.retired);
        // Only pruned campaigns carry the provenance key, keeping unpruned
        // databases byte-identical to every release since PR 2.
        if (rec.inferred) j.key("inferred").value(true);
        j.end_object();
    }
    j.end_array();
    j.end_object();
    return os.str();
}

void write_campaign_streams(const CampaignResult& r, std::ostream* csv,
                            std::ostream* jsonl, bool header) {
    if (csv) {
        const std::string rows = campaign_csv(r);
        *csv << (header ? rows : rows.substr(rows.find('\n') + 1));
    }
    if (jsonl) *jsonl << campaign_json(r) << '\n';
}

} // namespace serep::core
