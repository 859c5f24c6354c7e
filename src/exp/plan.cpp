#include "exp/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace serep::exp {

namespace {

const char* isa_str(const npb::Scenario& s) noexcept {
    return isa::profile_short_name(s.isa);
}

template <typename T>
bool matches(const std::vector<T>& set, const T& v) {
    return set.empty() || std::find(set.begin(), set.end(), v) != set.end();
}

bool same_cell(const npb::Scenario& s, const CellSpec& c) {
    return c.isa == isa_str(s) && c.app == npb::app_name(s.app) &&
           c.api == npb::api_name(s.api) && c.cores == s.cores;
}

} // namespace

ExperimentPlan::ExperimentPlan(ExperimentSpec spec) : spec_(std::move(spec)) {
    spec_.validate();
    spec_hash_ = spec_.spec_hash();
    hash_hex_ = spec_.spec_hash_hex();

    npb::Klass klass = npb::Klass::S;
    npb::klass_from_name(spec_.klass, klass); // validate() vetted the name
    core::CampaignConfig base;
    base.n_faults = spec_.faults;
    base.seed = spec_.seed;
    base.watchdog_factor = spec_.watchdog;

    const std::vector<npb::Scenario> all = npb::paper_scenarios(klass);

    // Kind-major expansion: the full scenario selection for each kind in
    // spec order, so a single-kind spec's job list is exactly the pre-list
    // one.
    for (const std::string& kind : spec_.kinds) {
        core::CampaignConfig cfg = base;
        cfg.include_fp_regs = kind == "fp";
        cfg.memory_faults = kind == "mem";
        core::FaultTarget::Kind fk = core::FaultTarget::Kind::GPR;
        core::fault_kind_from_name(kind, fk);
        if (core::is_uncore_kind(fk)) cfg.uncore_kind = fk;

        // fp campaigns only exist on the v8 profile: an unconstrained
        // matrix narrows to it, a constrained one is intersected with it
        // (a pure-fp spec naming v7 was already rejected in validate()).
        std::vector<std::string> isas = spec_.isas;
        if (kind == "fp") {
            if (isas.empty()) {
                isas = {"v8"};
            } else {
                isas.erase(std::remove_if(isas.begin(), isas.end(),
                                          [](const std::string& i) {
                                              return i != "v8";
                                          }),
                           isas.end());
                util::check_usage(!isas.empty(),
                                  "spec: fault.kind 'fp' needs a v8 scenario "
                                  "but matrix.isa selects none");
            }
        }

        std::vector<npb::Scenario> selected;

        // Explicit cells first, in spec order (the bench drivers depend on
        // result order matching their table layout). In a mixed-kind spec
        // the fp kind skips v7 cells (the other kinds still run them).
        for (const CellSpec& c : spec_.cells) {
            if (kind == "fp" && c.isa == "v7") continue;
            const auto it = std::find_if(all.begin(), all.end(),
                                         [&](const npb::Scenario& s) {
                                             return same_cell(s, c);
                                         });
            util::check_usage(
                it != all.end(),
                "spec: matrix.cells names a configuration the paper does not "
                "have: " + c.isa + "-" + c.app + "-" + c.api + "-" +
                    std::to_string(c.cores) +
                    " (check app/API availability and the BT/SP MPI "
                    "square-core restriction)");
            const bool dup = std::any_of(selected.begin(), selected.end(),
                                         [&](const npb::Scenario& s) {
                                             return same_cell(s, c);
                                         });
            util::check_usage(!dup, "spec: matrix.cells lists " + it->name() +
                                        " more than once");
            selected.push_back(*it);
        }

        // Cross-product matches in canonical paper order, minus cell
        // duplicates.
        if (spec_.cross_product) {
            for (const npb::Scenario& s : all) {
                if (!matches(isas, std::string(isa_str(s)))) continue;
                if (!matches(spec_.apps, std::string(npb::app_name(s.app))))
                    continue;
                if (!matches(spec_.apis, std::string(npb::api_name(s.api))))
                    continue;
                if (!matches(spec_.cores, s.cores)) continue;
                const bool dup = std::any_of(
                    spec_.cells.begin(), spec_.cells.end(),
                    [&](const CellSpec& c) { return same_cell(s, c); });
                if (!dup) selected.push_back(s);
            }
        }
        util::check_usage(!selected.empty(),
                          "spec: no scenarios match the given matrix" +
                              (spec_.kinds.size() > 1
                                   ? " for fault kind '" + kind + "'"
                                   : std::string()));

        for (const npb::Scenario& s : selected) {
            PlannedJob j;
            j.scenario = s;
            j.kind = kind;
            j.cfg = cfg;
            j.id = s.name() + "-" + spec_.klass + "-" + kind;
            jobs_.push_back(std::move(j));
        }
    }

    util::check_usage(spec_.weights.empty() ||
                          spec_.weights.size() == jobs_.size(),
                      "spec: shard.weights has " +
                          std::to_string(spec_.weights.size()) +
                          " entries but the matrix expands to " +
                          std::to_string(jobs_.size()) +
                          " jobs (one weight per job)");
    line_ = orch::scenario_major_line(shard_jobs());
    if (!weighted()) weights_.assign(jobs_.size(), spec_.faults);
    if (weights_ready()) partition_id_ = shard_cut(0).partition;
}

std::vector<orch::ShardJobSpec> ExperimentPlan::shard_jobs() const {
    std::vector<orch::ShardJobSpec> out;
    out.reserve(jobs_.size());
    for (const PlannedJob& j : jobs_) out.push_back({j.scenario, j.cfg});
    return out;
}

const std::vector<double>& ExperimentPlan::weights() {
    if (!spec_.weights.empty()) return spec_.weights;
    if (weights_.empty()) {
        weights_ = orch::probe_job_weights(shard_jobs());
        partition_id_ = shard_cut(0).partition;
    }
    return weights_;
}

orch::ShardCut ExperimentPlan::shard_cut(unsigned index) {
    return orch::make_shard_cut(spec_.partition, weights(), line_, index,
                                spec_.shards);
}

bool ExperimentPlan::accepts_partition(const std::string& id) const {
    if (!partition_id_.empty()) return id == partition_id_;
    return id.rfind(spec_.partition + "-", 0) == 0;
}

std::string ExperimentPlan::listing() {
    std::ostringstream os;
    char buf[160];

    os << "experiment " << spec_.name << " (spec " << hash_hex_ << ")\n";
    std::string kind_list;
    for (const std::string& k : spec_.kinds)
        kind_list += (kind_list.empty() ? "" : ",") + k;
    std::snprintf(buf, sizeof buf,
                  "fault model: kind=%s faults/job=%u seed=0x%llx\n",
                  kind_list.c_str(), spec_.faults,
                  static_cast<unsigned long long>(spec_.seed));
    os << buf;
    if (spec_.target_ci > 0) {
        std::snprintf(buf, sizeof buf,
                      "sizing: target-ci=%.3g @ %.2f confidence (batch %u, "
                      "min %u); faults/job is the ceiling\n",
                      spec_.target_ci, spec_.ci_confidence, spec_.ci_batch,
                      spec_.ci_min);
        os << buf;
    }
    // Emitted only for prune-enabled specs: the listing of every existing
    // spec (tests/golden/plan_paper_mini.txt) must stay byte-identical.
    if (spec_.prune) {
        std::snprintf(buf, sizeof buf,
                      "prune: fault-equivalence classes on (verify sample "
                      "%u/job)\n",
                      spec_.prune_verify);
        os << buf;
    }
    std::snprintf(buf, sizeof buf, "engine: %s, %u threads, checkpoints %s\n",
                  spec_.engine.c_str(), spec_.threads,
                  spec_.checkpoints ? "on (adaptive stride, delta rungs)"
                                    : "off");
    os << buf;

    const std::uint64_t space =
        static_cast<std::uint64_t>(jobs_.size()) * spec_.faults;
    std::snprintf(buf, sizeof buf, "jobs: %zu, fault space %llu\n",
                  jobs_.size(), static_cast<unsigned long long>(space));
    os << buf;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "  [%3zu] %s\n", i,
                      jobs_[i].id.c_str());
        os << buf;
    }

    if (spec_.shards > 1) {
        std::snprintf(buf, sizeof buf, "shards: %u %s -> %s_shard<k>.jsonl",
                      spec_.shards, spec_.partition.c_str(),
                      spec_.out.c_str());
        os << buf;
        if (!weighted()) {
            std::snprintf(buf, sizeof buf, ", ~%llu faults/shard\n",
                          static_cast<unsigned long long>(
                              (space + spec_.shards - 1) / spec_.shards));
            os << buf;
        } else if (weights_ready()) {
            // The cached (or baked) vector feeds this estimate AND every
            // shard cut of a subsequent run in this process — one probe per
            // experiment, never one per shard.
            const std::vector<double>& w = weights();
            double total = 0;
            for (double x : w) total += x > 0 ? x : 0;
            std::snprintf(buf, sizeof buf,
                          ", equal-work cut: ~%.3g weight units/shard\n",
                          total / spec_.shards);
            os << buf;
            os << "  weights: [";
            for (std::size_t i = 0; i < w.size(); ++i) {
                std::snprintf(buf, sizeof buf, "%s%.0f", i ? ", " : "", w[i]);
                os << buf;
            }
            os << "]  (bake into shard.weights to skip probing)\n";
        } else {
            // Listing never probes on its own: a fully-resumed `serep run`
            // must stay golden-run-free. `serep plan` probes explicitly and
            // prints the bakeable vector through the branch above.
            os << ", equal-work cut (weights probed at run time; `serep "
                  "plan` prints a bakeable vector)\n";
        }
        // Per-shard per-kind breakdown — only for mixed-kind specs, so
        // every single-kind plan golden stays byte-identical.
        if (spec_.kinds.size() > 1) {
            if (!weights_ready()) {
                os << "  per-kind shard breakdown: weights probed at run "
                      "time\n";
            } else {
                for (unsigned sh = 0; sh < spec_.shards; ++sh) {
                    const orch::ShardCut cut = shard_cut(sh);
                    std::snprintf(buf, sizeof buf, "  shard %u:", sh);
                    os << buf;
                    bool first = true;
                    for (const std::string& kind : spec_.kinds) {
                        std::size_t nk = 0;
                        std::uint64_t fk = 0;
                        for (std::size_t j = 0; j < jobs_.size(); ++j) {
                            if (jobs_[j].kind != kind || !cut.runs(j)) continue;
                            const auto& r = cut.job_ranges[j];
                            ++nk;
                            fk += static_cast<std::uint64_t>(
                                static_cast<double>(r.second - r.first) /
                                    cut.resolution * spec_.faults +
                                0.5);
                        }
                        std::snprintf(buf, sizeof buf,
                                      "%s %s %zu jobs ~%llu faults",
                                      first ? "" : ",", kind.c_str(), nk,
                                      static_cast<unsigned long long>(fk));
                        os << buf;
                        first = false;
                    }
                    os << "\n";
                }
            }
        }
    } else {
        os << "shards: none (single process)\n";
    }

    if (!spec_.out.empty())
        os << "outputs: " << csv_path() << ", " << jsonl_path() << "\n";
    if (!spec_.report_md.empty())
        os << "report: markdown -> " << spec_.report_md << "\n";
    if (!spec_.report_csv.empty())
        os << "report: csv -> " << spec_.report_csv << "\n";
    if (!spec_.report_json.empty())
        os << "report: figure-json -> " << spec_.report_json << "\n";
    return os.str();
}

} // namespace serep::exp
