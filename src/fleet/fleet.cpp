#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include <sys/stat.h>

#include "stats/ci.hpp"
#include "stats/tally.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace serep::fleet {

namespace {

void logf(std::FILE* f, const char* fmt, ...) {
    if (!f) return;
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(f, fmt, ap);
    va_end(ap);
    std::fflush(f);
}

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/// Size and last modification (seconds since the epoch) of a file; zeros
/// when it does not exist.
struct FileStamp {
    std::uint64_t size = 0;
    double mtime = 0;
};

FileStamp file_stamp(const std::string& path) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) return {};
    return {static_cast<std::uint64_t>(st.st_size),
            double(st.st_mtim.tv_sec) + 1e-9 * double(st.st_mtim.tv_nsec)};
}

double epoch_seconds() {
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/// Last `max_bytes` of a file — enough stderr to hold a handful of
/// heartbeat lines without re-reading a long worker log on every poll.
std::string read_tail(const std::string& path, std::size_t max_bytes) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.good()) return "";
    const auto size = static_cast<std::uint64_t>(in.tellg());
    const std::uint64_t start = size > max_bytes ? size - max_bytes : 0;
    in.seekg(static_cast<std::streamoff>(start));
    std::string buf(static_cast<std::size_t>(size - start), '\0');
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.resize(static_cast<std::size_t>(in.gcount()));
    return buf;
}

/// A shard waiting for a worker: not before `ready_at` (retry backoff).
struct PendingShard {
    unsigned shard = 0;
    double ready_at = 0;
};

} // namespace

FleetOptions fleet_options_from_spec(const exp::ExperimentSpec& spec) {
    FleetOptions o;
    o.backend = spec.fleet_backend;
    o.hosts = spec.fleet_hosts;
    o.workers = spec.fleet_workers;
    o.workers_per_host = spec.fleet_workers_per_host;
    o.heartbeat_interval = spec.fleet_heartbeat_interval;
    o.heartbeat_timeout = spec.fleet_heartbeat_timeout;
    o.max_retries = spec.fleet_max_retries;
    o.compress = spec.fleet_compress;
    o.remote_cmd = spec.fleet_remote_cmd;
    return o;
}

FleetResult run_fleet(exp::ExperimentPlan& plan, const FleetOptions& opts,
                      WorkerBackend* backend_override) {
    const exp::ExperimentSpec& spec = plan.spec();
    util::check_usage(!opts.spec_path.empty(),
                      "fleet: a spec file path is required (workers re-read "
                      "the spec themselves)");
    util::check_usage(!spec.out.empty(),
                      "fleet: the spec needs spec.out (shard databases are "
                      "the unit of transport)");
    util::check_usage(spec.target_ci == 0,
                      "fleet: adaptive (target_ci) experiments are a "
                      "single-process sequential rule — they cannot be "
                      "fanned out");
    util::check_usage(opts.backend == "local-proc" || opts.backend == "ssh",
                      "fleet: unknown backend '" + opts.backend +
                          "' (local-proc | ssh)");
    util::check_usage(opts.backend != "ssh" || !opts.hosts.empty(),
                      "fleet: the ssh backend needs at least one host "
                      "(--hosts=h1,h2,... or fleet.hosts in the spec)");
    util::check_usage(opts.heartbeat_timeout > opts.heartbeat_interval,
                      "fleet: heartbeat_timeout must exceed "
                      "heartbeat_interval");
    util::check_usage(opts.max_retries >= 1, "fleet: max_retries must be >= 1");

    // Telemetry export requested => flip the master switch so controller
    // spans and fleet.* counters record. Out of band like the driver's:
    // shard DBs and merged outputs are unaffected.
    const bool want_export =
        !opts.metrics_out.empty() || !opts.trace_out.empty();
    if (want_export) telemetry::set_enabled(true);

    const unsigned n = plan.shard_count();
    FleetResult res;
    res.shards_total = n;

    // ---- phase 0: resume probe — landed shards never launch ------------
    // Each shard's database, decoded once: here or as its payload lands.
    std::vector<orch::ShardDb> dbs(n);
    stats::OutcomeTally tally;
    std::deque<PendingShard> queue;
    std::size_t landed = 0;
    {
        telemetry::Span probe_span("fleet.probe");
        for (unsigned k = 0; k < n; ++k) {
            std::string found;
            orch::ShardDb db;
            if (exp::probe_shard_db(plan, k, n, &found, &db) ==
                exp::ShardDbState::Match) {
                logf(opts.log, "[skip] shard %u/%u: %s matches spec %s\n", k,
                     n, found.c_str(), plan.spec_hash_hex().c_str());
                tally.add_shard_db(db, found);
                dbs[k] = std::move(db);
                ++res.resumed;
                ++landed;
            } else {
                queue.push_back({k, 0});
            }
        }
    }
    if (telemetry::enabled() && res.resumed)
        telemetry::count("fleet.resumed", res.resumed);

    if (!queue.empty()) {
        // ---- worker slots ----------------------------------------------
        std::vector<std::string> free_slots; // one entry per idle slot: host
        if (opts.backend == "ssh") {
            for (const std::string& h : opts.hosts)
                for (unsigned i = 0; i < opts.workers_per_host; ++i)
                    free_slots.push_back(h);
            if (opts.workers > 0 && opts.workers < free_slots.size())
                free_slots.resize(opts.workers);
        } else {
            const std::size_t w =
                opts.workers > 0 ? opts.workers
                                 : std::min<std::size_t>(queue.size(), 8);
            free_slots.assign(std::max<std::size_t>(w, 1), "");
        }
        if (free_slots.size() > queue.size())
            free_slots.resize(queue.size());
        const std::string exe =
            !opts.serep_exe.empty() ? opts.serep_exe : self_exe_path();
        logf(opts.log, "fleet: %zu shard(s) pending, %zu %s worker slot(s)\n",
             queue.size(), free_slots.size(), opts.backend.c_str());

        ProcBackend default_backend;
        WorkerBackend* be =
            backend_override ? backend_override : &default_backend;

        telemetry::Span dispatch_span("fleet.dispatch");
        std::vector<WorkerLease> active;
        std::map<unsigned, unsigned> attempts;   // launches so far per shard
        std::vector<unsigned> quarantined;
        std::map<unsigned, std::string> quarantine_info; // last snapshot text

        const auto final_db_path = [&](unsigned k) {
            return opts.compress ? plan.shard_db_path(k) + ".zst"
                                 : plan.shard_db_path(k);
        };
        const auto log_path = [&](unsigned k) {
            return plan.shard_db_path(k) + ".worker.log";
        };

        // Failed attempt: re-queue with backoff or quarantine. Diagnostics
        // carry the worker's last reported metrics snapshot so a dead
        // worker's progress (was it even stepping?) survives in the log.
        const auto fail_shard = [&](const WorkerLease& lease,
                                    const std::string& why) {
            const unsigned k = lease.job.shard;
            const std::string snap = lease.snapshot.summary();
            std::remove(lease.job.payload_path.c_str());
            if (attempts[k] >= opts.max_retries) {
                logf(opts.log,
                     "fleet: shard %u/%u attempt %u FAILED (%s) — retry "
                     "budget exhausted, quarantining (last worker progress: "
                     "%s; worker log: %s)\n",
                     k, n, lease.job.attempt + 1, why.c_str(), snap.c_str(),
                     lease.job.log_path.c_str());
                quarantined.push_back(k);
                quarantine_info[k] = snap;
                if (telemetry::enabled())
                    telemetry::count("fleet.quarantined");
                return;
            }
            const double delay =
                opts.retry_backoff * double(1u << (attempts[k] - 1));
            logf(opts.log,
                 "fleet: shard %u/%u attempt %u failed (%s) — reassigning "
                 "in %.1fs (last worker progress: %s)\n",
                 k, n, lease.job.attempt + 1, why.c_str(), delay,
                 snap.c_str());
            queue.push_back({k, now_seconds() + delay});
            ++res.reassigned;
            if (telemetry::enabled()) telemetry::count("fleet.retries");
        };

        // Successful exit: the payload commits only as a complete Match.
        const auto try_commit = [&](const WorkerLease& lease) -> bool {
            const unsigned k = lease.job.shard;
            std::string payload;
            if (!read_file(lease.job.payload_path, payload)) {
                fail_shard(lease, "no payload");
                return false;
            }
            exp::ShardDbState state;
            orch::ShardDb db;
            try {
                state = exp::classify_shard_db(
                    payload, "fleet: shard " + std::to_string(k) + " payload",
                    plan, k, n, &db);
            } catch (const util::ValidationError& e) {
                fail_shard(lease, e.what());
                return false;
            }
            if (state != exp::ShardDbState::Match) {
                fail_shard(lease, state == exp::ShardDbState::Missing
                                      ? "empty payload"
                                      : "truncated payload");
                return false;
            }
            const std::string dest = final_db_path(k);
            util::check(std::rename(lease.job.payload_path.c_str(),
                                    dest.c_str()) == 0,
                        "fleet: cannot move " + lease.job.payload_path +
                            " to " + dest);
            std::remove(lease.job.log_path.c_str());
            tally.add_shard_db(db, dest);
            dbs[k] = std::move(db);
            ++landed;
            if (telemetry::enabled()) {
                telemetry::count("fleet.landed");
                // Fold the worker's totals: the poll loop re-parsed the log
                // tail after exit, so the snapshot is the beacon the worker
                // writes as it finishes — its complete count.
                telemetry::count("fleet.worker_steps", lease.snapshot.steps);
                telemetry::count("fleet.worker_runs", lease.snapshot.runs);
            }
            double max_hw = 0;
            for (const auto& [key, gc] : tally.groups())
                max_hw = std::max(max_hw, stats::wilson(gc.masked(),
                                                        gc.total(),
                                                        spec.confidence)
                                              .half_width());
            logf(opts.log,
                 "fleet: shard %u/%u landed -> %s (%zu/%u shards, %llu "
                 "records, max masked-CI half-width %.3f)\n",
                 k, n, dest.c_str(), landed, n,
                 static_cast<unsigned long long>(tally.total_records()),
                 max_hw);
            return true;
        };

        // Fleet-wide live progress: every couple of heartbeat periods (but
        // no more often than every 5s) aggregate the active workers' latest
        // snapshots into one line — steps/sec, run and shard completion, an
        // ETA from the summed run rates, and the rolling CI trajectory.
        const double progress_interval =
            std::max(5.0, 2 * opts.heartbeat_interval);
        double last_progress = now_seconds();
        const auto emit_progress = [&]() {
            double steps_rate = 0, runs_rate = 0;
            std::uint64_t runs = 0, runs_planned = 0;
            unsigned reporting = 0;
            for (const WorkerLease& l : active) {
                if (!l.snapshot.valid()) continue;
                ++reporting;
                steps_rate += double(l.snapshot.steps) / l.snapshot.elapsed_s;
                runs_rate += double(l.snapshot.runs) / l.snapshot.elapsed_s;
                runs += l.snapshot.runs;
                runs_planned += l.snapshot.runs_planned;
            }
            if (reporting == 0) return; // bare heartbeats only — nothing yet
            double max_hw = 0;
            for (const auto& [key, gc] : tally.groups())
                max_hw = std::max(max_hw,
                                  stats::wilson(gc.masked(), gc.total(),
                                                spec.confidence)
                                      .half_width());
            // Remaining work = active leases' unfinished runs plus a
            // per-shard estimate for everything still queued.
            const double avg_planned =
                double(runs_planned) / double(reporting);
            const double remaining = double(runs_planned - runs) +
                                     avg_planned * double(queue.size());
            char eta[32];
            if (runs_rate > 0)
                std::snprintf(eta, sizeof eta, "%.0fs", remaining / runs_rate);
            else
                std::snprintf(eta, sizeof eta, "n/a");
            logf(opts.log,
                 "fleet: progress %zu/%u shards landed, %u worker(s) "
                 "reporting, %.3g steps/s, %llu/%llu active runs, ETA %s, "
                 "max masked-CI half-width %.3f\n",
                 landed, n, reporting, steps_rate,
                 static_cast<unsigned long long>(runs),
                 static_cast<unsigned long long>(runs_planned), eta, max_hw);
        };

        while (!queue.empty() || !active.empty()) {
            // Launch into free slots every shard whose backoff has expired.
            for (std::size_t qi = 0;
                 !free_slots.empty() && qi < queue.size();) {
                if (queue[qi].ready_at > now_seconds()) {
                    ++qi;
                    continue;
                }
                const unsigned k = queue[qi].shard;
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(qi));
                WorkerLease lease;
                lease.job.shard = k;
                lease.job.count = n;
                lease.job.attempt = attempts[k]++;
                lease.job.host = free_slots.back();
                lease.job.spec_path = opts.spec_path;
                lease.job.compress = opts.compress;
                lease.job.heartbeat_interval = opts.heartbeat_interval;
                lease.job.payload_path = final_db_path(k) + ".part" +
                                         std::to_string(lease.job.attempt);
                lease.job.log_path = log_path(k);
                const WorkerSpawn spawn =
                    opts.backend == "ssh"
                        ? ssh_spawn(lease.job, opts.remote_cmd)
                        : local_spawn(lease.job, exe);
                lease.worker_id = be->launch(spawn);
                lease.started = lease.last_signal = now_seconds();
                lease.log_bytes = 0;
                ++res.launched;
                logf(opts.log, "fleet: shard %u/%u attempt %u -> worker %d%s%s\n",
                     k, n, lease.job.attempt + 1, lease.worker_id,
                     lease.job.host.empty() ? "" : " on ",
                     lease.job.host.c_str());
                // Test/CI hook: a deterministic mid-campaign worker death.
                if (opts.kill_shard >= 0 &&
                    k == static_cast<unsigned>(opts.kill_shard) &&
                    lease.job.attempt == 0) {
                    logf(opts.log,
                         "fleet: killing worker %d (--kill-shard=%d)\n",
                         lease.worker_id, opts.kill_shard);
                    be->kill(lease.worker_id);
                }
                free_slots.pop_back();
                active.push_back(lease);
            }

            // Poll active leases: exits commit or fail; silence kills. Each
            // stderr growth re-parses the log tail for the worker's latest
            // `hb` metrics snapshot (fleet-wide progress + diagnostics).
            const auto refresh_snapshot = [&](WorkerLease& lease) {
                parse_worker_snapshot(read_tail(lease.job.log_path, 8192),
                                      lease.snapshot);
            };
            for (std::size_t i = 0; i < active.size();) {
                WorkerLease& lease = active[i];
                const WorkerBackend::Status st = be->poll(lease.worker_id);
                bool release = false;
                if (!st.running) {
                    refresh_snapshot(lease); // catch the final heartbeats
                    if (st.exit_code == 0)
                        try_commit(lease);
                    else
                        fail_shard(lease, "worker exit code " +
                                              std::to_string(st.exit_code));
                    release = true;
                } else {
                    const FileStamp log = file_stamp(lease.job.log_path);
                    const double now = now_seconds();
                    if (log.size != lease.log_bytes) {
                        // The loop wakes only at exits and deadlines, so date
                        // the growth by the write itself: a silence is timed
                        // from the worker's last line, not from this look.
                        lease.log_bytes = log.size;
                        lease.last_signal =
                            std::clamp(now - (epoch_seconds() - log.mtime),
                                       lease.last_signal, now);
                        refresh_snapshot(lease);
                    }
                    if (now - lease.last_signal >= opts.heartbeat_timeout) {
                        be->kill(lease.worker_id);
                        fail_shard(lease,
                                   "heartbeat timeout (" +
                                       std::to_string(opts.heartbeat_timeout) +
                                       "s of silence; last progress: " +
                                       lease.snapshot.summary() + ")");
                        release = true;
                    }
                }
                if (release) {
                    free_slots.push_back(lease.job.host);
                    active.erase(active.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }

            if (!active.empty() &&
                now_seconds() - last_progress >= progress_interval) {
                last_progress = now_seconds();
                emit_progress();
            }

            if (queue.empty() && active.empty()) break;
            // Sleep until a worker exits or the next deadline: a heartbeat
            // timeout, a retry's backoff (only a free slot can take it), or
            // the next progress line. A deadline already due (a slot freed
            // for a ready shard) goes straight back round the loop.
            double deadline = active.empty()
                                  ? std::numeric_limits<double>::infinity()
                                  : last_progress + progress_interval;
            for (const WorkerLease& l : active)
                deadline = std::min(deadline,
                                    l.last_signal + opts.heartbeat_timeout);
            if (!free_slots.empty())
                for (const PendingShard& q : queue)
                    deadline = std::min(deadline, q.ready_at);
            const double timeout = deadline - now_seconds();
            if (timeout > 0) be->wait(timeout);
        }

        if (!quarantined.empty()) {
            std::sort(quarantined.begin(), quarantined.end());
            std::string list, snaps;
            for (unsigned k : quarantined) {
                list += (list.empty() ? "" : ", ") + std::to_string(k);
                snaps += "; shard " + std::to_string(k) + " last progress: " +
                         quarantine_info[k];
            }
            throw util::ValidationError(
                "fleet: shard(s) " + list + " quarantined after " +
                std::to_string(opts.max_retries) +
                " failed attempts each — poison shards; inspect "
                "<out>_shard<k>.jsonl.worker.log, fix the cause, and re-run "
                "(landed shards resume)" + snaps);
        }
    }

    // ---- final merge: the driver's own merge + report step ------------
    // Every shard landed as a Match, so merge + report reuse the exact
    // single-process machinery — byte-identity is inherited, not re-proven.
    exp::merge_and_report(plan, dbs, res.final, opts.log);

    // The merge ran in-process, so its merge/report spans sit in this
    // registry alongside the fleet.* aggregates — one fleet-wide export
    // covers controller and (committed) worker totals.
    if (want_export) {
        const telemetry::Provenance prov{"serep fleet",
                                         plan.spec_hash_hex()};
        if (!opts.metrics_out.empty()) {
            telemetry::write_metrics_file(opts.metrics_out, prov);
            logf(opts.log, "fleet: metrics -> %s\n",
                 opts.metrics_out.c_str());
        }
        if (!opts.trace_out.empty()) {
            telemetry::write_trace_file(opts.trace_out);
            logf(opts.log, "fleet: trace -> %s\n", opts.trace_out.c_str());
        }
    }
    return res;
}

} // namespace serep::fleet
