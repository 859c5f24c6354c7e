// Fleet controller (layer 3 of src/fleet/): fan one experiment's shards out
// to workers, stream their databases back, survive dead workers, merge.
//
// The controller is a lease/wait/poll loop over the WorkerBackend interface:
//
//   probe    every shard already landed on disk (resume: Match) is folded
//            straight into the live tally and never launched
//   lease    free worker slots claim pending shards; a worker is `serep run
//            <spec> --shard=k/n --shard-stdout [--compress]` on some host
//   wait     the controller sleeps in WorkerBackend::wait until a worker
//            exits or its next deadline comes: a lease's heartbeat timeout,
//            a retry's backoff, or the next progress line — no fixed tick
//   poll     exited workers commit (payload classifies as a complete Match
//            for this spec's shard) or fail (nonzero exit, truncated or
//            foreign payload); silent workers past the heartbeat timeout
//            are killed at that deadline and count as failed
//   retry    failed shards re-queue with exponential backoff, up to
//            max_retries attempts; beyond that the shard is quarantined and
//            the run ends in util::ValidationError naming the poison shards
//   live     each committed shard folds into a rolling stats::OutcomeTally;
//            the log shows CI convergence mid-flight, and the partial shard
//            set on disk is readable by `serep report --partial` at any time
//   merge    when every shard has landed, the databases the probe and the
//            commits decoded go through the ordinary driver's closing step
//            (exp::merge_and_report) — every shard landed as a Match, so
//            the merged CSV/JSONL/report bytes are identical to the
//            single-process run by construction, and the spec-hash refusal
//            machinery that vetted them guards the fleet path for free
//
// Determinism note: a shard database's bytes depend only on (spec, k, n) —
// not on which host ran it, how many times it was retried, or in what order
// shards finished — so the fleet's merged outputs are byte-identical to
// `serep run spec.json` (gated in CI fleet-e2e with a worker killed
// mid-campaign).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/driver.hpp"
#include "fleet/backend.hpp"

namespace serep::fleet {

struct FleetOptions {
    std::string backend = "local-proc"; ///< "local-proc" / "ssh"
    std::vector<std::string> hosts;     ///< ssh destinations
    /// Concurrent workers; 0 = auto (local-proc: min(shards, 8); ssh: one
    /// per host x workers_per_host).
    unsigned workers = 0;
    unsigned workers_per_host = 1;
    double heartbeat_interval = 1.0; ///< worker `hb` period (seconds)
    double heartbeat_timeout = 30.0; ///< stderr silence -> presumed dead
    unsigned max_retries = 3;        ///< attempts per shard before quarantine
    double retry_backoff = 0.5;      ///< first retry delay; doubles per attempt
    bool compress = true;            ///< stream + land shard DBs zstd-framed
    std::string serep_exe;  ///< local worker binary; "" = /proc/self/exe
    std::string remote_cmd = "serep"; ///< serep spelling on ssh hosts
    std::string spec_path;  ///< REQUIRED: the spec file workers consume
    /// Test/CI hook: SIGKILL the first attempt at this shard right after
    /// launch, forcing one reassignment. -1 = off.
    int kill_shard = -1;
    std::FILE* log = stdout;
    /// Non-empty: enable telemetry and write a fleet-wide merged
    /// metrics.json here (controller spans + fleet.* counters + the
    /// committed workers' snapshot totals). Out of band, like the driver's.
    std::string metrics_out;
    /// Non-empty: enable telemetry and write the controller's Chrome
    /// trace-event JSON here.
    std::string trace_out;
};

struct FleetResult {
    std::size_t shards_total = 0;
    std::size_t resumed = 0;    ///< landed before any worker launched
    std::size_t launched = 0;   ///< worker launches, including retries
    std::size_t reassigned = 0; ///< failed attempts that were re-queued
    exp::DriverResult final;    ///< the closing merge + report
};

/// Run the experiment across the fleet. `backend_override` substitutes the
/// transport (tests inject fakes); null = a ProcBackend driving the argv
/// family opts.backend names. Throws util::UsageError on bad options,
/// util::ValidationError when shards exhaust their retry budget (poison
/// quarantine) or on resume/spec-hash conflicts, util::Error on I/O.
FleetResult run_fleet(exp::ExperimentPlan& plan, const FleetOptions& opts,
                      WorkerBackend* backend_override = nullptr);

/// Seed FleetOptions from the spec's `fleet` block (CLI flags override the
/// result field by field in tools/serep.cpp).
FleetOptions fleet_options_from_spec(const exp::ExperimentSpec& spec);

} // namespace serep::fleet
