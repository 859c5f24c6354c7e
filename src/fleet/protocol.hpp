// Fleet worker protocol (layer 1 of src/fleet/): what a shard assignment
// looks like on the wire, independent of any transport.
//
// A worker IS `serep run <spec> --shard=k/n --shard-stdout` — the same
// binary, the same driver, no bespoke worker daemon. The protocol is three
// byte streams:
//
//   stdin   the experiment spec (ssh backend: `serep run -` reads it here,
//           so nothing needs to be staged on the remote host)
//   stdout  the completed shard database, zstd-framed when --compress —
//           exactly the bytes that land at <out>_shard<k>.jsonl[.zst]
//   stderr  progress logs plus one `hb <i>` line per --heartbeat interval
//           and a final one at exit; the controller watches this stream
//           *grow* to tell a slow worker from a hung one
//
// Both backends reduce to argv construction over this contract —
// local_spawn() execs the controller's own binary, ssh_spawn() wraps the
// remote spelling in `ssh -o BatchMode=yes <host> …` — which is what makes
// the retry/reassign state machine (src/fleet/fleet.cpp) unit-testable with
// a scripted fake backend: nothing above this layer knows about processes.
//
// Payload validation is exp::classify_shard_db: a returned payload commits
// only when it classifies as a complete Match for THIS spec's shard k/n —
// truncated streams from killed workers re-queue, foreign or spec-mismatched
// payloads count against the shard's retry budget and end in quarantine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace serep::fleet {

/// One shard assignment, resolved to everything a backend needs to run it.
struct WorkerJob {
    unsigned shard = 0;
    unsigned count = 1;
    unsigned attempt = 0;    ///< 0-based; names the payload tmp file
    std::string host;        ///< ssh destination; "" for local-proc
    std::string spec_path;   ///< spec JSON on the controller host
    bool compress = true;    ///< stream the shard DB zstd-framed
    double heartbeat_interval = 1.0; ///< worker-side `hb` period (seconds)
    std::string payload_path; ///< controller file the worker's stdout fills
    std::string log_path;     ///< controller file the worker's stderr fills
};

/// A fully resolved process invocation for WorkerBackend::launch.
struct WorkerSpawn {
    std::vector<std::string> argv;
    std::string stdin_path;  ///< "" = /dev/null
    std::string stdout_path;
    std::string stderr_path;
};

/// Spawn for the local-proc backend: a `serep run` child of `serep_exe`
/// (normally self_exe_path()), spec passed as a file path.
WorkerSpawn local_spawn(const WorkerJob& job, const std::string& serep_exe);

/// Spawn for the ssh backend: `ssh -o BatchMode=yes <host> '<remote_cmd>
/// run - …'`, with the spec fed over stdin so the remote host needs only a
/// serep binary.
WorkerSpawn ssh_spawn(const WorkerJob& job, const std::string& remote_cmd);

/// The `run` arguments both spawns share (everything after the spec
/// operand). Exposed for tests asserting the protocol without a backend.
std::vector<std::string> worker_run_args(const WorkerJob& job);

/// Absolute path of the running binary (/proc/self/exe), the default
/// local-proc worker executable.
std::string self_exe_path();

/// A worker's last reported telemetry snapshot, carried on its `hb` beacon
/// lines as `hb <i> {"elapsed_s":…,"runs":…,"runs_planned":…,"steps":…}`
/// (telemetry::progress_json). Workers without telemetry (heartbeat off, or
/// an older binary) emit bare `hb <i>` lines and the snapshot stays invalid
/// — every consumer treats that as "no metrics snapshot".
struct WorkerSnapshot {
    double elapsed_s = 0;
    std::uint64_t runs = 0;         ///< fault runs completed
    std::uint64_t runs_planned = 0; ///< fault runs this shard will execute
    std::uint64_t steps = 0;        ///< instructions retired so far
    bool valid() const noexcept { return elapsed_s > 0; }
    /// One-phrase rendering for kill/quarantine diagnostics, e.g.
    /// "12/40 runs, 1.2M steps/s at 3.5s" or "no metrics snapshot".
    std::string summary() const;
};

/// Parse the LAST snapshot-carrying `hb` line in a worker log tail.
/// Returns false (leaving `out` untouched) when no line parses — bare
/// heartbeats, partial trailing writes, and arbitrary log noise are all
/// tolerated, so callers can feed any suffix of the stderr file.
bool parse_worker_snapshot(const std::string& log_tail, WorkerSnapshot& out);

/// One active claim of a shard by a worker.
struct WorkerLease {
    WorkerJob job;
    int worker_id = -1;          ///< backend handle
    double started = 0;          ///< monotonic seconds at launch
    double last_signal = 0;      ///< monotonic seconds of the last stderr
                                 ///< growth, dated by the log's mtime
    std::uint64_t log_bytes = 0; ///< stderr size at the last look
    WorkerSnapshot snapshot;     ///< last parsed `hb` metrics snapshot
};

} // namespace serep::fleet
