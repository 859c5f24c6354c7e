// Worker transport backends (layer 2 of src/fleet/): launch, wait, poll,
// kill.
//
// The controller's retry/reassign state machine talks to exactly this
// interface — launch a WorkerSpawn, wait until some worker may have exited
// or the next deadline passes, poll it for exit, kill it on heartbeat
// timeout. ProcBackend is the one real implementation (fork/exec/waitpid);
// "local-proc" and "ssh" differ only in the argv the protocol layer built
// (src/fleet/protocol.hpp), since an ssh transport *is* a local `ssh`
// process. Tests drive the controller with a scripted fake implementation
// instead — no processes, no ssh, full coverage of the failure paths.
#pragma once

#include <map>

#include "fleet/protocol.hpp"

namespace serep::fleet {

class WorkerBackend {
public:
    struct Status {
        bool running = true;
        int exit_code = 0; ///< meaningful only when !running; nonzero
                           ///< includes death by signal (128 + signo)
    };

    virtual ~WorkerBackend() = default;

    /// Start a worker; returns the backend's handle for it. Throws
    /// util::Error when the process cannot be started at all.
    virtual int launch(const WorkerSpawn& spawn) = 0;

    /// Block until some worker may have exited or `timeout_s` seconds have
    /// passed. It may return early; the caller polls to learn what changed.
    virtual void wait(double timeout_s) = 0;

    /// Non-blocking status check. A worker reported exited stays queryable
    /// (the result is latched) until the backend is destroyed.
    virtual Status poll(int worker_id) = 0;

    /// Hard-stop a worker (heartbeat timeout, shutdown). Idempotent; a
    /// subsequent poll reports it exited.
    virtual void kill(int worker_id) = 0;
};

/// fork/exec/waitpid backend used by both real transports. Redirects the
/// three protocol streams to the spawn's files, SIGKILLs on kill(), reaps
/// in poll(). wait() poll(2)s a pidfd per running worker, taken at launch
/// and closed at reap; where the platform refuses pidfd_open it sleeps at
/// most 0.2 s instead. Destroying the backend kills and reaps everything
/// still running — a controller exception never leaks workers.
class ProcBackend : public WorkerBackend {
public:
    ProcBackend() = default;
    ProcBackend(const ProcBackend&) = delete; // owns processes and pidfds
    ProcBackend& operator=(const ProcBackend&) = delete;
    ~ProcBackend() override;

    int launch(const WorkerSpawn& spawn) override;
    void wait(double timeout_s) override;
    Status poll(int worker_id) override;
    void kill(int worker_id) override;

private:
    struct Proc {
        long pid = -1;
        int pidfd = -1; ///< readable once the worker exits; -1 = none
        bool exited = false;
        int exit_code = 0;
    };
    /// Latch a reaped worker's wait status and close its pidfd.
    static void reaped(Proc& p, int status);

    std::map<int, Proc> procs_;
    int next_id_ = 1;
};

} // namespace serep::fleet
