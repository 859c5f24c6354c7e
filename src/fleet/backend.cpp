#include "fleet/backend.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/check.hpp"

namespace serep::fleet {

namespace {

/// Longest wait() while some running worker has no pidfd to watch: its
/// exit can only be seen by polling.
constexpr double kBlindWait = 0.2;

/// Redirect `fd` to `path` in the child; exits the child on failure (the
/// parent sees a nonzero worker exit, which is the failure channel).
void redirect_or_die(int fd, const std::string& path, int flags) {
    const int f = ::open(path.empty() ? "/dev/null" : path.c_str(), flags,
                         0644);
    if (f < 0 || ::dup2(f, fd) < 0) _exit(127);
    ::close(f);
}

/// A descriptor that becomes readable when `pid` exits (close-on-exec, so
/// sibling workers never inherit it), or -1 where the platform has none.
/// The child is not reaped yet, so its pid cannot have been recycled.
int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    (void)pid;
    return -1;
#endif
}

int exit_code_of(int status) {
    return WIFEXITED(status)     ? WEXITSTATUS(status)
           : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                 : 128;
}

} // namespace

void ProcBackend::reaped(Proc& p, int status) {
    p.exited = true;
    p.exit_code = exit_code_of(status);
    if (p.pidfd >= 0) ::close(p.pidfd);
    p.pidfd = -1;
}

ProcBackend::~ProcBackend() {
    for (auto& [id, p] : procs_) {
        if (p.exited || p.pid <= 0) continue;
        ::kill(static_cast<pid_t>(p.pid), SIGKILL);
        int status = 0;
        ::waitpid(static_cast<pid_t>(p.pid), &status, 0);
        reaped(p, status);
    }
}

int ProcBackend::launch(const WorkerSpawn& spawn) {
    util::check(!spawn.argv.empty(), "fleet: empty worker argv");
    std::vector<char*> argv;
    argv.reserve(spawn.argv.size() + 1);
    for (const std::string& a : spawn.argv)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    util::check(pid >= 0, "fleet: fork failed");
    if (pid == 0) {
        redirect_or_die(STDIN_FILENO, spawn.stdin_path, O_RDONLY);
        redirect_or_die(STDOUT_FILENO, spawn.stdout_path,
                        O_WRONLY | O_CREAT | O_TRUNC);
        redirect_or_die(STDERR_FILENO, spawn.stderr_path,
                        O_WRONLY | O_CREAT | O_TRUNC);
        ::execvp(argv[0], argv.data());
        _exit(127); // exec failed; 127 = "command not found" convention
    }
    const int id = next_id_++;
    procs_[id] = Proc{pid, open_pidfd(pid), false, 0};
    return id;
}

void ProcBackend::wait(double timeout_s) {
    std::vector<pollfd> fds;
    double timeout = std::max(timeout_s, 0.0);
    for (const auto& [id, p] : procs_) {
        if (p.exited) continue;
        if (p.pidfd >= 0)
            fds.push_back({p.pidfd, POLLIN, 0});
        else
            timeout = std::min(timeout, kBlindWait);
    }
    // Round up, so a wait for a deadline does not wake just before it.
    const int ms = static_cast<int>(std::min(std::ceil(timeout * 1e3),
                                             static_cast<double>(INT_MAX)));
    // EINTR and an error both just end the wait early.
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), ms);
}

WorkerBackend::Status ProcBackend::poll(int worker_id) {
    const auto it = procs_.find(worker_id);
    util::check(it != procs_.end(), "fleet: poll of unknown worker id");
    Proc& p = it->second;
    if (!p.exited) {
        int status = 0;
        const pid_t r =
            ::waitpid(static_cast<pid_t>(p.pid), &status, WNOHANG);
        if (r == static_cast<pid_t>(p.pid)) reaped(p, status);
    }
    Status s;
    s.running = !p.exited;
    s.exit_code = p.exit_code;
    return s;
}

void ProcBackend::kill(int worker_id) {
    const auto it = procs_.find(worker_id);
    util::check(it != procs_.end(), "fleet: kill of unknown worker id");
    if (it->second.exited) return;
    ::kill(static_cast<pid_t>(it->second.pid), SIGKILL);
    // Reap synchronously so the pid cannot be recycled under us.
    int status = 0;
    ::waitpid(static_cast<pid_t>(it->second.pid), &status, 0);
    reaped(it->second, status);
}

} // namespace serep::fleet
