// bench_campaign — the campaign benchmark: a fault-injection campaign timed
// from spec to rendered report, end to end and layer by layer, on four fixed
// workloads (specs/*.json; README.md gives the why of each).
//
//   bench_campaign --workload W --seed N --seconds S --trace 0|1
//       One workload. --trace 0 measures set-up (the golden runs plus
//       checkpoint ladders), then runs the campaign back to back for S
//       seconds and reports the end-to-end metrics. --trace 1 runs the
//       traced pass instead and reports the per-layer metrics. The last
//       stdout line is one JSON object: {"correct", "attempted", "failed",
//       "metrics"}; the metric names, units and directions are the ones
//       BENCHMARK.json lists.
//   bench_campaign [--out=BENCH_campaign.json] [--trace-out=FILE]
//                  [--rounds=5] [--seed=N] [--engine=cached|trace]
//                  [--workload=a,b] [--quick]
//       Every workload: set-up, then --rounds rounds that run each workload
//       once, round-robin (host drift hits all workloads alike), then one
//       traced pass each. --quick runs every workload once at a quarter of
//       its faults and only checks the outputs.
//   bench_campaign --compare BASE.json NEW.json
//       Compare two --out files metric by metric against the bounds in
//       BENCHMARK.json; exit 1 when any metric got worse.
//
// Load model: a closed loop with one client. One campaign runs at a time,
// on two busy host threads (`threads: 2` in the direct specs, 2 workers x 1
// thread in the fleet's): on a shared 4-vCPU VM, 3 or 4 busy threads let
// host speed sag by up to 60% over minutes of back-to-back runs, while 2
// kept the run-to-run spread near 10% on a quiet host (README.md).
// End-to-end runs go through the production front door — `serep run|fleet
// <spec>` as a child process with telemetry off — and wall, CPU (user+sys
// of the whole process tree) and peak RSS come from wait4(). --seed and
// --engine are written into the generated spec copy; serep only ever sees
// the spec.
//
// The traced pass times each layer from outside: it calls the public
// functions of exp, npb, orch, sim, core, prune, util (zframe) and stats,
// wraps each call in a span recorded in memory, and writes Chrome trace JSON
// (load it in Perfetto). It replays a deterministic sample of the faults
// (orch::fault_id(f) % 8 == 0) along BatchRunner's path and requires every
// replayed record to equal the end-to-end run's database record.
//
// Output checks (a failed check fails the run that produced the output):
//   * at the default seed, the per-fault CSV and the report must match
//     expected/<workload>.sha256 (sha256sum format; .quick.sha256 for
//     --quick). Engines are hash-neutral, so --engine=trace doubles as an
//     engine-identity check;
//   * every run of a workload must reproduce the bytes of its first good
//     run. The pruned workload's first run is the same spec with
//     --prune=off, so its CSV and report must equal the unpruned ones at
//     any seed; the fleet's must equal a direct `serep run`;
//   * the traced pass's replayed records, merge, tally and report must
//     reproduce what serep wrote.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "exp/driver.hpp"
#include "npb/npb.hpp"
#include "orch/batch_runner.hpp"
#include "orch/checkpoint.hpp"
#include "orch/shard.hpp"
#include "prune/prune.hpp"
#include "stats/report.hpp"
#include "stats/tally.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/zframe.hpp"

using namespace serep;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kDefaultSeed = 0xDAC2018;
constexpr double kMiB = 1024.0 * 1024.0;
/// Timeout of a run before the first good run's wall is known, and of the
/// auxiliary runs of the traced pass. Every workload finishes in seconds.
constexpr double kFixedTimeout = 60.0;
/// The deterministic replay sample: faults with fault_id % kSampleMod == 0.
constexpr std::uint64_t kSampleMod = 8;

/// The workloads and their production front door. Why each exists is in
/// README.md and BENCHMARK.json.
struct WorkloadDef {
    const char* name;
    bool fleet; ///< `serep fleet` (else `serep run`)
};
constexpr WorkloadDef kWorkloads[] = {
    {"paper_s", false},
    {"paper_s_pruned", false},
    {"uncore_s", false},
    {"fleet_mini", true},
};

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    util::check(in.good(), "cannot read " + p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void write_file(const fs::path& p, const std::string& text) {
    std::ofstream os(p, std::ios::binary);
    os << text;
    util::check(os.good(), "cannot write " + p.string());
}

// ---- SHA-256 (FIPS 180-4), so expected/*.sha256 read with sha256sum -c ----

std::string sha256_hex(const std::string& data) {
    static constexpr std::uint32_t k[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
        0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
        0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
        0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
        0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
        0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
        0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
        0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                          0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    const auto rotr = [](std::uint32_t x, unsigned n) {
        return (x >> n) | (x << (32 - n));
    };
    std::string msg = data;
    msg += '\x80';
    while (msg.size() % 64 != 56) msg += '\0';
    const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
    for (int i = 7; i >= 0; --i) msg += static_cast<char>(bits >> (8 * i));
    for (std::size_t off = 0; off < msg.size(); off += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = 0;
            for (int b = 0; b < 4; ++b)
                w[i] = (w[i] << 8) |
                       static_cast<unsigned char>(msg[off + 4 * i + b]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4],
                      f = h[5], g = h[6], hh = h[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                                     ((e & f) ^ (~e & g)) + k[i] + w[i];
            const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                                     ((a & b) ^ (a & c) ^ (b & c));
            hh = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        h[0] += a;
        h[1] += b;
        h[2] += c;
        h[3] += d;
        h[4] += e;
        h[5] += f;
        h[6] += g;
        h[7] += hh;
    }
    char hex[65];
    for (int i = 0; i < 8; ++i) std::snprintf(hex + 8 * i, 9, "%08x", h[i]);
    return std::string(hex, 64);
}

// ---- statistics ------------------------------------------------------------

/// Quartiles exactly as Python's statistics.quantiles(values, n=4) computes
/// them (the default "exclusive" method), so the spreads this harness
/// prints are the ones anyone recomputes from the same values in Python.
std::vector<double> quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 0) return {0, 0, 0};
    if (n == 1) return {v[0], v[0], v[0]};
    std::vector<double> out;
    const long m = n + 1;
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, n - 1);
        const long delta = i * m - j * 4;
        out.push_back((v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4);
    }
    return out;
}

double median(const std::vector<double>& v) { return quartiles(v)[1]; }

/// Linear-interpolated percentile (p in [0, 1]) for latency samples.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// ---- in-memory spans -> Chrome trace ---------------------------------------

/// Spans of the traced pass: name, start, end and the span that was open
/// when it began. Recorded single-threaded; written once at the end.
class Tracer {
public:
    struct Event {
        std::string name, what;
        double t0 = 0, t1 = 0; ///< seconds since the tracer's epoch
        int parent = -1;
        unsigned track = 0;
    };

    void set_track(unsigned track, const std::string& label) {
        track_ = track;
        tracks_.emplace_back(track, label);
    }
    int open(const std::string& name, const std::string& what) {
        events_.push_back({name, what, seconds_since(epoch_), 0,
                           stack_.empty() ? -1 : stack_.back(), track_});
        stack_.push_back(static_cast<int>(events_.size() - 1));
        return stack_.back();
    }
    double close(int id) {
        util::check(!stack_.empty() && stack_.back() == id,
                    "tracer: spans must close innermost first");
        stack_.pop_back();
        Event& e = events_[static_cast<std::size_t>(id)];
        e.t1 = seconds_since(epoch_);
        return e.t1 - e.t0;
    }
    std::size_t size() const noexcept { return events_.size(); }

    /// Summed self time (duration minus the time direct children cover) of
    /// the spans called `name` among events [first, end).
    double self_seconds(const std::string& name, std::size_t first) const {
        const std::vector<double> child = child_seconds();
        double total = 0;
        for (std::size_t i = first; i < events_.size(); ++i)
            if (events_[i].name == name)
                total += events_[i].t1 - events_[i].t0 - child[i];
        return total;
    }
    /// Spans whose direct children cover more than the span itself (a
    /// nesting bug); 0 for a well-formed trace.
    std::size_t malformed(std::size_t first) const {
        const std::vector<double> child = child_seconds();
        std::size_t bad = 0;
        for (std::size_t i = first; i < events_.size(); ++i)
            if (child[i] > events_[i].t1 - events_[i].t0 + 1e-9) ++bad;
        return bad;
    }

    std::string chrome_json() const {
        std::ostringstream os;
        util::JsonWriter w(os);
        w.begin_object();
        w.key("displayTimeUnit").value("ms");
        w.key("traceEvents").begin_array();
        for (const auto& [track, label] : tracks_) {
            w.begin_object();
            w.key("name").value("thread_name");
            w.key("ph").value("M");
            w.key("pid").value(1);
            w.key("tid").value(track);
            w.key("args").begin_object().key("name").value(label).end_object();
            w.end_object();
        }
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const Event& e = events_[i];
            w.begin_object();
            w.key("name").value(e.name);
            w.key("cat").value(e.name.substr(0, e.name.find('.')));
            w.key("ph").value("X");
            w.key("pid").value(1);
            w.key("tid").value(e.track);
            w.key("ts").value(e.t0 * 1e6);
            w.key("dur").value((e.t1 - e.t0) * 1e6);
            w.key("args").begin_object();
            w.key("id").value(static_cast<std::uint64_t>(i));
            w.key("parent").value(e.parent);
            if (!e.what.empty()) w.key("what").value(e.what);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        os << '\n';
        return os.str();
    }

private:
    std::vector<double> child_seconds() const {
        std::vector<double> child(events_.size(), 0.0);
        for (const Event& e : events_)
            if (e.parent >= 0)
                child[static_cast<std::size_t>(e.parent)] += e.t1 - e.t0;
        return child;
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Event> events_;
    std::vector<int> stack_;
    unsigned track_ = 1;
    std::vector<std::pair<unsigned, std::string>> tracks_;
};

/// RAII span; end() closes it early and returns its duration in seconds.
class TSpan {
public:
    TSpan(Tracer& t, const std::string& name, const std::string& what = "")
        : t_(t), id_(t.open(name, what)) {}
    ~TSpan() { end(); }
    TSpan(const TSpan&) = delete;
    TSpan& operator=(const TSpan&) = delete;
    double end() {
        if (!open_) return dur_;
        open_ = false;
        dur_ = t_.close(id_);
        return dur_;
    }

private:
    Tracer& t_;
    int id_;
    bool open_ = true;
    double dur_ = 0;
};

// ---- BENCHMARK.json --------------------------------------------------------

struct MetricDef {
    std::string name, unit, better;
    double bound = 0; ///< end-to-end only
};

struct BenchmarkDef {
    std::vector<MetricDef> end_to_end, per_layer;
};

BenchmarkDef load_benchmark_json() {
    const fs::path path = fs::path(BENCH_CAMPAIGN_DIR) / ".." / ".." /
                          "BENCHMARK.json";
    const util::JsonValue doc = util::json_parse(read_file(path));
    BenchmarkDef def;
    const auto metrics = [&](const char* key, std::vector<MetricDef>& out) {
        for (const util::JsonValue& m : doc.at(key).arr) {
            MetricDef d{m.at("name").as_string(), m.at("unit").as_string(),
                        m.at("better").as_string(), 0};
            if (const util::JsonValue* b = m.find("bound")) d.bound = b->as_double();
            out.push_back(d);
        }
    };
    metrics("end_to_end", def.end_to_end);
    metrics("per_layer", def.per_layer);
    return def;
}

// ---- child processes -------------------------------------------------------

struct ChildResult {
    double wall_s = 0, cpu_s = 0, rss_mib = 0;
    int exit_code = -1;
    bool timed_out = false;
};

/// SIGKILL whatever is left of process group `pgid` and reap it. The
/// spawner is a child subreaper, so a worker orphaned by a killed fleet
/// controller is re-parented to it and waited for, never leaked.
void reap_group(pid_t pgid) {
    if (::kill(-pgid, SIGKILL) != 0) return; // ESRCH: nothing left
    while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
    }
}

/// Run argv in `cwd` (stdout+stderr to cwd/serep.log) in its own process
/// group; the whole group is killed after `timeout_s`. Wall time spans fork
/// to reap; CPU and peak RSS are wait4()'s, which cover the child and every
/// descendant it waited for (the fleet's workers).
ChildResult run_child(const std::vector<std::string>& argv, const fs::path& cwd,
                      double timeout_s) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const std::string dir = cwd.string();
    const std::string log = (cwd / "serep.log").string();

    ChildResult r;
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    util::check(pid >= 0, "fork failed");
    if (pid == 0) {
        ::setpgid(0, 0);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0 || ::chdir(dir.c_str()) != 0) ::_exit(127);
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    ::setpgid(pid, pid); // also in the parent: the group exists before any kill

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::thread watchdog([&] {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::duration<double>(timeout_s),
                         [&] { return done; })) {
            r.timed_out = true;
            ::kill(-pid, SIGKILL);
        }
    });
    int status = 0;
    struct rusage ru {};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    r.wall_s = seconds_since(t0);
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_all();
    watchdog.join();
    reap_group(pid);

    r.cpu_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
              double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
    r.rss_mib = double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
    return r;
}

bool read_all(int fd, void* buf, std::size_t n) {
    char* p = static_cast<char*>(buf);
    while (n > 0) {
        const ssize_t k = ::read(fd, p, n);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) return false;
        p += k;
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) return false;
        p += k;
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

/// Runs every child process of the benchmark from a helper forked at
/// startup, while the harness is still a few MiB. Linux starts a forked
/// child's ru_maxrss at the high-water RSS of the process it was forked
/// from, so serep forked straight from the harness after a set-up or traced
/// pass (hundreds of MiB of ladders) would report the harness's peak as its
/// own.
class Spawner {
public:
    Spawner() {
        int req[2], res[2];
        util::check(::pipe2(req, O_CLOEXEC) == 0 && ::pipe2(res, O_CLOEXEC) == 0,
                    "pipe failed");
        pid_ = ::fork();
        util::check(pid_ >= 0, "fork failed");
        if (pid_ == 0) {
            ::close(req[1]);
            ::close(res[0]);
            serve(req[0], res[1]);
        }
        ::close(req[0]);
        ::close(res[1]);
        to_ = req[1];
        from_ = res[0];
    }
    ~Spawner() {
        ::close(to_); // EOF ends the helper
        ::close(from_);
        while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
        }
    }
    Spawner(const Spawner&) = delete;
    Spawner& operator=(const Spawner&) = delete;

    /// run_child(argv, cwd, timeout_s), executed by the helper.
    ChildResult run(const std::vector<std::string>& argv, const fs::path& cwd,
                    double timeout_s) {
        std::string msg = std::to_string(timeout_s) + '\0' + cwd.string() + '\0';
        for (const std::string& a : argv) msg += a + '\0';
        const std::uint32_t len = static_cast<std::uint32_t>(msg.size());
        ChildResult r;
        util::check(write_all(to_, &len, sizeof len) &&
                        write_all(to_, msg.data(), msg.size()) &&
                        read_all(from_, &r, sizeof r),
                    "the process spawner died");
        return r;
    }

private:
    [[noreturn]] static void serve(int in, int out) {
        ::prctl(PR_SET_CHILD_SUBREAPER, 1);
        for (;;) {
            std::uint32_t len = 0;
            std::string msg;
            if (!read_all(in, &len, sizeof len)) ::_exit(0);
            msg.resize(len);
            if (!read_all(in, msg.data(), len)) ::_exit(0);
            std::vector<std::string> parts;
            for (std::size_t at = 0, end; at < msg.size(); at = end + 1) {
                end = msg.find('\0', at);
                parts.push_back(msg.substr(at, end - at));
            }
            ChildResult r;
            try {
                r = run_child({parts.begin() + 2, parts.end()}, parts.at(1),
                              std::stod(parts.at(0)));
            } catch (const std::exception&) {
                r.exit_code = 127;
            }
            if (!write_all(out, &r, sizeof r)) ::_exit(0);
        }
    }

    pid_t pid_ = -1;
    int to_ = -1, from_ = -1;
};

/// The process-wide spawner; main() creates it before any heavy work.
Spawner* g_spawner = nullptr;

// ---- workloads -------------------------------------------------------------

struct Options {
    std::uint64_t seed = kDefaultSeed;
    std::string engine; ///< "" = as the spec says
    bool quick = false;
};

/// Output file name -> sha256 hex.
using Hashes = std::map<std::string, std::string>;

/// One campaign run through a front door.
struct Sample {
    ChildResult child;
    Hashes out;
    std::string error; ///< empty when the run succeeded
};

struct Workload {
    std::string name;
    bool fleet = false; ///< front door `serep fleet` (else `serep run`)
    exp::ExperimentSpec spec;
    std::vector<exp::PlannedJob> jobs;
    std::size_t faults = 0; ///< fault records one campaign answers
    fs::path dir;           ///< working directory of this workload's runs
    double timeout_s = kFixedTimeout;
    std::optional<Hashes> expected, reference;

    unsigned attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::vector<double> wall, cpu, rss, fps, setup;
    std::map<std::string, double> layer; ///< BENCHMARK.json per_layer values
    std::map<std::string, std::pair<double, std::string>> detail; ///< value, unit
};

Hashes parse_sha256_file(const fs::path& p) {
    Hashes h;
    std::istringstream in(read_file(p));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::size_t sp = line.find("  ");
        util::check(sp == 64, p.string() + ": not sha256sum format: " + line);
        h[line.substr(sp + 2)] = line.substr(0, 64);
    }
    return h;
}

Workload make_workload(const WorkloadDef& def, const Options& o) {
    Workload w;
    w.name = def.name;
    w.fleet = def.fleet;
    const fs::path specs = fs::path(BENCH_CAMPAIGN_DIR) / "specs";
    w.spec = exp::ExperimentSpec::load(read_file(specs / (w.name + ".json")));
    w.spec.seed = o.seed;
    if (!o.engine.empty()) w.spec.engine = o.engine;
    if (o.quick) w.spec.faults = std::max(1u, w.spec.faults / 4);
    util::check(!w.spec.report_md.empty(),
                w.name + ": the spec must render a markdown report");
    exp::ExperimentPlan plan(w.spec);
    w.jobs = plan.jobs();
    for (const exp::PlannedJob& j : w.jobs) w.faults += j.cfg.n_faults;
    w.dir = fs::path(".bench_work") / w.name;
    fs::remove_all(w.dir);
    fs::create_directories(w.dir);
    if (o.seed == kDefaultSeed)
        w.expected = parse_sha256_file(
            fs::path(BENCH_CAMPAIGN_DIR) / "expected" /
            (w.name + (o.quick ? ".quick.sha256" : ".sha256")));
    return w;
}

std::string log_tail(const fs::path& log) {
    std::error_code ec;
    if (!fs::exists(log, ec)) return "(no log)";
    const std::string text = read_file(log);
    return text.size() > 1500 ? "..." + text.substr(text.size() - 1500) : text;
}

/// One campaign: a fresh directory holding the spec copy, `serep <door>
/// spec.json <extra>`, then the output hashes. The directory is removed
/// unless `keep`.
Sample run_campaign(const Workload& w, const std::string& tag,
                    const std::string& door,
                    const std::vector<std::string>& extra, double timeout_s,
                    bool keep = false) {
    const fs::path dir = w.dir / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_file(dir / "spec.json", w.spec.canonical_json() + "\n");
    std::vector<std::string> argv = {SEREP_BIN, door, "spec.json"};
    argv.insert(argv.end(), extra.begin(), extra.end());

    Sample s;
    s.child = g_spawner->run(argv, dir, timeout_s);
    std::string cmd = "serep " + door + " spec.json";
    for (const std::string& e : extra) cmd += " " + e;
    if (s.child.timed_out) {
        s.error = cmd + ": timed out after " + std::to_string(timeout_s) + " s";
    } else if (s.child.exit_code != 0) {
        s.error = cmd + ": exit code " + std::to_string(s.child.exit_code) +
                  "\n" + log_tail(dir / "serep.log");
    } else {
        for (const std::string& f : {w.spec.out + "_faults.csv", w.spec.report_md}) {
            std::error_code ec;
            if (!fs::exists(dir / f, ec)) {
                s.error = cmd + ": wrote no " + f;
                break;
            }
            s.out[f] = sha256_hex(read_file(dir / f));
        }
    }
    if (!keep) fs::remove_all(dir);
    return s;
}

std::string diff_hashes(const Hashes& got, const Hashes& want) {
    std::string d;
    for (const auto& [f, h] : want) {
        const auto it = got.find(f);
        if (it == got.end() || it->second != h)
            d += " " + f + " (sha256 " +
                 (it == got.end() ? std::string("missing") : it->second) +
                 ", want " + h + ")";
    }
    return d;
}

/// Count one attempted run; a run fails on an error of its own or on
/// output bytes that differ from the reference or the expected hashes. The
/// first good run becomes the reference: it fixes the bytes every later run
/// must reproduce and the timeout of the timed runs (5x its wall).
bool record(Workload& w, const Sample& s, const std::string& what) {
    ++w.attempted;
    std::string err = s.error;
    if (err.empty() && w.reference) {
        const std::string d = diff_hashes(s.out, *w.reference);
        if (!d.empty())
            err = "output differs from the " +
                  std::string(w.spec.prune ? "unpruned " : "") +
                  "reference run:" + d;
    }
    if (err.empty() && w.expected) {
        const std::string d = diff_hashes(s.out, *w.expected);
        if (!d.empty())
            err = "output differs from expected/" + w.name + ".sha256:" + d;
    }
    if (err.empty()) {
        if (!w.reference) {
            w.reference = s.out;
            w.timeout_s = std::clamp(5 * s.child.wall_s, 10.0, kFixedTimeout);
        }
        return true;
    }
    ++w.failed;
    w.errors.push_back(what + ": " + err);
    std::fprintf(stderr, "bench_campaign: %s: %s: %s\n", w.name.c_str(),
                 what.c_str(), err.c_str());
    return false;
}

const char* door_of(const Workload& w) { return w.fleet ? "fleet" : "run"; }

/// A pruned workload's reference is the same spec run with --prune=off, so
/// every pruned run must reproduce the unpruned bytes.
void unpruned_reference(Workload& w) {
    if (w.spec.prune)
        record(w, run_campaign(w, "unpruned", door_of(w), {"--prune=off"},
                               kFixedTimeout),
               "--prune=off reference run");
}

/// Set-up time: one BatchRunner::run_all() over the workload's jobs with no
/// faults — golden runs plus checkpoint ladders, with the spec's threads
/// and engine (the production golden path). Repeated until >= 1 s has
/// accumulated (at least 3 times); the median is reported.
void measure_setup(Workload& w) {
    double total = 0;
    while ((total < 1.0 || w.setup.size() < 3) && w.setup.size() < 200) {
        orch::BatchRunner runner(exp::batch_options(w.spec));
        for (const exp::PlannedJob& j : w.jobs) {
            core::CampaignConfig cfg = j.cfg;
            cfg.n_faults = 0;
            runner.add(j.scenario, cfg);
        }
        const auto t0 = Clock::now();
        runner.run_all();
        w.setup.push_back(seconds_since(t0));
        total += w.setup.back();
    }
}

void timed_sample(Workload& w, unsigned i) {
    const Sample s =
        run_campaign(w, "t" + std::to_string(i), door_of(w), {}, w.timeout_s);
    record(w, s, "timed run " + std::to_string(i));
    w.wall.push_back(s.child.wall_s);
    w.cpu.push_back(s.child.cpu_s);
    w.rss.push_back(s.child.rss_mib);
    w.fps.push_back(double(w.faults) / s.child.wall_s);
}

/// The end-to-end metric samples of a workload, keyed by BENCHMARK.json name.
std::map<std::string, std::vector<double>> e2e_samples(const Workload& w) {
    return {{"wall_s", w.wall},       {"faults_per_s", w.fps},
            {"setup_s", w.setup},     {"cpu_s", w.cpu},
            {"peak_rss_mb", w.rss}};
}

// ---- traced pass -----------------------------------------------------------

/// Run `fn` (one span named `name` each time) until >= 0.2 s accumulated,
/// at least 5 and at most 50 times; returns the median duration.
template <typename Fn>
double repeat_median(Tracer& tr, const std::string& name, Fn&& fn) {
    std::vector<double> d;
    double total = 0;
    while ((total < 0.2 || d.size() < 5) && d.size() < 50) {
        TSpan s(tr, name);
        fn();
        d.push_back(s.end());
        total += d.back();
    }
    return median(d);
}

struct MetricsFile {
    double elapsed_s = 0;
    std::map<std::string, double> span_s, counters;
};

MetricsFile read_metrics_file(const fs::path& p) {
    const util::JsonValue doc = util::json_parse(read_file(p));
    MetricsFile m;
    m.elapsed_s = doc.at("elapsed_s").as_double();
    for (const auto& [name, v] : doc.at("spans").obj)
        m.span_s[name] = v.at("total_ns").as_double() * 1e-9;
    for (const auto& [name, v] : doc.at("counters").obj)
        m.counters[name] = v.as_double();
    return m;
}

/// Replay the sampled faults along BatchRunner's path against the DB of the
/// run in `db_dir`, and time merge / zframe / tally / report on that DB.
void traced_pass(Workload& w, const fs::path& db_dir, Tracer& tr) {
    const std::size_t first = tr.size();
    TSpan root(tr, "bench.workload", w.name);
    const auto fail = [&](const std::string& why) {
        w.errors.push_back("traced pass: " + why);
        std::fprintf(stderr, "bench_campaign: %s: traced pass: %s\n",
                     w.name.c_str(), why.c_str());
    };
    ++w.attempted; // the traced pass counts as one operation
    const std::size_t errors_before = w.errors.size();

    std::optional<exp::ExperimentPlan> plan;
    {
        TSpan s(tr, "exp.plan");
        plan.emplace(w.spec);
    }
    const orch::BatchOptions bopts = exp::batch_options(w.spec);

    // ---- the run's shard DBs, as serep left them on disk ----
    std::vector<std::string> dbs;
    double db_bytes = 0;
    for (unsigned k = 0; k < plan->shard_count(); ++k) {
        fs::path p = db_dir / plan->shard_db_path(k);
        if (!fs::exists(p)) p += ".zst";
        dbs.push_back(read_file(p));
        db_bytes += double(dbs.back().size());
    }
    w.layer["orch.db_mb"] = db_bytes / kMiB;

    std::vector<core::CampaignResult> merged;
    std::string csv, jsonl;
    w.layer["orch.merge_s"] = repeat_median(tr, "orch.merge_shards", [&] {
        std::ostringstream c, j;
        merged = orch::merge_shards(dbs, &c, &j);
        csv = c.str();
        jsonl = j.str();
    });
    if (csv != read_file(db_dir / (w.spec.out + "_faults.csv")))
        fail("orch::merge_shards does not reproduce serep's merged CSV");

    std::vector<std::string> raw;
    double raw_bytes = 0, packed_bytes = 0;
    for (const std::string& db : dbs) {
        raw.push_back(util::zframe_is(db) ? util::zframe_decompress(db) : db);
        raw_bytes += double(raw.back().size());
    }
    const double zt = repeat_median(tr, "util.zframe_compress", [&] {
        packed_bytes = 0;
        for (const std::string& r : raw) {
            const std::string z = util::zframe_compress(r);
            packed_bytes += double(z.size());
            if (util::zframe_decompress(z) != r)
                fail("util::zframe round trip changed the shard DB");
        }
    });
    w.layer["util.zframe_mb_per_s"] = raw_bytes / kMiB / zt;
    w.layer["util.zframe_ratio"] = raw_bytes / packed_bytes;

    std::optional<stats::OutcomeTally> tally;
    w.layer["stats.tally_s"] = repeat_median(tr, "stats.add_database", [&] {
        tally.emplace();
        tally->add_database(jsonl, w.spec.out + "_campaigns.jsonl");
    });
    stats::ReportOptions ropts;
    ropts.confidence = w.spec.confidence;
    ropts.top_registers = w.spec.top_regs;
    std::string report;
    w.layer["stats.report_s"] = repeat_median(tr, "stats.render_report", [&] {
        report = stats::render_report(*tally, ropts);
    });
    if (report != read_file(db_dir / w.spec.report_md))
        fail("stats::render_report does not reproduce serep's report");

    // ---- goldens + ladders, then the sampled fault replays ----
    std::vector<std::string> keys;
    for (const exp::PlannedJob& j : w.jobs) {
        const std::string key = orch::scenario_cache_key(j.scenario);
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    // BatchRunner splits the ladder budget across the ladders of a wave.
    orch::LadderOptions lopts = bopts.ladder;
    lopts.memory_budget_bytes /=
        std::min<std::size_t>(orch::kMaxLaddersInFlight, keys.size());

    double ladder_bytes = 0, ff_steps = 0, steps = 0, sim_s = 0;
    std::vector<double> restore_us, classify_us, fault_us;
    std::map<std::string, std::vector<double>> fault_us_kind;
    std::size_t replayed = 0, mismatches = 0;
    std::size_t analyzed = 0, simulate = 0, derived = 0;
    for (const std::string& key : keys) {
        std::size_t first_job = 0;
        while (orch::scenario_cache_key(w.jobs[first_job].scenario) != key)
            ++first_job;
        const npb::Scenario& s = w.jobs[first_job].scenario;

        TSpan golden(tr, "orch.golden", s.name());
        std::optional<sim::Machine> m;
        {
            TSpan t(tr, "npb.make_machine");
            m.emplace(npb::make_machine(s, false));
            m->set_engine(bopts.engine);
        }
        std::optional<orch::CheckpointLadder> ladder;
        {
            TSpan t(tr, "orch.run_golden_with_ladder");
            ladder.emplace(orch::run_golden_with_ladder(*m, lopts));
        }
        core::GoldenRef ref;
        {
            TSpan t(tr, "core.capture_golden");
            ref = core::capture_golden(*m);
        }
        golden.end();
        m.reset();
        ladder_bytes += double(ladder->peak_footprint_bytes());

        for (std::size_t j = first_job; j < w.jobs.size(); ++j) {
            const exp::PlannedJob& job = w.jobs[j];
            if (orch::scenario_cache_key(job.scenario) != key) continue;
            const core::CampaignResult& db = merged.at(j);
            const std::vector<core::Fault> faults =
                core::make_fault_list(ladder->base(), ref, job.cfg);
            if (db.golden.total_retired != ref.total_retired ||
                db.records.size() != faults.size()) {
                fail(job.id + ": golden run or fault list differs from the DB");
                continue;
            }
            if (bopts.prune && !core::is_uncore_kind(job.cfg.uncore_kind)) {
                TSpan t(tr, "prune.analyze", job.id);
                const prune::PruneAnalysis pa =
                    prune::analyze(job.scenario, bopts.engine, faults);
                analyzed += faults.size();
                simulate += pa.n_simulate;
                derived += pa.n_follow + pa.n_infer;
            }
            const std::uint64_t budget =
                static_cast<std::uint64_t>(double(ref.total_retired) *
                                           job.cfg.watchdog_factor) +
                200'000;
            for (std::size_t i = 0; i < faults.size(); ++i) {
                const core::Fault& f = faults[i];
                if (orch::fault_id(f) % kSampleMod != 0) continue;
                TSpan replay(tr, "orch.replay", job.id);
                std::optional<sim::Machine> run;
                {
                    TSpan t(tr, "orch.clone_nearest");
                    run.emplace(ladder->clone_nearest(f.at_retired));
                    restore_us.push_back(t.end() * 1e6);
                }
                const std::uint64_t from = run->total_retired();
                {
                    TSpan t(tr, "sim.run_until", "fast-forward");
                    run->run_until(f.at_retired);
                    sim_s += t.end();
                }
                {
                    TSpan t(tr, "core.apply_fault");
                    core::apply_fault(*run, f.target);
                }
                {
                    TSpan t(tr, "sim.run_until", "faulty run");
                    run->run_until(budget);
                    sim_s += t.end();
                }
                core::Outcome outcome;
                {
                    TSpan t(tr, "core.classify");
                    outcome = core::classify(
                        *run, ref, run->status() == sim::RunStatus::Running);
                    classify_us.push_back(t.end() * 1e6);
                }
                const double us = replay.end() * 1e6;
                fault_us.push_back(us);
                fault_us_kind[core::fault_kind_name(f.target.kind)].push_back(us);
                ff_steps += double(f.at_retired - from);
                steps += double(run->total_retired() - from);
                ++replayed;
                const core::FaultRecord& rec = db.records[i];
                if (rec.fault.at_retired != f.at_retired ||
                    rec.outcome != outcome || rec.retired != run->total_retired()) {
                    if (++mismatches <= 5)
                        fail(job.id + " fault " + std::to_string(i) +
                             ": replay gives " + core::outcome_name(outcome) +
                             "/" + std::to_string(run->total_retired()) +
                             ", the DB has " + core::outcome_name(rec.outcome) +
                             "/" + std::to_string(rec.retired));
                }
            }
        }
    }
    root.end();
    if (mismatches > 5)
        fail(std::to_string(mismatches) + " replay mismatches in all");
    if (replayed == 0) fail("the replay sample is empty");
    if (const std::size_t bad = tr.malformed(first))
        fail(std::to_string(bad) + " spans are shorter than their children");

    w.layer["orch.golden_s"] = tr.self_seconds("npb.make_machine", first) +
                               tr.self_seconds("orch.run_golden_with_ladder", first) +
                               tr.self_seconds("core.capture_golden", first);
    w.layer["orch.ladder_peak_mb"] = ladder_bytes / kMiB;
    w.layer["orch.restore_us.p50"] = percentile(restore_us, 0.5);
    w.layer["orch.restore_us.p90"] = percentile(restore_us, 0.9);
    w.layer["core.classify_us.p50"] = percentile(classify_us, 0.5);
    w.layer["core.classify_us.p90"] = percentile(classify_us, 0.9);
    w.layer["core.fault_us.p50"] = percentile(fault_us, 0.5);
    w.layer["core.fault_us.p90"] = percentile(fault_us, 0.9);
    const double n = std::max<double>(1, double(replayed));
    w.layer["orch.ff_steps_per_fault"] = ff_steps / n;
    w.layer["sim.steps_per_fault"] = steps / n;
    w.layer["sim.steps_per_s"] = sim_s > 0 ? steps / sim_s : 0;
    for (const auto& [kind, v] : fault_us_kind)
        w.detail["core.fault_us.p50." + kind] = {percentile(v, 0.5), "us"};
    w.detail["check.replayed"] = {double(replayed), "count"};
    w.detail["check.replay_mismatches"] = {double(mismatches), "count"};
    if (analyzed > 0) {
        const double analyze_s = tr.self_seconds("prune.analyze", first);
        double mean_fault_s = 0;
        for (double us : fault_us) mean_fault_s += us * 1e-6 / n;
        w.detail["prune.analyze_s"] = {analyze_s, "s"};
        w.detail["prune.simulate_frac"] = {double(simulate) / double(analyzed),
                                           "ratio"};
        w.detail["prune.payoff"] = {double(derived) * mean_fault_s / analyze_s,
                                    "x"};
    }
    if (w.errors.size() > errors_before) ++w.failed;
}

/// The traced pass and the runs around it: a plain front-door run (whose DB
/// the replay is checked against), one with --metrics-out (phase shares and
/// telemetry overhead), and `serep fleet --workers=1` against a direct
/// `serep run` (fleet overhead).
void trace_workload(Workload& w, Tracer& tr, unsigned track) {
    tr.set_track(track, w.name);
    const Sample plain =
        run_campaign(w, "plain", door_of(w), {}, kFixedTimeout, true);
    const fs::path plain_dir = w.dir / "plain";
    if (!record(w, plain, "plain run")) return;
    const double plain_wall = plain.child.wall_s;

    const Sample met = run_campaign(w, "metrics", door_of(w),
                                    {"--metrics-out=metrics.json"},
                                    kFixedTimeout, true);
    if (record(w, met, "--metrics-out run")) {
        const MetricsFile m = read_metrics_file(w.dir / "metrics" / "metrics.json");
        const auto share = [&](std::initializer_list<const char*> spans) {
            double s = 0;
            for (const char* name : spans) {
                const auto it = m.span_s.find(name);
                if (it != m.span_s.end()) s += it->second;
            }
            return s / m.elapsed_s;
        };
        w.layer["share.merge_report"] = share({"merge", "report"});
        w.layer["telemetry.overhead_frac"] = met.child.wall_s / plain_wall - 1;
        if (!w.fleet) { // a fleet controller's spans hold no batch phases
            w.detail["share.golden"] = {share({"batch.golden"}), "ratio"};
            w.detail["share.inject"] = {share({"batch.inject"}), "ratio"};
        }
        if (w.spec.prune)
            w.detail["share.prune_analyze"] = {share({"batch.prune_analyze"}),
                                               "ratio"};
        const auto injected = m.counters.find("uncore.injected");
        if (injected != m.counters.end() && injected->second > 0) {
            const auto no_line = m.counters.find("uncore.masked_no_line");
            w.detail["uncore.masked_no_line_frac"] = {
                (no_line == m.counters.end() ? 0.0 : no_line->second) /
                    injected->second,
                "ratio"};
        }
    }
    fs::remove_all(w.dir / "metrics");

    const Sample fleet1 =
        run_campaign(w, "fleet1", "fleet", {"--workers=1"}, kFixedTimeout);
    record(w, fleet1, "serep fleet --workers=1");
    double direct_wall = plain_wall;
    if (w.fleet) {
        const Sample direct = run_campaign(w, "direct", "run", {}, kFixedTimeout);
        record(w, direct, "direct serep run");
        direct_wall = direct.child.wall_s;
    }
    w.layer["fleet.overhead_s"] = fleet1.child.wall_s - direct_wall;

    try {
        traced_pass(w, plain_dir, tr);
    } catch (const std::exception& e) { // e.g. a DB merge_shards refuses
        ++w.failed;
        w.errors.push_back(std::string("traced pass: ") + e.what());
        std::fprintf(stderr, "bench_campaign: %s: traced pass: %s\n",
                     w.name.c_str(), e.what());
    }
    fs::remove_all(plain_dir);
}

// ---- output ----------------------------------------------------------------

bool workload_ok(const Workload& w) { return w.errors.empty(); }

/// The detailed per-workload record (--out, and the input of --compare).
void write_details(const std::vector<Workload>& ws, const BenchmarkDef& bench,
                   const Options& o, unsigned rounds, const fs::path& path) {
    std::ostringstream os;
    util::JsonWriter w(os);
    char seed[32];
    std::snprintf(seed, sizeof seed, "0x%llx",
                  static_cast<unsigned long long>(o.seed));
    w.begin_object();
    w.key("schema").value("bench-campaign-v1");
    w.key("seed").value(seed);
    w.key("engine").value(o.engine.empty() ? "spec" : o.engine);
    w.key("rounds").value(rounds);
    w.key("quick").value(o.quick);
    bool correct = true;
    for (const Workload& wl : ws) correct = correct && workload_ok(wl);
    w.key("correct").value(correct);
    w.key("workloads").begin_object();
    for (const Workload& wl : ws) {
        w.key(wl.name).begin_object();
        w.key("front_door").value(wl.fleet ? "serep fleet" : "serep run");
        w.key("faults").value(static_cast<std::uint64_t>(wl.faults));
        w.key("attempted").value(wl.attempted);
        w.key("failed").value(wl.failed);
        w.key("errors").begin_array();
        for (const std::string& e : wl.errors) w.value(e);
        w.end_array();
        w.key("end_to_end").begin_object();
        const auto samples = e2e_samples(wl);
        for (const MetricDef& m : bench.end_to_end) {
            const std::vector<double>& v = samples.at(m.name);
            if (v.empty()) continue;
            const std::vector<double> q = quartiles(v);
            w.key(m.name).begin_object();
            w.key("unit").value(m.unit);
            w.key("better").value(m.better);
            w.key("median").value(q[1]);
            w.key("q1").value(q[0]);
            w.key("q3").value(q[2]);
            w.key("min").value(*std::min_element(v.begin(), v.end()));
            w.key("max").value(*std::max_element(v.begin(), v.end()));
            w.key("n").value(static_cast<std::uint64_t>(v.size()));
            w.end_object();
        }
        w.key("error_rate").begin_object();
        w.key("unit").value("ratio");
        w.key("better").value("lower");
        w.key("median").value(wl.attempted ? double(wl.failed) / wl.attempted : 0.0);
        w.end_object();
        w.end_object();
        w.key("per_layer").begin_object();
        for (const MetricDef& m : bench.per_layer) {
            const auto it = wl.layer.find(m.name);
            if (it == wl.layer.end()) continue;
            w.key(m.name).begin_object();
            w.key("unit").value(m.unit);
            w.key("value").value(it->second);
            w.end_object();
        }
        for (const auto& [name, vu] : wl.detail) {
            w.key(name).begin_object();
            w.key("unit").value(vu.second);
            w.key("value").value(vu.first);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_object();
    w.end_object();
    os << '\n';
    write_file(path, os.str());
}

void print_summary(const std::vector<Workload>& ws, const BenchmarkDef& bench) {
    std::printf("%-15s %-26s %12s %12s %12s %4s %s\n", "workload", "metric",
                "median", "q1", "q3", "n", "unit");
    for (const Workload& w : ws) {
        const auto samples = e2e_samples(w);
        for (const MetricDef& m : bench.end_to_end) {
            const std::vector<double>& v = samples.at(m.name);
            if (v.empty()) continue;
            const std::vector<double> q = quartiles(v);
            std::printf("%-15s %-26s %12.4f %12.4f %12.4f %4zu %s\n",
                        w.name.c_str(), m.name.c_str(), q[1], q[0], q[2],
                        v.size(), m.unit.c_str());
        }
        std::printf("%-15s %-26s %12.4f %12s %12s %4u ratio\n", w.name.c_str(),
                    "error_rate",
                    w.attempted ? double(w.failed) / w.attempted : 0.0, "", "",
                    w.attempted);
        for (const MetricDef& m : bench.per_layer) {
            const auto it = w.layer.find(m.name);
            if (it != w.layer.end())
                std::printf("%-15s %-26s %12.4f %12s %12s %4s %s\n",
                            w.name.c_str(), m.name.c_str(), it->second, "", "",
                            "", m.unit.c_str());
        }
        for (const auto& [name, vu] : w.detail)
            std::printf("%-15s %-26s %12.4f %12s %12s %4s %s\n", w.name.c_str(),
                        name.c_str(), vu.first, "", "", "", vu.second.c_str());
    }
}

// ---- modes -----------------------------------------------------------------

const WorkloadDef& find_workload(const std::string& name) {
    for (const WorkloadDef& d : kWorkloads)
        if (name == d.name) return d;
    std::string known;
    for (const WorkloadDef& d : kWorkloads)
        known += (known.empty() ? "" : ", ") + std::string(d.name);
    throw util::UsageError("unknown workload '" + name + "' (" + known + ")");
}

/// One workload for --seconds: the interface BENCHMARK.json's command serves.
int run_single(const util::Cli& cli, const Options& o, const BenchmarkDef& bench) {
    util::check_usage(cli.has("workload"), "--seconds needs --workload");
    const double seconds = cli.get_double("seconds", 0);
    util::check_usage(seconds > 0, "--seconds must be > 0");
    const std::int64_t trace = cli.get_int("trace", 0);
    util::check_usage(trace == 0 || trace == 1, "--trace must be 0 or 1");
    util::check_usage(!o.quick, "--quick runs every workload; drop --seconds");

    std::vector<Workload> ws;
    ws.push_back(make_workload(find_workload(cli.get("workload", "")), o));
    Workload& w = ws.back();
    Tracer tr;
    if (trace == 0) {
        measure_setup(w);
        unpruned_reference(w);
        // Start a run only while one more (at the median wall so far) still
        // ends inside the window.
        const auto t0 = Clock::now();
        for (unsigned i = 0;
             i == 0 || seconds_since(t0) + median(w.wall) <= seconds; ++i)
            timed_sample(w, i);
    } else {
        unpruned_reference(w);
        trace_workload(w, tr, 1);
        const std::string out = cli.get(
            "trace-out",
            (fs::path(".bench_work") / (w.name + ".trace.json")).string());
        write_file(out, tr.chrome_json());
    }
    if (cli.has("out")) write_details(ws, bench, o, 1, cli.get("out", ""));

    const auto samples = e2e_samples(w);
    std::ostringstream os;
    util::JsonWriter j(os);
    j.begin_object();
    j.key("correct").value(workload_ok(w));
    j.key("attempted").value(w.attempted);
    j.key("failed").value(w.failed);
    j.key("metrics").begin_object();
    for (const MetricDef& m : trace == 0 ? bench.end_to_end : bench.per_layer) {
        double v = 0;
        if (trace == 0) {
            v = median(samples.at(m.name));
        } else {
            const auto it = w.layer.find(m.name);
            if (it != w.layer.end()) v = it->second;
        }
        j.key(m.name).begin_object();
        j.key("value").value(v);
        j.key("unit").value(m.unit);
        j.end_object();
    }
    j.end_object();
    j.end_object();
    std::printf("%s\n", os.str().c_str());
    fs::remove_all(w.dir);
    return workload_ok(w) ? 0 : 1;
}

/// Every workload, interleaved round-robin, then one traced pass each.
int run_all(const util::Cli& cli, const Options& o, const BenchmarkDef& bench) {
    const std::int64_t rounds = o.quick ? 1 : cli.get_int("rounds", 5);
    util::check_usage(rounds >= 1, "--rounds must be >= 1");
    std::vector<Workload> ws;
    if (cli.has("workload")) {
        const std::string list = cli.get("workload", "") + ",";
        for (std::size_t at = 0, c;
             (c = list.find(',', at)) != std::string::npos; at = c + 1)
            if (c > at)
                ws.push_back(
                    make_workload(find_workload(list.substr(at, c - at)), o));
    } else {
        for (const WorkloadDef& d : kWorkloads) ws.push_back(make_workload(d, o));
    }

    for (Workload& w : ws) {
        if (!o.quick) measure_setup(w);
        unpruned_reference(w);
    }
    for (std::int64_t r = 0; r < rounds; ++r)
        for (Workload& w : ws) timed_sample(w, static_cast<unsigned>(r));
    Tracer tr;
    if (!o.quick)
        for (std::size_t i = 0; i < ws.size(); ++i)
            trace_workload(ws[i], tr, static_cast<unsigned>(i + 1));

    // The cross-workload check: pruning must not change a single byte of
    // the CSV or the report.
    const Workload* full = nullptr;
    Workload* pruned = nullptr;
    for (Workload& w : ws) {
        if (w.name == "paper_s") full = &w;
        if (w.name == "paper_s_pruned") pruned = &w;
    }
    if (full && pruned && full->reference && pruned->reference) {
        const std::pair<std::string, std::string> same[] = {
            {full->spec.out + "_faults.csv", pruned->spec.out + "_faults.csv"},
            {full->spec.report_md, pruned->spec.report_md}};
        for (const auto& [a, b] : same) {
            if (full->reference->at(a) == pruned->reference->at(b)) continue;
            ++pruned->failed;
            pruned->errors.push_back("cross-workload check: " + b +
                                     " differs from paper_s's " + a);
            std::fprintf(stderr, "bench_campaign: paper_s_pruned: %s differs "
                         "from paper_s's %s\n", b.c_str(), a.c_str());
        }
    }

    if (o.quick) {
        for (const Workload& w : ws)
            std::printf("%-15s %s (%zu faults, %s)\n", w.name.c_str(),
                        workload_ok(w) ? "ok" : "FAILED", w.faults,
                        (w.spec.out + "_faults.csv, " + w.spec.report_md).c_str());
    } else {
        print_summary(ws, bench);
    }
    if (cli.has("out"))
        write_details(ws, bench, o, static_cast<unsigned>(rounds), cli.get("out", ""));
    if (cli.has("trace-out")) write_file(cli.get("trace-out", ""), tr.chrome_json());
    bool ok = true;
    for (Workload& w : ws) {
        ok = ok && workload_ok(w);
        fs::remove_all(w.dir);
    }
    if (!ok)
        for (const Workload& w : ws)
            for (const std::string& e : w.errors)
                std::fprintf(stderr, "bench_campaign: FAILED %s: %s\n",
                             w.name.c_str(), e.c_str());
    return ok ? 0 : 1;
}

/// --compare BASE NEW: per (workload, end-to-end metric), medians, quartiles
/// and a verdict. "unresolved" when the base's own quartile spread exceeds
/// the bound; "worse" when NEW's median is worse by more than the bound;
/// "better" when it is better by more than the base's quartile spread.
int run_compare(const std::string& base_path, const std::string& new_path,
                const BenchmarkDef& bench) {
    const util::JsonValue base = util::json_parse(read_file(base_path));
    const util::JsonValue neu = util::json_parse(read_file(new_path));
    std::vector<MetricDef> metrics = bench.end_to_end;
    metrics.push_back({"error_rate", "ratio", "lower", 0});
    bool worse = false;
    std::printf("%-15s %-12s %11s %21s %11s %21s %s\n", "workload", "metric",
                "base", "[q1, q3]", "new", "[q1, q3]", "verdict");
    for (const auto& [name, bw] : base.at("workloads").obj) {
        const util::JsonValue* nw = neu.at("workloads").find(name);
        if (!nw) {
            std::printf("%-15s (not in %s)\n", name.c_str(), new_path.c_str());
            continue;
        }
        for (const MetricDef& m : metrics) {
            const util::JsonValue* b = bw.at("end_to_end").find(m.name);
            const util::JsonValue* n = nw->at("end_to_end").find(m.name);
            if (!b || !n) continue;
            const auto get = [](const util::JsonValue* v, const char* k) {
                const util::JsonValue* x = v->find(k);
                return x ? x->as_double() : v->at("median").as_double();
            };
            const double bm = get(b, "median"), nm = get(n, "median");
            const double spread = bm != 0 ? (get(b, "q3") - get(b, "q1")) / bm : 0;
            const double sign = m.better == "lower" ? 1.0 : -1.0;
            const double rel = bm != 0 ? sign * (nm - bm) / bm : sign * (nm - bm);
            const char* verdict = "unchanged";
            if (spread > m.bound && m.bound > 0)
                verdict = "unresolved";
            else if (rel > m.bound)
                verdict = "worse";
            else if (-rel > spread)
                verdict = "better";
            worse = worse || std::string(verdict) == "worse";
            std::printf("%-15s %-12s %11.4f [%9.4f, %9.4f] %11.4f [%9.4f, %9.4f] "
                        "%s (median %+.1f%%, %s is better, bound %.0f%%)\n",
                        name.c_str(), m.name.c_str(), bm, get(b, "q1"),
                        get(b, "q3"), nm, get(n, "q1"), get(n, "q3"), verdict,
                        bm != 0 ? 100 * (nm / bm - 1) : 0.0, m.better.c_str(),
                        100 * m.bound);
        }
    }
    return worse ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
    util::Cli cli(argc, argv, {"quick", "help"});
    if (cli.has("help")) {
        std::puts(
            "usage: bench_campaign --workload W --seed N --seconds S --trace 0|1\n"
            "       bench_campaign [--out=FILE] [--trace-out=FILE] [--rounds=5]\n"
            "                      [--seed=N] [--engine=cached|trace]\n"
            "                      [--workload=a,b] [--quick]\n"
            "       bench_campaign --compare BASE.json NEW.json");
        return 0;
    }
    try {
        cli.require_known({"workload", "seed", "seconds", "trace", "out",
                           "trace-out", "rounds", "engine", "quick", "compare"});
        const BenchmarkDef bench = load_benchmark_json();
        if (cli.has("compare")) {
            util::check_usage(cli.positional().size() == 1,
                              "--compare BASE.json NEW.json");
            return run_compare(cli.get("compare", ""), cli.positional()[0], bench);
        }
        util::check_usage(cli.positional().empty(),
                          "unexpected operand '" +
                              (cli.positional().empty() ? ""
                                                        : cli.positional()[0]) +
                              "'");
        Options o;
        const std::string seed = cli.get("seed", "0xDAC2018");
        std::size_t used = 0;
        try {
            o.seed = std::stoull(seed, &used, 0);
        } catch (const std::exception&) {
        }
        util::check_usage(!seed.empty() && used == seed.size(),
                          "--seed must be a decimal or 0x-hex number, got '" +
                              seed + "'");
        o.engine = cli.get("engine", "");
        util::check_usage(o.engine.empty() || o.engine == "cached" ||
                              o.engine == "trace",
                          "--engine must be cached or trace");
        o.quick = cli.has("quick");
        ::signal(SIGPIPE, SIG_IGN); // a dead spawner is an error, not a kill
        Spawner spawner;
        g_spawner = &spawner;
        return cli.has("seconds") ? run_single(cli, o, bench) : run_all(cli, o, bench);
    } catch (const util::UsageError& e) {
        std::fprintf(stderr, "bench_campaign: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_campaign: %s\n", e.what());
        return 3;
    }
}
