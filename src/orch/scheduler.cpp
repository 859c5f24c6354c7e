#include "orch/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace serep::orch {

namespace {

constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) noexcept {
    return (std::uint64_t{lo} << 32) | hi;
}
constexpr std::uint32_t range_lo(std::uint64_t r) noexcept {
    return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t range_hi(std::uint64_t r) noexcept {
    return static_cast<std::uint32_t>(r);
}

} // namespace

struct Scheduler::Job {
    const std::function<void(std::size_t, unsigned)>* body = nullptr;
    /// Per-slot [lo, hi) index ranges, packed lo:32|hi:32.
    std::vector<std::atomic<std::uint64_t>> ranges;
    /// Initial partition bounds — an index executed outside its initial
    /// slot's bounds was stolen.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> initial;
    std::atomic<std::size_t> remaining{0};
    std::mutex error_mu;
    std::exception_ptr error;
};

Scheduler::Scheduler(unsigned threads)
    : nthreads_(threads ? threads
                        : std::max(1u, std::thread::hardware_concurrency())) {
    helpers_.reserve(nthreads_ - 1);
    for (unsigned h = 0; h + 1 < nthreads_; ++h)
        helpers_.emplace_back([this, h] { worker_loop(h); });
}

Scheduler::~Scheduler() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : helpers_) t.join();
}

Scheduler& Scheduler::instance() {
    static Scheduler shared(0);
    return shared;
}

void Scheduler::participate(Job& job, unsigned slot) {
    unsigned idle_rounds = 0;
    auto run_one = [&](std::uint32_t idx) {
        try {
            (*job.body)(idx, slot);
        } catch (...) {
            std::lock_guard<std::mutex> lk(job.error_mu);
            if (!job.error) job.error = std::current_exception();
        }
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        const auto& init = job.initial[slot];
        if (idx < init.first || idx >= init.second)
            tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        job.remaining.fetch_sub(1, std::memory_order_acq_rel);
    };

    for (;;) {
        // Pop the front of our own range.
        std::uint64_t r = job.ranges[slot].load(std::memory_order_acquire);
        bool ran = false;
        while (range_lo(r) < range_hi(r)) {
            if (job.ranges[slot].compare_exchange_weak(
                    r, pack(range_lo(r) + 1, range_hi(r)),
                    std::memory_order_acq_rel)) {
                run_one(range_lo(r));
                ran = true;
                break;
            }
        }
        if (ran) {
            idle_rounds = 0;
            continue;
        }

        // Own range empty: steal the upper half of the largest other range.
        bool stole = false;
        for (;;) {
            unsigned victim = 0;
            std::uint32_t best = 0;
            for (unsigned v = 0; v < job.ranges.size(); ++v) {
                if (v == slot) continue;
                const std::uint64_t vr =
                    job.ranges[v].load(std::memory_order_acquire);
                const std::uint32_t size = range_hi(vr) - range_lo(vr);
                if (range_lo(vr) < range_hi(vr) && size > best) {
                    best = size;
                    victim = v;
                }
            }
            if (best == 0) break;
            std::uint64_t vr = job.ranges[victim].load(std::memory_order_acquire);
            const std::uint32_t lo = range_lo(vr), hi = range_hi(vr);
            if (lo >= hi) continue; // raced away; rescan
            const std::uint32_t mid = lo + (hi - lo) / 2;
            if (job.ranges[victim].compare_exchange_strong(
                    vr, pack(lo, mid), std::memory_order_acq_rel)) {
                // Our own slot is empty and only we refill it.
                job.ranges[slot].store(pack(mid, hi), std::memory_order_release);
                stole = true;
                break;
            }
        }
        if (stole) {
            idle_rounds = 0;
            continue;
        }

        if (job.remaining.load(std::memory_order_acquire) == 0) return;
        // Tasks are in flight elsewhere. Yield briefly in case a thief is
        // about to publish a range, then back off to sleeping so a long
        // watchdog-bound tail doesn't burn the remaining cores.
        if (++idle_rounds < 64) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
}

void Scheduler::worker_loop(unsigned helper_id) {
    const unsigned slot = helper_id + 1;
    std::uint64_t seen_generation = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] {
                return stop_ || (job_ && generation_ != seen_generation);
            });
            if (stop_) return;
            job = job_;
            seen_generation = generation_;
        }
        participate(*job, slot);
    }
}

void Scheduler::parallel_for(
    std::size_t n, const std::function<void(std::size_t, unsigned)>& body) {
    if (n == 0) return;
    util::check(n < (std::uint64_t{1} << 32), "parallel_for: index space too large");
    std::lock_guard<std::mutex> run_lock(run_mu_);

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->ranges = std::vector<std::atomic<std::uint64_t>>(nthreads_);
    job->initial.resize(nthreads_);
    job->remaining.store(n, std::memory_order_relaxed);
    const unsigned participants =
        static_cast<unsigned>(std::min<std::size_t>(nthreads_, n));
    std::uint32_t next = 0;
    for (unsigned s = 0; s < nthreads_; ++s) {
        std::uint32_t take = 0;
        if (s < participants) {
            take = static_cast<std::uint32_t>(n / participants +
                                              (s < n % participants ? 1 : 0));
        }
        job->ranges[s].store(pack(next, next + take), std::memory_order_relaxed);
        job->initial[s] = {next, next + take};
        next += take;
    }

    if (nthreads_ > 1) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            job_ = job;
            ++generation_;
        }
        cv_.notify_all();
    }
    participate(*job, 0);
    if (nthreads_ > 1) {
        std::lock_guard<std::mutex> lk(mu_);
        job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
}

} // namespace serep::orch
