// Process-wide work-stealing scheduler for campaign orchestration.
//
// Replaces the per-campaign fixed thread pool: one pool serves every
// scenario's golden runs and fault injections, so a batch of heterogeneous
// campaigns keeps all host threads busy even when individual campaigns have
// skewed run lengths (the paper's cluster scheduler plays the same role for
// its 1.2M-run workload).
//
// Scheduling model: parallel_for splits [0, n) into one contiguous range per
// participant. A participant pops indices from the front of its own range;
// when empty it steals the upper half of the largest remaining range. Work
// items write only to their own index's slot, so results are bit-identical
// regardless of the steal schedule or pool width.
//
// Participant slots: the body also learns which participant runs it — slot
// 0 is the calling thread, slots 1..threads()-1 the helpers. A slot runs
// its items one at a time, so per-slot state (BatchRunner's resident fault
// machines) needs no lock; which items share a slot depends on the steal
// schedule, so such state may change how fast an item runs, never what it
// writes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace serep::orch {

class Scheduler {
public:
    /// threads == 0 picks std::thread::hardware_concurrency().
    explicit Scheduler(unsigned threads = 0);
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// The shared process-wide pool (created on first use).
    static Scheduler& instance();

    unsigned threads() const noexcept { return nthreads_; }

    /// Execute body(i, slot) for every i in [0, n); blocks until all
    /// complete. `slot` (< threads()) names the participant running item i;
    /// the calling thread participates as slot 0. Exceptions thrown by
    /// `body` are captured and the first one is rethrown here after the
    /// remaining items ran. Concurrent parallel_for calls are serialized.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t, unsigned)>& body);

    /// Total indices executed across all parallel_for calls (test hook).
    std::uint64_t tasks_executed() const noexcept {
        return tasks_executed_.load(std::memory_order_relaxed);
    }

    /// Indices that were executed by a thief rather than the range's initial
    /// owner (test hook: proves stealing actually happens).
    std::uint64_t tasks_stolen() const noexcept {
        return tasks_stolen_.load(std::memory_order_relaxed);
    }

private:
    struct Job;

    void worker_loop(unsigned helper_id);
    void participate(Job& job, unsigned slot);

    unsigned nthreads_;
    std::vector<std::thread> helpers_;
    std::mutex mu_;                 ///< guards job_/generation_/stop_
    std::condition_variable cv_;
    std::shared_ptr<Job> job_;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::mutex run_mu_;             ///< serializes parallel_for callers
    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> tasks_stolen_{0};
};

} // namespace serep::orch
