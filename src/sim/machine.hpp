// Multicore machine: cores, interpreter, traps, timers, caches, devices.
//
// The machine executes a linked Image (nanokernel + runtimes + application).
// Timing: in-order, one instruction per cycle plus cache-miss penalties and a
// taken-branch bubble; cores interleave by local tick (the core with the
// smallest tick executes next), which models true parallel execution
// deterministically.
//
// Machines are value-copyable: the fault-injection campaign clones the
// machine at the injection instant and runs the clone to completion
// (checkpoint fast-forward, phase 3 of the paper's workflow).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/regfile.hpp"
#include "isa/sysreg.hpp"
#include "kasm/image.hpp"
#include "sim/cache.hpp"
#include "sim/exec_cache.hpp"
#include "sim/memory.hpp"

namespace serep::sim {

enum class Mode : std::uint8_t { USER, KERNEL };

/// Execution engine selection. Both engines are bit-identical in every
/// observable (registers, memory, outcome databases, counters, ticks) —
/// gated by tests/engine_test.cpp — so the choice is purely about speed:
///  * Switch — the single-switch interpreter, kept as the independent
///    reference that differential tests compare against.
///  * Trace — the production engine (default): decode-once handlers from
///    the shared ExecCache, MRU line filters, superblocks of straight-line
///    records (ExecCache::run_len) with hoisted checks, and tick-horizon
///    bursts for every runnable core (see run_until); step_cached is its
///    single-step fallback.
enum class Engine : std::uint8_t { Switch, Trace };

enum class RunStatus : std::uint8_t {
    Running,      ///< stopped because the instruction budget was reached
    Shutdown,     ///< kernel signalled end of application (all processes exited)
    KernelPanic,  ///< exception while in kernel mode — unrecoverable
    Deadlock,     ///< no core can ever make progress again
};

const char* run_status_name(RunStatus s) noexcept;

class Machine;

/// Execution-trace observer (prune/ dynamic def-use analysis). Callbacks run
/// on the machine's stepping thread with the machine in its *pre-step* state:
/// on_step fires after fetch and V7 predicate resolution but before the
/// handler mutates anything, on_trap at take_trap entry before the SP bank
/// swap / EPC capture. Observers are deliberately not part of machine value
/// state: copying a Machine (checkpoint rungs, fault-run clones) never copies
/// the observer hookup, and assigning one over a traced machine detaches it,
/// so instrumented golden replays stay the only traced executions.
class StepObserver {
public:
    virtual ~StepObserver() = default;
    /// `executed` is false for a V7 predicate-failed bubble (which still
    /// retires). BCOND reports executed=true; its decision is the handler's.
    virtual void on_step(const Machine& m, unsigned ci, const DecodedInstr& di,
                         std::uint64_t pc, bool executed) = 0;
    virtual void on_trap(const Machine& m, unsigned ci, isa::TrapCause cause) = 0;
};

/// Uncore fault-injection hook (src/uncore/). Armed on a fault-run clone by
/// uncore::inject, never present on golden runs or checkpoint rungs (the
/// slot has copy-reset semantics like StepObserver: neither a copy nor a
/// copy assignment carries it). Callbacks fire on the machine's stepping
/// thread at points that are bit-identical across both engines:
///  * on_data_access — once per retiring data transaction (load or store),
///    after the address is resolved and the cache model updated, before the
///    bytes move. `l1_hit` is the L1D lookup result (true for MRU-filtered
///    re-touches, which are hits by construction); `l2_hit` is meaningful
///    only when `l1_hit` is false. `cached` is false for exclusive stores,
///    which bypass the cache model in every engine.
///  * on_run_boundary — when run_until() hands control back, so one-shot
///    bus corruption can settle deterministically even if the run ends
///    before the next data access.
/// settled() is true once the hook has nothing left to do: every later
/// callback would leave the machine untouched, so all of the fault's state
/// is in the machine and detaching the hook changes no observable. Only
/// then may a fault run be compared with a golden checkpoint rung.
class UncoreHook {
public:
    virtual ~UncoreHook() = default;
    virtual void on_data_access(Machine& m, unsigned ci, std::uint64_t phys,
                                unsigned size, bool write, bool l1_hit,
                                bool l2_hit, bool cached) = 0;
    virtual void on_run_boundary(Machine& m) = 0;
    virtual bool settled() const noexcept = 0;
};

/// Copy the image's initialized data into guest memory and map the pages
/// they (and the main stacks) live on: kernel chunks once, user chunks into
/// every process (SPMD images). The OS loader builds on this.
void load_image_data(Machine& m);

struct MachineConfig {
    unsigned cores = 1;
    unsigned procs = 1;  ///< separate address spaces (MPI ranks); 1 for serial/OMP
    std::uint64_t user_size = isa::layout::kDefaultUserSize;
    std::uint64_t kern_size = isa::layout::kDefaultKernSize;
    bool profile = false; ///< enable per-function / per-register attribution
};

/// One hardware thread.
struct CoreState {
    explicit CoreState(isa::Profile p) : regs(p) {}

    isa::RegFile regs;
    Mode mode = Mode::KERNEL;
    bool sleeping = false;
    bool halted = false;
    std::uint64_t banked_sp = 0; ///< the inactive mode's SP
    std::uint64_t epc = 0, cause = 0, badaddr = 0, tls = 0;
    std::uint32_t curproc = 0;
    std::uint64_t timer = 0;     ///< instructions until IRQ; 0 = disabled
    bool pending_timer = false, pending_ipi = false;
    std::uint64_t excl_addr = 0;
    bool excl_valid = false;
    std::uint64_t local_tick = 0;
    std::uint64_t wake_tick = 0; ///< earliest tick a WFI wake may resume at
    std::uint64_t retired = 0;

    /// Trace-engine MRU line filters (see Cache::credit_hit): the line of
    /// this core's most recent I/D access, or kNoLine. Purely an accelerator
    /// — filtered hits leave cache tags, ages and counters bit-identical.
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
    std::uint64_t last_iline = kNoLine;
    std::uint64_t last_dline = kNoLine;

    /// Trace-engine one-entry translation filter. Sound because address
    /// maps are monotone: map_user_range only ever maps pages, so a
    /// successful translation can never become stale. Key packs
    /// vpage | proc<<52 | kernel<<55 (all real keys < 2^56; kNoTrans has
    /// bit 63 set and matches nothing).
    static constexpr std::uint64_t kNoTrans = ~std::uint64_t{0};
    std::uint64_t last_tkey = kNoTrans;
    std::uint64_t last_tpage = 0; ///< phys page base for last_tkey
};

/// Per-core event counters (the gem5-statistics analogue).
struct CoreCounters {
    std::uint64_t user_retired = 0, kernel_retired = 0;
    std::uint64_t branches = 0;   ///< branch instructions executed
    std::uint64_t taken_branches = 0;
    std::uint64_t calls = 0;      ///< BL/BLR
    std::uint64_t loads = 0, stores = 0;   ///< memory transactions (elements)
    std::uint64_t fp_ops = 0;     ///< FP data-processing instructions
    std::uint64_t wfi_sleeps = 0;

    std::uint64_t retired() const noexcept { return user_retired + kernel_retired; }
};

struct MachineCounters {
    std::array<std::uint64_t, 8> traps{};        ///< by TrapCause
    std::array<std::uint64_t, 16> syscalls{};    ///< by syscall number
    std::uint64_t ctx_switches = 0;              ///< TLS retarget count
};

/// Per-step execution context handed to the trace engine's op handlers
/// (sim/exec_ops.cpp). Mirrors the locals of the reference switch body.
struct StepCtx {
    CoreState& core;
    CoreCounters& cnt;
    const DecodedInstr& di;
    unsigned ci;          ///< core index
    std::uint64_t pc;     ///< fetch pc
    std::uint64_t cost;   ///< accumulated cycle cost of this step
    bool retire;          ///< cleared when the instruction faulted
};

class Machine {
public:
    Machine(std::shared_ptr<const kasm::Image> image, const MachineConfig& cfg);

    // Copyable for checkpoint-based campaign fast-forward.
    Machine(const Machine&) = default;
    Machine& operator=(const Machine&) = default;
    Machine(Machine&&) = default;
    Machine& operator=(Machine&&) = default;

    /// `*this = o`, except that guest memory keeps this machine's own bytes
    /// (sim::Memory::assign_shell): the non-memory half of a copy, whether
    /// `o` holds a payload or is a shell. The bytes are the caller's to
    /// bring in line — sim::rewind_machine copies back exactly the pages
    /// that differ. Geometry must match (same scenario).
    void assign_shell(const Machine& o);

    const kasm::Image& image() const noexcept { return *image_; }
    const MachineConfig& config() const noexcept { return cfg_; }
    Memory& mem() noexcept { return mem_; }
    const Memory& mem() const noexcept { return mem_; }
    unsigned cores() const noexcept { return static_cast<unsigned>(cores_.size()); }
    CoreState& core(unsigned c) { return cores_[c]; }
    const CoreState& core(unsigned c) const { return cores_[c]; }

    /// Execute until `total_retired() >= stop_at` or a terminal status.
    RunStatus run_until(std::uint64_t stop_at);

    // ---- execution engine ----
    Engine engine() const noexcept { return engine_; }
    /// Select the engine; safe at any run_until() boundary. Resets the MRU
    /// line filters so the two engines' cache models stay bit-identical.
    void set_engine(Engine e) noexcept;
    /// The shared decode-once cache (one per image, process-wide).
    const std::shared_ptr<const ExecCache>& exec_cache() const noexcept {
        return xcache_;
    }
    /// Text pages this machine has re-decoded on top of the shared cache
    /// because a fault (or a snapshot restore) dirtied them. Test hook.
    std::size_t code_overlay_pages() const noexcept { return overlay_.size(); }

    /// Attach a step observer (nullptr detaches). Not copied with the
    /// machine — see StepObserver. The observer must outlive every
    /// run_until() on this machine.
    void set_step_observer(StepObserver* o) noexcept { observer_.ptr = o; }
    StepObserver* step_observer() const noexcept { return observer_.ptr; }

    RunStatus status() const noexcept { return status_; }
    int exit_code() const noexcept { return exit_code_; }
    isa::TrapCause panic_cause() const noexcept { return panic_cause_; }
    std::uint64_t total_retired() const noexcept { return total_retired_; }
    /// Parallel execution time = max core tick.
    std::uint64_t time_ticks() const noexcept;

    bool app_started() const noexcept { return app_started_; }
    std::uint64_t app_start_retired() const noexcept { return app_start_retired_; }

    const std::string& output(unsigned proc) const { return outputs_[proc]; }
    int proc_exit_code(unsigned proc) const { return proc_exit_codes_[proc]; }

    const CoreCounters& counters(unsigned c) const { return counters_[c]; }
    const MachineCounters& machine_counters() const noexcept { return mcounters_; }

    /// Trace-engine execution tallies (telemetry only — never consulted by
    /// the engines). Copy-reset like ObserverSlot: clones and rewound
    /// machines start at zero, so per-run folds read absolute values since
    /// clone_nearest or rewind_nearest.
    struct TraceStats {
        std::uint64_t bursts = 0;      ///< superblock segments entered
        std::uint64_t chain_links = 0; ///< inline chains through stable enders
        std::uint64_t fallbacks = 0;   ///< step_cached bailouts mid-window
        TraceStats() noexcept = default;
        TraceStats(const TraceStats&) noexcept {}
        TraceStats& operator=(const TraceStats&) noexcept {
            bursts = chain_links = fallbacks = 0;
            return *this;
        }
        TraceStats(TraceStats&&) noexcept = default;
        TraceStats& operator=(TraceStats&&) noexcept = default;
    };
    const TraceStats& trace_stats() const noexcept { return tstats_; }
    const Cache& l1i(unsigned c) const { return l1i_[c]; }
    const Cache& l1d(unsigned c) const { return l1d_[c]; }
    const Cache& l2() const noexcept { return l2_; }

    // Profiling (valid when cfg.profile):
    const std::vector<std::uint64_t>& func_instr_counts() const noexcept { return func_instr_; }
    const std::vector<std::uint64_t>& func_call_counts() const noexcept { return func_calls_; }
    const std::vector<std::uint64_t>& reg_write_counts() const noexcept { return reg_writes_; }

    // ---- fault injection primitives ----
    void flip_gpr(unsigned core, unsigned reg, unsigned bit) {
        cores_[core].regs.flip_gpr_bit(reg, bit);
    }
    void flip_fp(unsigned core, unsigned reg, unsigned bit) {
        cores_[core].regs.flip_fp_bit(reg, bit);
    }
    void flip_mem(std::uint64_t phys, unsigned bit) { mem_.flip_phys_bit(phys, bit); }

    // ---- uncore fault injection (src/uncore/) ----
    /// Attach the uncore hook (nullptr detaches) and reset the MRU line
    /// filters. The reset is mandatory for tag faults: retagging a way away
    /// from the filtered line would otherwise let the trace engine credit
    /// a hit the switch engine's real lookup no longer sees. Clearing
    /// the filters is observable-neutral (the next touch re-looks-up a line
    /// that is still MRU, so tags/ages/hit counts stay bit-identical; only
    /// the telemetry-only credit split moves). Like StepObserver, the slot
    /// has copy-reset semantics: clones never inherit the hook.
    void set_uncore_hook(std::shared_ptr<UncoreHook> h) noexcept {
        uncore_.ptr = std::move(h);
        for (CoreState& core : cores_) {
            core.last_iline = CoreState::kNoLine;
            core.last_dline = CoreState::kNoLine;
        }
    }
    UncoreHook* uncore_hook() const noexcept { return uncore_.ptr.get(); }
    /// Mutable cache handles for the uncore model's tag rewrites.
    Cache& l1d_cache(unsigned c) noexcept { return l1d_[c]; }
    Cache& l2_cache() noexcept { return l2_; }
    const Cache& l1d_cache(unsigned c) const noexcept { return l1d_[c]; }
    const Cache& l2_cache() const noexcept { return l2_; }

private:
    friend struct ExecOps; ///< per-op handlers of the trace engine

    void step_switch(unsigned c);
    void step_cached(unsigned c);
    // The step skeleton every engine shares (machine.cpp, force-inlined).
    bool deliver_pending_irq(CoreState& core);
    void fetch_abort(CoreState& core, std::uint64_t pc);
    std::uint64_t fetch_line(unsigned ci, std::uint64_t pc,
                             std::uint64_t* credits = nullptr);
    template <bool kMayBranch>
    bool exec_retire(unsigned ci, const DecodedInstr& d, std::uint64_t pc,
                     std::uint64_t cost, std::uint64_t& bucket, std::size_t idx);
    template <bool kMayBranch>
    void retire_instr(CoreState& core, CoreCounters& cnt, std::uint64_t& bucket,
                      isa::Op op, std::uint8_t cflags, std::uint64_t pc,
                      std::size_t idx, std::uint64_t cost);
    /// The trace engine's hoisted fetch check: the shared record at `pc`
    /// (its index in `idx`), or nullptr when the pc must single-step through
    /// step_cached instead (wild pc, fault-redecoded page, user fetch into
    /// kernel text).
    const DecodedInstr* trace_fetch(const CoreState& core, std::uint64_t pc,
                                    std::size_t& idx) const noexcept;
    /// Resumable superblock position of one core inside a run_trace_multi
    /// window. Between a core's interleaved steps, the remaining (record
    /// pointer, index, budget) is parked here so resuming the same core
    /// skips the whole segment preamble (translation, run lookup, overlay
    /// scan, user_ok). Validity is checked by `left != 0 && lpc == core
    /// pc`: every control transfer (trap, ERET, branch — all enders)
    /// redirects the pc, so a stale cursor can never match, and `di`/`idx`
    /// are pure functions of the pc while the text generation is unchanged
    /// (cursors never outlive one window, and text only moves between
    /// run_until calls). When a run exhausts without leaving its text page,
    /// the ender itself is parked (`ender = true`, `left = 1`) so branch
    /// steps skip the preamble too; page-crossing exhaustion re-derives,
    /// because the next page's overlay state is unchecked.
    struct TraceCursor {
        const DecodedInstr* di = nullptr; ///< next record to execute
        std::uint64_t lpc = 0;            ///< pc of `di`
        std::size_t idx = 0;              ///< instruction index of `di`
        std::uint32_t left = 0;           ///< records remaining; 0 = invalid
        bool ender = false;               ///< `di` ends its run (left == 1)
    };
    /// Solo-regime trace burst: execute chained superblocks (straight-line
    /// runs linked through stable branch targets, executed inline) until a
    /// non-chainable ender, a trap, `stop_at`, or a pending-timer clip ends
    /// the unit. Only called with exactly one runnable core, so there is no
    /// tick horizon: no rival can win the scheduler scan (sleepers need an
    /// IPI, which sets sched_event_ and ends the enclosing burst loop).
    void burst_trace(unsigned c, std::uint64_t stop_at);
    /// One instruction of the multi-core trace interleave: resume the
    /// core's cursor (or re-derive it), execute a single straight-line
    /// record or chainable branch inline, or fall back to step_cached for
    /// everything else. The per-core cursor makes the near-lockstep
    /// tick-interleave pay the segment preamble once per branch target
    /// instead of once per step.
    void trace_step_one(unsigned c);
    /// Multi-core trace scheduling loop (tick-horizon bursts): scan once
    /// for the set of lowest-tick runnable cores, then execute one
    /// instruction on *each* of them in index order — a full round over an
    /// equal-tick set is always scan-order-valid: every member holds the
    /// minimum tick when its turn comes (stepped members move strictly
    /// past it, rivals sit strictly above it), so the round equals the
    /// per-instruction argmin schedule bit-for-bit while costing one scan
    /// per round instead of one per step. Runs until a scheduling event
    /// (IPI), a solo/deadlock regime, stop_at, or a non-Running status
    /// hands control back to the full run_until scan.
    void run_trace_multi(std::uint64_t stop_at);
    /// Is the text page holding instruction index `idx` shadowed by a
    /// fault-redecode overlay? (Trace runs never cross a page boundary.)
    bool trace_page_overlaid(std::size_t idx) const noexcept;
    /// Decoded record for instruction index `idx`, reading through the
    /// copy-on-write overlay of fault-dirtied text pages.
    const DecodedInstr* fetch_decoded(std::size_t idx);
    void refresh_code_overlay();
    void take_trap(CoreState& core, isa::TrapCause cause, std::uint64_t aux,
                   std::uint64_t badaddr);
    void panic(isa::TrapCause cause);
    void write_gpr(CoreState& core, unsigned rd, std::uint64_t value);
    bool data_access(CoreState& core, std::uint64_t vaddr, unsigned size, bool write,
                     std::uint64_t& phys, std::uint64_t& cost);
    void invalidate_reservations(std::uint64_t phys, const CoreState* except);
    bool sysreg_read(CoreState& core, isa::SysReg sr, std::uint64_t& value);
    bool sysreg_write(CoreState& core, isa::SysReg sr, std::uint64_t value);

    std::shared_ptr<const kasm::Image> image_;
    MachineConfig cfg_;
    Memory mem_;
    std::vector<CoreState> cores_;
    std::vector<CoreCounters> counters_;
    MachineCounters mcounters_;
    std::vector<Cache> l1i_, l1d_;
    Cache l2_;
    std::vector<std::string> outputs_;
    std::vector<int> proc_exit_codes_;

    RunStatus status_ = RunStatus::Running;
    isa::TrapCause panic_cause_ = isa::TrapCause::NONE;
    int exit_code_ = -1;
    std::uint64_t total_retired_ = 0;
    bool app_started_ = false;
    std::uint64_t app_start_retired_ = 0;

    std::vector<std::uint64_t> func_instr_, func_calls_, reg_writes_;

    // interpreter state for the current step
    std::uint64_t next_pc_ = 0;
    bool branch_taken_ = false;

    // ---- execution engine state ----
    Engine engine_ = Engine::Trace;
    std::shared_ptr<const ExecCache> xcache_; ///< shared, immutable
    /// Copy-on-write re-decode of text pages this machine's fault dirtied.
    struct OverlayPage {
        std::uint64_t first = 0; ///< instruction index of the first record
        std::vector<DecodedInstr> recs;
    };
    std::vector<OverlayPage> overlay_; ///< sorted by first, few entries
    /// Per-core parked trace positions (run_trace_multi). Invalidated
    /// wholesale at every window entry, so nothing here survives a
    /// run_until call — snapshots may copy it freely.
    std::vector<TraceCursor> tcur_;
    TraceStats tstats_;
    /// Observer hookup with copy-reset semantics: clones (ladder rungs,
    /// fault runs) must never inherit the golden replay's tracer, and a
    /// copy assigned over a traced machine detaches its tracer.
    struct ObserverSlot {
        StepObserver* ptr = nullptr;
        ObserverSlot() noexcept = default;
        ObserverSlot(const ObserverSlot&) noexcept {}
        ObserverSlot& operator=(const ObserverSlot&) noexcept {
            ptr = nullptr;
            return *this;
        }
        ObserverSlot(ObserverSlot&& o) noexcept : ptr(o.ptr) { o.ptr = nullptr; }
        ObserverSlot& operator=(ObserverSlot&& o) noexcept {
            ptr = o.ptr;
            o.ptr = nullptr;
            return *this;
        }
    };
    ObserverSlot observer_;
    /// Uncore-hook slot, copy-reset like ObserverSlot but owning: the hook
    /// (an uncore::Model holding the watched-line state) lives exactly as
    /// long as the one fault-run machine it was armed on, and a copy
    /// assigned over that machine (a rewind) drops it. Unlike
    /// set_uncore_hook(nullptr), the reset leaves the MRU filters alone: the
    /// assignment copies the source's.
    struct UncoreSlot {
        std::shared_ptr<UncoreHook> ptr;
        UncoreSlot() noexcept = default;
        UncoreSlot(const UncoreSlot&) noexcept {}
        UncoreSlot& operator=(const UncoreSlot&) noexcept {
            ptr.reset();
            return *this;
        }
        UncoreSlot(UncoreSlot&&) noexcept = default;
        UncoreSlot& operator=(UncoreSlot&&) noexcept = default;
    };
    UncoreSlot uncore_;
    std::uint64_t code_gen_seen_ = 0;
    /// Burst-break flag — the contract between sysreg_write(IPI_SEND) and
    /// the burst loops in run_until(): cleared when a scheduler scan hands
    /// a core its burst, set by any IPI post, and checked after every trace
    /// unit. An IPI posted mid-burst therefore ends the burst at the next
    /// unit boundary and forces a fresh scan — which recomputes the runnable
    /// set and the next tick horizon with the newly woken core included.
    /// Never consulted while the per-instruction scan is in charge.
    bool sched_event_ = false;
    // Profile-wide constants hoisted out of the per-step path.
    std::uint64_t width_mask_ = 0;
    unsigned width_bits_ = 0;
};

} // namespace serep::sim
