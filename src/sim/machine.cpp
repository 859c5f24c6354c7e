#include "sim/machine.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "isa/encode.hpp"
#include "isa/op.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace serep::sim {


using isa::Cond;
using isa::Flags;
using isa::Instr;
using isa::Op;
using isa::SysReg;
using isa::TrapCause;
using util::low_mask;

const char* run_status_name(RunStatus s) noexcept {
    switch (s) {
        case RunStatus::Running: return "running";
        case RunStatus::Shutdown: return "shutdown";
        case RunStatus::KernelPanic: return "kernel_panic";
        case RunStatus::Deadlock: return "deadlock";
    }
    return "??";
}

namespace {

struct AluResult {
    std::uint64_t value;
    Flags flags;
};

/// ARM AddWithCarry at width W; sets all four flags.
AluResult add_with_carry(std::uint64_t a, std::uint64_t b, std::uint64_t cin,
                         unsigned w) noexcept {
    const std::uint64_t mask = low_mask(w);
    a &= mask;
    b &= mask;
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(a) + b + (cin & 1);
    const std::uint64_t r = static_cast<std::uint64_t>(wide) & mask;
    Flags f;
    f.n = ((r >> (w - 1)) & 1) != 0;
    f.z = r == 0;
    f.c = (wide >> w) != 0;
    f.v = (((~(a ^ b) & (a ^ r)) >> (w - 1)) & 1) != 0;
    return {r, f};
}

std::uint64_t shift_left(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    if (amt >= w) return 0;
    return (v << amt) & low_mask(w);
}
std::uint64_t shift_right(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    v &= low_mask(w);
    if (amt >= w) return 0;
    return v >> amt;
}
std::uint64_t shift_right_arith(std::uint64_t v, unsigned amt, unsigned w) noexcept {
    const std::int64_t s = util::sign_extend(v, w);
    if (amt >= w) amt = w - 1;
    return static_cast<std::uint64_t>(s >> amt) & low_mask(w);
}

/// Can the trace engine execute this ender inline and keep bursting? Pure
/// control transfers cannot change mode, trap, or touch machine-wide state;
/// everything else ends the burst: SVC/ERET (mode switch), WFI/HLT (runnable
/// set), SYSRD/SYSWR (IPIs, timers, shutdown), UDF (trap), and V7 pc-writing
/// data ops (generic ops classified as enders; rare).
constexpr bool trace_chainable(Op op) noexcept {
    switch (op) {
        case Op::B:
        case Op::BCOND:
        case Op::BL:
        case Op::BLR:
        case Op::BR:
        case Op::RET:
        case Op::CBZ:
        case Op::CBNZ: return true;
        default: return false;
    }
}

} // namespace

void load_image_data(Machine& m) {
    namespace layout = isa::layout;
    const kasm::Image& img = m.image();
    Memory& mem = m.mem();
    for (const kasm::DataChunk& c : img.kdata_init) {
        util::check(c.vaddr >= layout::kKernBase &&
                        c.vaddr + c.bytes.size() <= layout::kKernBase + mem.kern_size(),
                    "load_image_data: kernel chunk out of range");
        std::memcpy(mem.kern_data() + (c.vaddr - layout::kKernBase), c.bytes.data(),
                    c.bytes.size());
    }
    for (unsigned p = 0; p < mem.nprocs(); ++p) {
        for (const kasm::DataChunk& c : img.udata_init) {
            util::check(c.vaddr >= layout::kUserBase &&
                            c.vaddr + c.bytes.size() <= layout::kUserBase + mem.user_size(),
                        "load_image_data: user chunk out of range");
            std::memcpy(mem.user_data(p) + (c.vaddr - layout::kUserBase), c.bytes.data(),
                        c.bytes.size());
        }
        // Map the static data segment and the main stack (top of the region).
        if (img.udata_size > 0)
            mem.map_user_range(p, layout::kUserBase, layout::kUserBase + img.udata_size);
        const std::uint64_t top = layout::kUserBase + mem.user_size();
        mem.map_user_range(p, top - layout::kMainStackSize, top);
    }
}

namespace {
std::uint64_t text_mirror_bytes(const std::shared_ptr<const kasm::Image>& img) {
    util::check(img != nullptr, "Machine: null image");
    return img->code.size() * isa::kTextRecordBytes;
}
} // namespace

Machine::Machine(std::shared_ptr<const kasm::Image> image, const MachineConfig& cfg)
    : image_(std::move(image)),
      cfg_(cfg),
      mem_(cfg.procs, cfg.user_size, cfg.kern_size, text_mirror_bytes(image_)),
      l2_(kL2Config) {
    util::check(cfg.cores >= 1 && cfg.cores <= 8, "Machine: 1..8 cores");
    cores_.assign(cfg.cores, CoreState(image_->profile));
    counters_.assign(cfg.cores, CoreCounters{});
    l1i_.assign(cfg.cores, Cache(kL1Config));
    l1d_.assign(cfg.cores, Cache(kL1Config));
    outputs_.assign(cfg.procs, std::string{});
    proc_exit_codes_.assign(cfg.procs, -1);
    if (cfg.profile) {
        func_instr_.assign(image_->func_names.size(), 0);
        func_calls_.assign(image_->func_names.size(), 0);
        reg_writes_.assign(33, 0);
    }
    const isa::ProfileInfo info = isa::profile_info(image_->profile);
    width_bits_ = info.width_bits;
    width_mask_ = low_mask(info.width_bits);
    xcache_ = ExecCache::for_image(image_);
    // Serialize the code into the guest text mirror so memory faults can hit
    // it; the pristine mirror decodes back to exactly the shared cache.
    std::vector<std::uint8_t> text(image_->code.size() * isa::kTextRecordBytes);
    for (std::size_t i = 0; i < image_->code.size(); ++i)
        isa::encode_instr(image_->code[i], text.data() + i * isa::kTextRecordBytes);
    mem_.install_text(text.data(), text.size());
    code_gen_seen_ = mem_.code_gen();
}

void Machine::set_engine(Engine e) noexcept {
    if (engine_ == e) return;
    engine_ = e;
    // The MRU filters assume every prior access of this engine went through
    // them; a fresh engine must rebuild that assumption from scratch.
    for (CoreState& c : cores_) {
        c.last_iline = CoreState::kNoLine;
        c.last_dline = CoreState::kNoLine;
        c.last_tkey = CoreState::kNoTrans;
        c.last_tpage = 0;
    }
}

// Every field of the defaulted copy assignment, with guest memory's payload
// left in place. The assert pins the layout this list was written against
// (LP64): a new field breaks the build until it is copied here.
static_assert(sizeof(void*) != 8 || sizeof(Machine) == 896,
              "Machine changed: copy the new field in assign_shell()");

void Machine::assign_shell(const Machine& o) {
    image_ = o.image_;
    cfg_ = o.cfg_;
    mem_.assign_shell(o.mem_);
    cores_ = o.cores_;
    counters_ = o.counters_;
    mcounters_ = o.mcounters_;
    l1i_ = o.l1i_;
    l1d_ = o.l1d_;
    l2_ = o.l2_;
    outputs_ = o.outputs_;
    proc_exit_codes_ = o.proc_exit_codes_;
    status_ = o.status_;
    panic_cause_ = o.panic_cause_;
    exit_code_ = o.exit_code_;
    total_retired_ = o.total_retired_;
    app_started_ = o.app_started_;
    app_start_retired_ = o.app_start_retired_;
    func_instr_ = o.func_instr_;
    func_calls_ = o.func_calls_;
    reg_writes_ = o.reg_writes_;
    next_pc_ = o.next_pc_;
    branch_taken_ = o.branch_taken_;
    engine_ = o.engine_;
    xcache_ = o.xcache_;
    overlay_ = o.overlay_;
    tcur_ = o.tcur_;
    tstats_ = o.tstats_;     // copy-reset: zero
    observer_ = o.observer_; // copy-reset: detached
    uncore_ = o.uncore_;     // copy-reset: dropped
    code_gen_seen_ = o.code_gen_seen_;
    sched_event_ = o.sched_event_;
    width_mask_ = o.width_mask_;
    width_bits_ = o.width_bits_;
}

std::uint64_t Machine::time_ticks() const noexcept {
    std::uint64_t t = 0;
    for (const CoreState& c : cores_) t = std::max(t, c.local_tick);
    return t;
}

void Machine::panic(TrapCause cause) {
    status_ = RunStatus::KernelPanic;
    panic_cause_ = cause;
}

void Machine::take_trap(CoreState& core, TrapCause cause, std::uint64_t aux,
                        std::uint64_t badaddr) {
    if (observer_.ptr)
        observer_.ptr->on_trap(*this, static_cast<unsigned>(&core - cores_.data()),
                               cause);
    mcounters_.traps[static_cast<std::size_t>(cause)]++;
    if (cause == TrapCause::SVC) mcounters_.syscalls[aux & 15]++;
    core.epc = cause == TrapCause::SVC ? core.regs.pc() + isa::kInstrBytes
                                       : core.regs.pc();
    core.cause = static_cast<std::uint64_t>(cause) | (aux << 8);
    core.badaddr = badaddr;
    const std::uint64_t t = core.regs.sp();
    core.regs.set_sp(core.banked_sp);
    core.banked_sp = t;
    core.mode = Mode::KERNEL;
    core.regs.set_pc(image_->vec_entry);
    core.excl_valid = false;
}

void Machine::write_gpr(CoreState& core, unsigned rd, std::uint64_t value) {
    if (cfg_.profile) ++reg_writes_[rd];
    if (core.regs.profile() == isa::Profile::V7 && rd == 15) {
        // Writing R15 is a jump (the ARMv7 idiom the paper's PC-fault
        // sensitivity rests on).
        next_pc_ = value & core.regs.width_mask();
        branch_taken_ = true;
        return;
    }
    core.regs.set_x(rd, value);
}

void Machine::invalidate_reservations(std::uint64_t phys, const CoreState* except) {
    for (CoreState& c : cores_) {
        if (&c == except) continue;
        if (c.excl_valid && (c.excl_addr >> 3) == (phys >> 3)) c.excl_valid = false;
    }
}

bool Machine::data_access(CoreState& core, std::uint64_t vaddr, unsigned size,
                          bool write, std::uint64_t& phys, std::uint64_t& cost) {
    const Translation t =
        mem_.translate(vaddr, size, core.mode == Mode::KERNEL, core.curproc);
    if (!t.ok()) {
        if (core.mode == Mode::KERNEL) {
            panic(TrapCause::DATA_ABORT);
        } else {
            take_trap(core, TrapCause::DATA_ABORT,
                      static_cast<std::uint64_t>(t.fault), vaddr);
        }
        return false;
    }
    phys = t.phys;
    const auto ci = static_cast<unsigned>(&core - cores_.data());
    const bool l1_hit = l1d_[ci].access(phys);
    bool l2_hit = false;
    if (!l1_hit) {
        cost += kL1MissPenalty;
        l2_hit = l2_.access(phys);
        if (!l2_hit) cost += kL2MissPenalty;
    }
    if (write) invalidate_reservations(phys, nullptr);
    if (uncore_.ptr)
        uncore_.ptr->on_data_access(*this, ci, phys, size, write, l1_hit,
                                    l2_hit, true);
    return true;
}

bool Machine::sysreg_read(CoreState& core, SysReg sr, std::uint64_t& value) {
    const bool kernel = core.mode == Mode::KERNEL;
    switch (sr) {
        case SysReg::CORE_ID:
            value = static_cast<std::uint64_t>(&core - cores_.data());
            return true;
        case SysReg::TLS: value = core.tls; return true;
        case SysReg::INSTRET: value = core.retired; return true;
        case SysReg::NCORES: value = cores_.size(); return true;
        case SysReg::TIMER: value = core.timer; return kernel;
        case SysReg::EPC: value = core.epc; return kernel;
        case SysReg::CAUSE: value = core.cause; return kernel;
        case SysReg::BADADDR: value = core.badaddr; return kernel;
        case SysReg::FLAGS: value = core.regs.flags().pack(); return kernel;
        case SysReg::USP: value = core.banked_sp; return kernel;
        case SysReg::CURPROC: value = core.curproc; return kernel;
        default: return false;
    }
}

bool Machine::sysreg_write(CoreState& core, SysReg sr, std::uint64_t value) {
    if (core.mode != Mode::KERNEL) return false;
    switch (sr) {
        case SysReg::TIMER:
            core.timer = value;
            core.pending_timer = false;
            return true;
        case SysReg::EPC: core.epc = value; return true;
        case SysReg::FLAGS: core.regs.flags() = Flags::unpack(value); return true;
        case SysReg::USP: core.banked_sp = value; return true;
        case SysReg::TLS:
            if (core.tls != value) ++mcounters_.ctx_switches;
            core.tls = value;
            return true;
        case SysReg::CURPROC:
            if (value >= cfg_.procs) return false;
            core.curproc = static_cast<std::uint32_t>(value);
            return true;
        case SysReg::IPI_SEND:
            for (unsigned c = 0; c < cores_.size(); ++c) {
                if (value & (std::uint64_t{1} << c)) {
                    cores_[c].pending_ipi = true;
                    cores_[c].wake_tick =
                        std::max(cores_[c].wake_tick, core.local_tick);
                }
            }
            // Another core may be runnable now: the trace engine's burst
            // loops must fall back to the scheduler scan.
            sched_event_ = true;
            return true;
        case SysReg::CONSOLE:
            outputs_[core.curproc] += static_cast<char>(value & 0xFF);
            return true;
        case SysReg::MAP_BRK: {
            const std::uint64_t base = isa::layout::kUserBase;
            if (value < base || value > base + cfg_.user_size) return false;
            mem_.map_user_range(core.curproc, base, value);
            return true;
        }
        case SysReg::SHUTDOWN:
            status_ = RunStatus::Shutdown;
            exit_code_ = static_cast<int>(value & 0xFF);
            return true;
        case SysReg::PROC_EXIT: {
            const std::uint64_t proc = value >> 8;
            if (proc >= cfg_.procs) return false;
            proc_exit_codes_[proc] = static_cast<int>(value & 0xFF);
            return true;
        }
        default: return false;
    }
}

RunStatus Machine::run_until(std::uint64_t stop_at) {
    while (status_ == RunStatus::Running && total_retired_ < stop_at) {
        int best = -1;
        std::uint64_t best_tick = std::numeric_limits<std::uint64_t>::max();
        unsigned runnable = 0;
        for (unsigned c = 0; c < cores_.size(); ++c) {
            CoreState& k = cores_[c];
            if (k.halted) continue;
            if (k.sleeping) {
                if (k.pending_timer || k.pending_ipi) {
                    k.sleeping = false;
                    k.pending_timer = false;
                    k.pending_ipi = false;
                    k.local_tick = std::max(k.local_tick, k.wake_tick);
                } else {
                    continue;
                }
            }
            ++runnable;
            if (k.local_tick < best_tick) {
                best_tick = k.local_tick;
                best = static_cast<int>(c);
            }
        }
        if (best < 0) {
            status_ = RunStatus::Deadlock;
            break;
        }
        if (engine_ == Engine::Trace) {
            if (runnable == 1) {
                // Solo regime: no rival can claim the scan (sleepers stay
                // asleep without an IPI, which sets sched_event_), so the
                // burst is unbounded — run until a scheduling event.
                CoreState& k = cores_[static_cast<unsigned>(best)];
                sched_event_ = false;
                do {
                    burst_trace(static_cast<unsigned>(best), stop_at);
                } while (status_ == RunStatus::Running &&
                         total_retired_ < stop_at && !sched_event_ &&
                         !k.sleeping && !k.halted);
            } else {
                run_trace_multi(stop_at);
            }
            continue;
        }
        step_switch(static_cast<unsigned>(best));
    }
    // Settle deferred uncore corruption (pending bus flips/restores) at the
    // run boundary, before the caller hashes or classifies machine state.
    if (uncore_.ptr) uncore_.ptr->on_run_boundary(*this);
    return status_;
}

const DecodedInstr* Machine::fetch_decoded(std::size_t idx) {
    if (mem_.code_gen() != code_gen_seen_) refresh_code_overlay();
    if (!overlay_.empty()) {
        for (const OverlayPage& p : overlay_)
            if (idx >= p.first && idx - p.first < p.recs.size())
                return &p.recs[idx - p.first];
    }
    return &(*xcache_)[idx];
}

void Machine::refresh_code_overlay() {
    code_gen_seen_ = mem_.code_gen();
    if (!mem_.has_text()) return;
    const std::vector<std::uint8_t>& dirty = mem_.code_dirty_pages();
    for (std::uint64_t p = 0; p < dirty.size(); ++p) {
        if (!dirty[p]) continue;
        const std::uint64_t first = p * isa::kTextRecordsPerPage;
        if (first >= xcache_->size()) break; // page past the last record
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(isa::kTextRecordsPerPage,
                                    xcache_->size() - first));
        OverlayPage* op = nullptr;
        std::size_t at = overlay_.size();
        for (std::size_t i = 0; i < overlay_.size(); ++i) {
            if (overlay_[i].first == first) {
                op = &overlay_[i];
                break;
            }
            if (overlay_[i].first > first) {
                at = i;
                break;
            }
        }
        if (!op) {
            op = &*overlay_.insert(overlay_.begin() + static_cast<std::ptrdiff_t>(at),
                                   OverlayPage{first, {}});
        }
        op->recs.resize(count);
        ExecCache::decode_records(
            mem_.text_data() + p * isa::layout::kPageSize, count,
            image_->profile, image_->code_base + first * isa::kInstrBytes,
            image_->kernel_text_end, op->recs.data());
    }
}

// ---- the step skeleton ------------------------------------------------------
// The step mechanics every engine shares, written once: interrupt
// preemption, the I-fetch, the V7 predicate, the observer, the handler with
// its panic / side exit, and retirement. step_cached, burst_trace and
// trace_step_one differ only in what they hoist around these calls;
// step_switch keeps its own fetch check, predicate and op switch (the
// independent oracle) but shares the preamble and the retire epilogue.

namespace {

/// Is an interrupt waiting to preempt this core? Only user code is
/// preemptible; the kernel polls (WFI) instead.
bool irq_pending(const CoreState& core) noexcept {
    return core.mode == Mode::USER && (core.pending_timer || core.pending_ipi);
}

/// The retired-instruction counter for the core's current mode.
std::uint64_t& retired_bucket(const CoreState& core, CoreCounters& cnt) noexcept {
    return core.mode == Mode::KERNEL ? cnt.kernel_retired : cnt.user_retired;
}

} // namespace

/// Deliver a pending timer or IPI interrupt (timer first) as a trap. Returns
/// true when one was delivered: that is the core's whole step.
[[gnu::always_inline]] inline bool Machine::deliver_pending_irq(CoreState& core) {
    if (!irq_pending(core)) return false;
    TrapCause cause;
    if (core.pending_timer) {
        cause = TrapCause::IRQ_TIMER;
        core.pending_timer = false;
    } else {
        cause = TrapCause::IRQ_IPI;
        core.pending_ipi = false;
    }
    take_trap(core, cause, 0, 0);
    core.local_tick += 2;
    return true;
}

/// An illegal fetch at `pc`: kernel panic, or a user prefetch-abort trap.
void Machine::fetch_abort(CoreState& core, std::uint64_t pc) {
    if (core.mode == Mode::KERNEL) {
        panic(TrapCause::PREFETCH_ABORT);
    } else {
        take_trap(core, TrapCause::PREFETCH_ABORT, 0, pc);
        core.local_tick += 2;
    }
}

/// Charge the I-fetch of `pc` to core `ci`: the L1I (and L2 on a miss)
/// behind the per-core MRU line filter. Returns the step's base cost. A
/// filtered re-touch is credited as an L1I hit at once or, when `credits`
/// is given, counted there for one Cache::credit_hits flush when the caller
/// is done (hit counters are only read between runs).
[[gnu::always_inline]] inline std::uint64_t Machine::fetch_line(
    unsigned ci, std::uint64_t pc, std::uint64_t* credits) {
    CoreState& core = cores_[ci];
    const std::uint64_t iline = pc >> 6; // 64-byte lines (kL1Config)
    // Filtered hits dominate; keep them on the fall-through path.
    if (__builtin_expect(iline == core.last_iline, 1)) {
        if (credits) {
            ++*credits;
        } else {
            l1i_[ci].credit_hit();
        }
        return 1;
    }
    core.last_iline = iline;
    std::uint64_t cost = 1;
    if (!l1i_[ci].access(pc)) {
        cost += kL1MissPenalty;
        if (!l2_.access(pc)) cost += kL2MissPenalty;
    }
    return cost;
}

/// Retire the instruction `op` at `pc`, executed or a V7 predicate bubble:
/// advance the pc, charge the taken-branch bubble, count the retirement in
/// `bucket` and the branch/call counters (`cflags`: its kDiBranch/kDiCall
/// bits, 0 for a bubble), attribute it to its function when profiling, run
/// the timer down, and add the step's `cost` to the tick. Without
/// kMayBranch the instruction is straight-line (no branch, no call, no SVC),
/// so the pc simply falls through.
template <bool kMayBranch>
[[gnu::always_inline]] inline void Machine::retire_instr(
    CoreState& core, CoreCounters& cnt, std::uint64_t& bucket, Op op,
    std::uint8_t cflags, std::uint64_t pc, std::size_t idx, std::uint64_t cost) {
    if constexpr (kMayBranch) {
        if (op != Op::SVC) core.regs.set_pc(next_pc_); // SVC: the trap's pc
        if (branch_taken_) cost += 1;
    } else {
        core.regs.set_pc(pc + isa::kInstrBytes);
    }
    ++core.retired;
    ++total_retired_;
    ++bucket;
    if constexpr (kMayBranch) {
        if (cflags & kDiBranch) {
            ++cnt.branches;
            if (branch_taken_) ++cnt.taken_branches;
        }
        if (cflags & kDiCall) ++cnt.calls;
    }
    if (cfg_.profile) ++func_instr_[image_->func_of_instr[idx]];
    if (core.timer > 0 && --core.timer == 0) core.pending_timer = true;
    core.local_tick += cost;
}

/// Execute and retire the fetched record `d` (instruction index `idx`) at
/// `pc` with the fetch's `cost`: V7 predicate, observer, handler, then
/// retirement. Returns false when the step ended without retiring — a
/// kernel panic, or a side exit where the instruction faulted, its trap is
/// already taken (the core's pc still held the faulting pc for epc), and
/// the core pays the trap entry. kMayBranch as for retire_instr.
template <bool kMayBranch>
[[gnu::always_inline]] inline bool Machine::exec_retire(
    unsigned ci, const DecodedInstr& d, std::uint64_t pc, std::uint64_t cost,
    std::uint64_t& bucket, std::size_t idx) {
    CoreState& core = cores_[ci];
    CoreCounters& cnt = counters_[ci];
    // V7 conditional execution: a failed predicate retires as a bubble.
    const bool executed =
        !d.check_cond || cond_holds(d.ins.cond, core.regs.flags());
    if (observer_.ptr) observer_.ptr->on_step(*this, ci, d, pc, executed);
    if constexpr (kMayBranch) {
        next_pc_ = pc + isa::kInstrBytes;
        branch_taken_ = false;
    }
    StepCtx cx{core, cnt, d, ci, pc, cost, true};
    if (executed) d.fn(*this, cx);
    if (__builtin_expect(status_ == RunStatus::KernelPanic, 0)) return false;
    if (__builtin_expect(!cx.retire, 0)) {
        core.local_tick += cx.cost + 2;
        return false;
    }
    retire_instr<kMayBranch>(core, cnt, bucket, d.ins.op, executed ? d.cflags : 0,
                             pc, idx, cx.cost);
    return true;
}

/// The trace engine's single step, its fallback for non-chainable enders,
/// overlaid pages and wild pcs: identical semantics to step_switch(), with
/// the per-instruction facts read from the DecodedInstr, dispatch through
/// the pre-resolved handler pointer, and MRU line filters in front of the
/// L1 models (bit-identical cache evolution, see Cache::credit_hit).
void Machine::step_cached(unsigned ci) {
    CoreState& core = cores_[ci];
    if (deliver_pending_irq(core)) return;
    const std::uint64_t pc = core.regs.pc();
    const std::size_t idx = image_->instr_index(pc);
    const DecodedInstr* di = image_->contains_code(pc) ? fetch_decoded(idx) : nullptr;
    if (!di || (core.mode != Mode::KERNEL && !di->user_ok)) {
        fetch_abort(core, pc);
        return;
    }
    exec_retire<true>(ci, *di, pc, fetch_line(ci, pc),
                      retired_bucket(core, counters_[ci]), idx);
}

bool Machine::trace_page_overlaid(std::size_t idx) const noexcept {
    const std::uint64_t first =
        (idx / isa::kTextRecordsPerPage) * isa::kTextRecordsPerPage;
    for (const OverlayPage& p : overlay_)
        if (p.first == first) return true;
    return false;
}

const DecodedInstr* Machine::trace_fetch(const CoreState& core,
                                         std::uint64_t pc,
                                         std::size_t& idx) const noexcept {
    if (!image_->contains_code(pc)) return nullptr;
    idx = image_->instr_index(pc);
    if (!overlay_.empty() && trace_page_overlaid(idx)) return nullptr;
    const DecodedInstr* d = &(*xcache_)[idx];
    return core.mode == Mode::KERNEL || d->user_ok ? d : nullptr;
}

/// One trace unit of the superblock engine. Semantics are *defined* by
/// step_cached (and transitively by step_switch): executing a superblock is
/// exactly the sequence of step_cached calls for its instructions, with the
/// per-step work that is provably constant across the run hoisted out:
///
///  * fetch validity / user_ok — a run is straight-line and ascending, and
///    user_ok is monotone in the address, so the first record's check
///    covers the whole run; kernel fetches are always legal;
///  * overlay lookup — runs never cross a text page (ExecCache clips them),
///    so one page lookup validates every fetch in the trace. A text fault
///    or snapshot restore that re-decoded this page (the PR-3 CoW funnel)
///    drops the trace back to single-step dispatch through step_cached,
///    which reads through the overlay;
///  * next_pc_/branch_taken_ bookkeeping — no in-trace instruction can
///    branch (trace enders are excluded), so every retirement is pc += 4;
///  * branch/call counter tests — in-trace cflags are always 0;
///  * retired-mode bucket — mode only changes via traps and enders, so the
///    kernel/user attribution is constant inside a trace;
///  * I-line MRU credits — filtered hits accumulate locally and flush in
///    one credit_hits call when the burst ends (side exits included).
///
/// Everything that can vary per step stays per step: the tick-horizon
/// check (step costs vary with cache misses and FP latency, so a step
/// budget alone cannot bound ticks), the V7 predicate, the observer
/// callback (prune's XOR-diff walk must see every retired instruction,
/// mid-trace included), data aborts (side exits), the timer decrement, and
/// the per-step tick/retire accounting — all in exec_retire.
///
/// The step budget is clipped to min(run length, instructions left until
/// stop_at, pending-timer distance): a fault instant or checkpoint rung is
/// a stop_at from run_until's callers, so a pending injection inside the
/// window clips the trace rather than the trace skidding past it.
void Machine::burst_trace(unsigned ci, std::uint64_t stop_at) {
    CoreState& core = cores_[ci];
    if (deliver_pending_irq(core)) return;

    std::uint64_t lpc = core.regs.pc();
    std::size_t idx = 0;
    const DecodedInstr* di = nullptr;
    std::uint64_t seg = 0; // straight-line records executable from lpc

    // (Re)derive the segment state at lpc. Returns false when the burst
    // must not fetch from lpc through the hoisted-check fast path — those
    // pcs fall back to step_cached, which re-checks everything per step.
    const auto load_segment = [&]() -> bool {
        di = trace_fetch(core, lpc, idx);
        if (!di) return false;
        seg = xcache_->run_len(idx);
        return true;
    };

    // Text generation moves only between run_until calls (no VA translates
    // into the text mirror, so guest stores cannot dirty code mid-burst);
    // checking here keeps the per-trace overlay lookup sound for the rest
    // of the burst.
    if (mem_.code_gen() != code_gen_seen_) refresh_code_overlay();
    if (!load_segment() || (seg == 0 && !trace_chainable(di->ins.op))) {
        ++tstats_.fallbacks;
        step_cached(ci); // single step with full per-step checks
        return;
    }

    std::uint64_t& bucket = retired_bucket(core, counters_[ci]);
    std::uint64_t iline_credits = 0;
    for (;;) {
        if (seg == 0) {
            // The record at lpc is a chainable control transfer. Execute it
            // inline with the branch mechanics, then rederive the segment
            // at the target and keep bursting.
            ++tstats_.chain_links;
            if (!exec_retire<true>(ci, *di, lpc, fetch_line(ci, lpc, &iline_credits),
                                   bucket, idx))
                break;
            lpc = core.regs.pc();
        } else {
            // Straight-line superblock segment: seg records from di/lpc.
            ++tstats_.bursts;
            std::uint64_t max_steps = seg;
            const std::uint64_t left = stop_at - total_retired_; // >= 1 here
            if (left < max_steps) max_steps = left;
            // Clip at the pending-timer distance so the timer fires exactly
            // on the step that drains it; the preemption preamble then runs
            // at the next burst entry.
            if (core.timer > 0 && core.timer < max_steps)
                max_steps = core.timer;

            std::uint64_t done = 0;
            for (; done < max_steps; ++done, lpc += isa::kInstrBytes)
                if (!exec_retire<false>(ci, di[done], lpc,
                                        fetch_line(ci, lpc, &iline_credits),
                                        bucket, idx + done))
                    goto out;
            // A stop_at or timer clip ends the burst mid-run.
            if (done < seg) break;
            // Segment exhausted: lpc sits at the next record — an ender, or
            // the head of the next text page (runs never cross pages).
        }

        // Between chain links: deliver pending user interrupts at the next
        // burst entry, and end the burst when the next pc leaves the
        // hoisted-check fast path.
        if (irq_pending(core) || total_retired_ >= stop_at) break;
        if (!load_segment()) break;
        if (seg == 0 && !trace_chainable(di->ins.op)) break;
    }
out:
    if (iline_credits != 0) l1i_[ci].credit_hits(iline_credits);
}

/// One scheduler-grade step of core `ci` under the trace engine, with a
/// persistent per-core cursor (tcur_[ci]) memoising the segment derivation
/// — translation, overlay-page check, user fetch permission, run length —
/// across the interleaved steps of run_trace_multi. The cursor is a pure
/// memo keyed by pc: it is consulted only when (left != 0 && lpc ==
/// core.regs.pc()), and every path that redirects the pc (trap, ender,
/// fallback) either updates it or zeroes `left`, so a hit can never be
/// stale. Mode changes always redirect the pc (trap vector / ERET target),
/// so pc equality also re-keys the hoisted mode-dependent facts (user_ok,
/// retired bucket). Step mechanics are step_cached's with the derivation
/// replaced by the cursor.
void Machine::trace_step_one(unsigned ci) {
    CoreState& core = cores_[ci];
    TraceCursor& cur = tcur_[ci];
    if (deliver_pending_irq(core)) {
        cur.left = 0;
        return;
    }

    const std::uint64_t lpc = core.regs.pc();
    const DecodedInstr* d;
    std::size_t idx = 0;
    bool at_ender;
    if (cur.left != 0 && cur.lpc == lpc) {
        d = cur.di;
        idx = cur.idx;
        at_ender = cur.ender;
    } else {
        // Cursor miss: (re)derive the segment at lpc. Text cannot change
        // inside the window (run_trace_multi refreshed the overlay at
        // entry; guest stores cannot reach the text mirror), so the
        // overlay-page check made here stays valid for the cursor's life.
        d = trace_fetch(core, lpc, idx);
        if (!d) {
            cur.left = 0;
            ++tstats_.fallbacks;
            step_cached(ci);
            return;
        }
        const std::uint64_t seg = xcache_->run_len(idx);
        at_ender = seg == 0;
        if (!at_ender) {
            ++tstats_.bursts;
            cur.di = d;
            cur.lpc = lpc;
            cur.idx = idx;
            cur.left = static_cast<std::uint32_t>(seg);
            cur.ender = false;
        }
    }

    std::uint64_t& bucket = retired_bucket(core, counters_[ci]);
    if (at_ender) {
        // Ender at lpc. Chainable control transfers execute inline with the
        // branch mechanics; everything else single-steps with full checks.
        // The ender's user_ok needs no re-check on a parked resume: runs
        // ascend within a page and user_ok is monotone in the address, so
        // the segment head's check covers it (and the mode cannot have
        // changed — that would have redirected the pc and missed the
        // cursor).
        cur.left = 0;
        if (!trace_chainable(d->ins.op)) {
            ++tstats_.fallbacks;
            step_cached(ci);
            return;
        }
        ++tstats_.chain_links;
        exec_retire<true>(ci, *d, lpc, fetch_line(ci, lpc), bucket, idx);
        return;
    }

    // One straight-line record off the cursor. On a side exit the trap
    // redirected the pc off the segment.
    if (!exec_retire<false>(ci, *d, lpc, fetch_line(ci, lpc), bucket, idx)) {
        cur.left = 0;
        return;
    }

    // Advance the cursor; when the run exhausts on the same text page the
    // next record is its genuine ender (the page clip did not bind), so
    // park it and skip the next step's preamble.
    if (--cur.left == 0) {
        const std::size_t nidx = idx + 1;
        if (nidx % isa::kTextRecordsPerPage != 0) {
            cur.di = d + 1;
            cur.idx = nidx;
            cur.lpc = lpc + isa::kInstrBytes;
            cur.left = 1;
            cur.ender = true;
        }
    } else {
        cur.di = d + 1;
        cur.idx = idx + 1;
        cur.lpc = lpc + isa::kInstrBytes;
    }
}

void Machine::run_trace_multi(std::uint64_t stop_at) {
    // Inner scheduling loop for the >= 2 runnable-cores regime. The
    // reference schedule (argmin over local ticks, ties to the lowest core
    // index) is reproduced in rounds: scan once for the minimum tick S,
    // then step — in index order — every runnable core whose tick is still
    // S when its turn comes. A full round is always scan-order-valid:
    // every member holds the minimum tick at its turn (stepped members
    // moved strictly past S, since a step costs >= 1 tick; rivals sit
    // strictly above S; ties break to the lowest unstepped index), so the
    // round equals the per-instruction argmin schedule bit-for-bit while
    // costing one scan per round instead of one per step. Any prefix of a
    // round is equally valid, so the mid-round breaks (stop_at reached,
    // status change, sched_event_) also preserve the schedule; the
    // run_until re-scan then re-picks the same core the reference would.
    //
    // Wakes and IPIs set sched_event_, so the runnable set can only shrink
    // inside a round (a member's own step sleeping or halting it) — a
    // sleeper never silently rejoins mid-round. Shrink to < 2 runnable
    // cores returns to run_until for solo bursts / deadlock handling.
    const std::size_t n = cores_.size();
    if (tcur_.size() != n) tcur_.assign(n, TraceCursor{});
    else
        for (TraceCursor& c : tcur_) c.left = 0;
    if (mem_.code_gen() != code_gen_seen_) refresh_code_overlay();

    sched_event_ = false;
    for (;;) {
        if (status_ != RunStatus::Running || total_retired_ >= stop_at ||
            sched_event_)
            return;
        // One scan for the minimum tick t1 (lowest holder i1, holder count
        // count_min) and the first rival level above it: tnext = smallest
        // tick strictly greater than t1, inext = its lowest-indexed holder.
        // count_min tells the regime apart: several cores at the minimum
        // -> round; a lone holder -> burst up to the tnext claim.
        constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t t1 = kMax, tnext = kMax;
        unsigned i1 = 0, inext = 0, runnable = 0, count_min = 0;
        for (unsigned c = 0; c < n; ++c) {
            const CoreState& k = cores_[c];
            if (k.halted || k.sleeping) continue;
            ++runnable;
            if (k.local_tick < t1) {
                tnext = t1;
                inext = i1;
                t1 = k.local_tick;
                i1 = c;
                count_min = 1;
            } else if (k.local_tick == t1) {
                ++count_min;
            } else if (k.local_tick < tnext) {
                tnext = k.local_tick;
                inext = c;
            }
        }
        if (runnable < 2) return;
        if (count_min > 1) {
            // Round regime (near-lockstep ticks): step every runnable core
            // still holding t1 when its turn comes, in index order. When a
            // round is uniform — every member's step cost exactly one tick
            // and none slept or halted — and no rival sits at t1 + 1 (t2
            // bounds them all), the member set at t1 + 1 is provably the
            // same set in the same order, so the next round runs without
            // rescanning. Lockstep phases then pay one scan per run of
            // uniform rounds instead of one per round.
            for (;;) {
                bool uniform = true;
                for (unsigned c = i1; c < n; ++c) {
                    const CoreState& k = cores_[c];
                    if (k.halted || k.sleeping || k.local_tick != t1)
                        continue;
                    trace_step_one(c);
                    if (status_ != RunStatus::Running ||
                        total_retired_ >= stop_at || sched_event_)
                        return;
                    if (k.local_tick != t1 + 1 || k.sleeping || k.halted)
                        uniform = false;
                }
                if (!uniform || tnext <= t1 + 1) break;
                ++t1;
            }
        } else {
            // Burst regime (diverged ticks, e.g. an FP latency or a cache
            // miss on the rivals): core i1 stays the argmin pick while its
            // tick is below every rival's claim. The nearest claim comes
            // from inext — the lowest-indexed rival at the next tick level
            // — whose claim i1 undercuts at equality iff i1 < inext.
            // Rivals above tnext claim no earlier, so the burst is exactly
            // the reference schedule's run of consecutive i1 picks.
            const std::uint64_t horizon = tnext + (i1 < inext ? 1 : 0);
            CoreState& k = cores_[i1];
            do {
                trace_step_one(i1);
            } while (k.local_tick < horizon &&
                     status_ == RunStatus::Running &&
                     total_retired_ < stop_at && !sched_event_ &&
                     !k.sleeping && !k.halted);
        }
    }
}

void Machine::step_switch(unsigned ci) {
    CoreState& core = cores_[ci];
    CoreCounters& cnt = counters_[ci];
    const unsigned w = core.regs.width_bits();
    const std::uint64_t mask = core.regs.width_mask();
    const isa::Profile prof = core.regs.profile();

    if (deliver_pending_irq(core)) return;

    // Fetch.
    const std::uint64_t pc = core.regs.pc();
    const bool fetch_ok =
        image_->contains_code(pc) &&
        (core.mode == Mode::KERNEL || pc >= image_->kernel_text_end);
    if (!fetch_ok) {
        fetch_abort(core, pc);
        return;
    }
    std::uint64_t cost = 1;
    if (!l1i_[ci].access(pc)) {
        cost += kL1MissPenalty;
        if (!l2_.access(pc)) cost += kL2MissPenalty;
    }
    const std::size_t idx = image_->instr_index(pc);
    // Read through the text overlay so a fault-corrupted (re-decoded) page
    // is visible to the legacy engine too — both engines execute the same
    // instruction stream whatever the mirror holds.
    const DecodedInstr* dec = fetch_decoded(idx);
    const Instr& ins = dec->ins;
    std::uint64_t& bucket = retired_bucket(core, cnt);
    next_pc_ = pc + isa::kInstrBytes;
    branch_taken_ = false;

    // V7 conditional execution: a failed predicate retires as a bubble.
    bool executed = true;
    if (prof == isa::Profile::V7 && ins.cond != Cond::AL && ins.op != Op::BCOND &&
        !cond_holds(ins.cond, core.regs.flags())) {
        executed = false;
    }

    if (observer_.ptr) observer_.ptr->on_step(*this, ci, *dec, pc, executed);

    bool retire = true;     // false when the instruction faulted
    if (executed) {
        auto& regs = core.regs;
        auto x = [&](unsigned r) { return regs.x(r); };
        auto vb = [&](unsigned r) { return regs.v_bits(r); };
        auto vd = [&](unsigned r) { return util::bits_f64(regs.v_bits(r)); };
        auto setv = [&](unsigned r, double d) { regs.set_v_bits(r, util::f64_bits(d)); };
        auto addr_of = [&]() {
            const std::uint64_t base = x(ins.rn);
            const std::uint64_t off = ins.rm != isa::kNoReg
                                          ? (x(ins.rm) << ins.shift)
                                          : static_cast<std::uint64_t>(ins.imm);
            return (base + off) & mask;
        };
        // Returns false when the access faulted (trap already taken).
        auto load = [&](std::uint64_t vaddr, unsigned size, std::uint64_t& out) {
            std::uint64_t phys = 0;
            if (!data_access(core, vaddr, size, false, phys, cost)) return false;
            out = mem_.load(phys, size);
            ++cnt.loads;
            return true;
        };
        auto store = [&](std::uint64_t vaddr, unsigned size, std::uint64_t val) {
            std::uint64_t phys = 0;
            if (!data_access(core, vaddr, size, true, phys, cost)) return false;
            mem_.store(phys, size, val);
            ++cnt.stores;
            return true;
        };
        auto trap_undef = [&] {
            if (core.mode == Mode::KERNEL) {
                panic(TrapCause::UNDEF);
            } else {
                take_trap(core, TrapCause::UNDEF, static_cast<std::uint64_t>(ins.op), 0);
            }
            retire = false;
        };

        switch (ins.op) {
            case Op::MOVI: write_gpr(core, ins.rd, static_cast<std::uint64_t>(ins.imm)); break;
            case Op::MOV: write_gpr(core, ins.rd, x(ins.rn)); break;
            case Op::MVN: write_gpr(core, ins.rd, ~x(ins.rn)); break;
            case Op::ADD: write_gpr(core, ins.rd, x(ins.rn) + x(ins.rm)); break;
            case Op::SUB: write_gpr(core, ins.rd, x(ins.rn) - x(ins.rm)); break;
            case Op::AND: write_gpr(core, ins.rd, x(ins.rn) & x(ins.rm)); break;
            case Op::ORR: write_gpr(core, ins.rd, x(ins.rn) | x(ins.rm)); break;
            case Op::EOR: write_gpr(core, ins.rd, x(ins.rn) ^ x(ins.rm)); break;
            case Op::MUL: write_gpr(core, ins.rd, x(ins.rn) * x(ins.rm)); break;
            case Op::ADDI: write_gpr(core, ins.rd, x(ins.rn) + static_cast<std::uint64_t>(ins.imm)); break;
            case Op::SUBI: write_gpr(core, ins.rd, x(ins.rn) - static_cast<std::uint64_t>(ins.imm)); break;
            case Op::ANDI: write_gpr(core, ins.rd, x(ins.rn) & static_cast<std::uint64_t>(ins.imm)); break;
            case Op::ORRI: write_gpr(core, ins.rd, x(ins.rn) | static_cast<std::uint64_t>(ins.imm)); break;
            case Op::EORI: write_gpr(core, ins.rd, x(ins.rn) ^ static_cast<std::uint64_t>(ins.imm)); break;
            case Op::ADDS: {
                const AluResult r = add_with_carry(x(ins.rn), x(ins.rm), 0, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::SUBS: {
                const AluResult r = add_with_carry(x(ins.rn), ~x(ins.rm), 1, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::ADDSI: {
                const AluResult r =
                    add_with_carry(x(ins.rn), static_cast<std::uint64_t>(ins.imm), 0, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::SUBSI: {
                const AluResult r =
                    add_with_carry(x(ins.rn), ~static_cast<std::uint64_t>(ins.imm), 1, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::ADCS: {
                const AluResult r =
                    add_with_carry(x(ins.rn), x(ins.rm), regs.flags().c, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::SBCS: {
                const AluResult r =
                    add_with_carry(x(ins.rn), ~x(ins.rm), regs.flags().c, w);
                regs.flags() = r.flags;
                write_gpr(core, ins.rd, r.value);
                break;
            }
            case Op::UMULL: {
                const std::uint64_t p = static_cast<std::uint64_t>(static_cast<std::uint32_t>(x(ins.rn))) *
                                        static_cast<std::uint32_t>(x(ins.rm));
                write_gpr(core, ins.rd, p & 0xFFFFFFFFu);
                write_gpr(core, ins.ra, p >> 32);
                break;
            }
            case Op::SMULL: {
                const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(x(ins.rn))) *
                                       static_cast<std::int32_t>(x(ins.rm));
                write_gpr(core, ins.rd, static_cast<std::uint64_t>(p) & 0xFFFFFFFFu);
                write_gpr(core, ins.ra, static_cast<std::uint64_t>(p) >> 32);
                break;
            }
            case Op::UMULH: {
                const unsigned __int128 p =
                    static_cast<unsigned __int128>(x(ins.rn)) * x(ins.rm);
                write_gpr(core, ins.rd, static_cast<std::uint64_t>(p >> 64));
                break;
            }
            case Op::UDIV: {
                const std::uint64_t b = x(ins.rm);
                write_gpr(core, ins.rd, b == 0 ? 0 : x(ins.rn) / b);
                break;
            }
            case Op::SDIV: {
                const std::int64_t a = util::sign_extend(x(ins.rn), w);
                const std::int64_t b = util::sign_extend(x(ins.rm), w);
                std::int64_t q = 0;
                if (b != 0) {
                    if (a == std::numeric_limits<std::int64_t>::min() && b == -1) {
                        q = a;
                    } else {
                        q = a / b;
                    }
                }
                write_gpr(core, ins.rd, static_cast<std::uint64_t>(q));
                break;
            }
            case Op::LSLI: write_gpr(core, ins.rd, shift_left(x(ins.rn), static_cast<unsigned>(ins.imm), w)); break;
            case Op::LSRI: write_gpr(core, ins.rd, shift_right(x(ins.rn), static_cast<unsigned>(ins.imm), w)); break;
            case Op::ASRI: write_gpr(core, ins.rd, shift_right_arith(x(ins.rn), static_cast<unsigned>(ins.imm), w)); break;
            case Op::LSLV: write_gpr(core, ins.rd, shift_left(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w)); break;
            case Op::LSRV: write_gpr(core, ins.rd, shift_right(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w)); break;
            case Op::ASRV: write_gpr(core, ins.rd, shift_right_arith(x(ins.rn), static_cast<unsigned>(x(ins.rm) & 0xFF), w)); break;
            case Op::LSLSI: {
                const unsigned sh = static_cast<unsigned>(ins.imm);
                const std::uint64_t a = x(ins.rn);
                const std::uint64_t r = shift_left(a, sh, w);
                regs.flags().c = util::get_bit(a, w - sh);
                regs.flags().n = util::get_bit(r, w - 1);
                regs.flags().z = r == 0;
                write_gpr(core, ins.rd, r);
                break;
            }
            case Op::LSRSI: {
                const unsigned sh = static_cast<unsigned>(ins.imm);
                const std::uint64_t a = x(ins.rn);
                const std::uint64_t r = shift_right(a, sh, w);
                regs.flags().c = util::get_bit(a, sh - 1);
                regs.flags().n = false;
                regs.flags().z = r == 0;
                write_gpr(core, ins.rd, r);
                break;
            }
            case Op::CLZ: {
                const std::uint64_t a = x(ins.rn);
                unsigned n;
                if (a == 0) {
                    n = w;
                } else if (w == 32) {
                    n = util::clz(a, 32);
                } else {
                    n = util::clz(a, 64);
                }
                write_gpr(core, ins.rd, n);
                break;
            }
            case Op::CMP: regs.flags() = add_with_carry(x(ins.rn), ~x(ins.rm), 1, w).flags; break;
            case Op::CMPI: regs.flags() = add_with_carry(x(ins.rn), ~static_cast<std::uint64_t>(ins.imm), 1, w).flags; break;
            case Op::CMN: regs.flags() = add_with_carry(x(ins.rn), x(ins.rm), 0, w).flags; break;
            case Op::TST: {
                const std::uint64_t r = (x(ins.rn) & x(ins.rm)) & mask;
                regs.flags().n = util::get_bit(r, w - 1);
                regs.flags().z = r == 0;
                break;
            }
            case Op::CSEL:
                write_gpr(core, ins.rd,
                          cond_holds(ins.cond, regs.flags()) ? x(ins.rn) : x(ins.rm));
                break;
            case Op::CSET:
                write_gpr(core, ins.rd, cond_holds(ins.cond, regs.flags()) ? 1 : 0);
                break;

            case Op::B:
                next_pc_ = static_cast<std::uint64_t>(ins.imm);
                branch_taken_ = true;
                break;
            case Op::BCOND:
                if (cond_holds(ins.cond, regs.flags())) {
                    next_pc_ = static_cast<std::uint64_t>(ins.imm);
                    branch_taken_ = true;
                }
                break;
            case Op::BL:
                regs.set_lr(pc + isa::kInstrBytes);
                next_pc_ = static_cast<std::uint64_t>(ins.imm);
                branch_taken_ = true;
                if (cfg_.profile) {
                    const std::uint64_t t = static_cast<std::uint64_t>(ins.imm);
                    if (image_->contains_code(t))
                        ++func_calls_[image_->func_of_instr[image_->instr_index(t)]];
                }
                break;
            case Op::BLR: {
                const std::uint64_t t = x(ins.rn);
                regs.set_lr(pc + isa::kInstrBytes);
                next_pc_ = t;
                branch_taken_ = true;
                if (cfg_.profile && image_->contains_code(t))
                    ++func_calls_[image_->func_of_instr[image_->instr_index(t)]];
                break;
            }
            case Op::BR:
                next_pc_ = x(ins.rn);
                branch_taken_ = true;
                break;
            case Op::RET:
                next_pc_ = regs.lr();
                branch_taken_ = true;
                break;
            case Op::CBZ:
                if (x(ins.rn) == 0) {
                    next_pc_ = static_cast<std::uint64_t>(ins.imm);
                    branch_taken_ = true;
                }
                break;
            case Op::CBNZ:
                if (x(ins.rn) != 0) {
                    next_pc_ = static_cast<std::uint64_t>(ins.imm);
                    branch_taken_ = true;
                }
                break;

            case Op::LDR: {
                std::uint64_t v;
                if (!load(addr_of(), core.regs.profile() == isa::Profile::V7 ? 4 : 8, v)) { retire = false; break; }
                write_gpr(core, ins.rd, v);
                break;
            }
            case Op::STR:
                if (!store(addr_of(), core.regs.profile() == isa::Profile::V7 ? 4 : 8, x(ins.rd))) retire = false;
                break;
            case Op::LDRW: {
                std::uint64_t v;
                if (!load(addr_of(), 4, v)) { retire = false; break; }
                write_gpr(core, ins.rd, v);
                break;
            }
            case Op::STRW:
                if (!store(addr_of(), 4, x(ins.rd) & 0xFFFFFFFFu)) retire = false;
                break;
            case Op::LDRB: {
                std::uint64_t v;
                if (!load(addr_of(), 1, v)) { retire = false; break; }
                write_gpr(core, ins.rd, v);
                break;
            }
            case Op::STRB:
                if (!store(addr_of(), 1, x(ins.rd) & 0xFF)) retire = false;
                break;
            case Op::LDM: {
                std::uint64_t a = x(ins.rn) & mask;
                unsigned n = 0;
                for (unsigned r = 0; r < 15 && retire; ++r) {
                    if (!(ins.regmask & (1u << r))) continue;
                    std::uint64_t v;
                    if (!load(a + 4 * n, 4, v)) { retire = false; break; }
                    write_gpr(core, r, v);
                    ++n;
                }
                if (retire && ins.wb) write_gpr(core, ins.rn, (x(ins.rn) + 4 * n) & mask);
                break;
            }
            case Op::STM: {
                const std::uint64_t a = x(ins.rn) & mask;
                unsigned n = 0;
                for (unsigned r = 0; r < 15 && retire; ++r) {
                    if (!(ins.regmask & (1u << r))) continue;
                    if (!store(a + 4 * n, 4, x(r))) { retire = false; break; }
                    ++n;
                }
                if (retire && ins.wb) write_gpr(core, ins.rn, (x(ins.rn) + 4 * n) & mask);
                break;
            }
            case Op::LDP: {
                const std::uint64_t a = addr_of();
                std::uint64_t v1, v2;
                if (!load(a, 8, v1) || !load(a + 8, 8, v2)) { retire = false; break; }
                write_gpr(core, ins.rd, v1);
                write_gpr(core, ins.ra, v2);
                break;
            }
            case Op::STP: {
                const std::uint64_t a = addr_of();
                if (!store(a, 8, x(ins.rd)) || !store(a + 8, 8, x(ins.ra))) retire = false;
                break;
            }
            case Op::LDREX: {
                const unsigned size = core.regs.profile() == isa::Profile::V7 ? 4 : 8;
                std::uint64_t phys = 0;
                if (!data_access(core, x(ins.rn) & mask, size, false, phys, cost)) { retire = false; break; }
                write_gpr(core, ins.rd, mem_.load(phys, size));
                ++cnt.loads;
                core.excl_addr = phys;
                core.excl_valid = true;
                break;
            }
            case Op::STREX: {
                const unsigned size = core.regs.profile() == isa::Profile::V7 ? 4 : 8;
                const std::uint64_t vaddr = x(ins.rn) & mask;
                const Translation t =
                    mem_.translate(vaddr, size, core.mode == Mode::KERNEL, core.curproc);
                if (!t.ok()) {
                    if (core.mode == Mode::KERNEL) {
                        panic(TrapCause::DATA_ABORT);
                    } else {
                        take_trap(core, TrapCause::DATA_ABORT,
                                  static_cast<std::uint64_t>(t.fault), vaddr);
                    }
                    retire = false;
                    break;
                }
                if (core.excl_valid && core.excl_addr == t.phys) {
                    if (uncore_.ptr)
                        uncore_.ptr->on_data_access(*this, ci, t.phys, size,
                                                    true, false, false, false);
                    mem_.store(t.phys, size, x(ins.rm));
                    ++cnt.stores;
                    core.excl_valid = false;
                    invalidate_reservations(t.phys, &core);
                    write_gpr(core, ins.rd, 0);
                } else {
                    core.excl_valid = false;
                    write_gpr(core, ins.rd, 1);
                }
                break;
            }

            case Op::FADD: setv(ins.rd, vd(ins.rn) + vd(ins.rm)); ++cnt.fp_ops; break;
            case Op::FSUB: setv(ins.rd, vd(ins.rn) - vd(ins.rm)); ++cnt.fp_ops; break;
            case Op::FMUL: setv(ins.rd, vd(ins.rn) * vd(ins.rm)); ++cnt.fp_ops; break;
            case Op::FDIV: setv(ins.rd, vd(ins.rn) / vd(ins.rm)); ++cnt.fp_ops; cost += 10; break;
            case Op::FSQRT: setv(ins.rd, std::sqrt(vd(ins.rn))); ++cnt.fp_ops; cost += 10; break;
            case Op::FNEG: setv(ins.rd, -vd(ins.rn)); ++cnt.fp_ops; break;
            case Op::FABS: setv(ins.rd, std::fabs(vd(ins.rn))); ++cnt.fp_ops; break;
            case Op::FMADD: setv(ins.rd, std::fma(vd(ins.rn), vd(ins.rm), vd(ins.ra))); ++cnt.fp_ops; break;
            case Op::FMOV: regs.set_v_bits(ins.rd, vb(ins.rn)); ++cnt.fp_ops; break;
            case Op::FMOVI: regs.set_v_bits(ins.rd, static_cast<std::uint64_t>(ins.imm)); ++cnt.fp_ops; break;
            case Op::FCMP: {
                const double a = vd(ins.rn), b = vd(ins.rm);
                Flags f;
                if (std::isnan(a) || std::isnan(b)) {
                    f = Flags{false, false, true, true};
                } else if (a == b) {
                    f = Flags{false, true, true, false};
                } else if (a < b) {
                    f = Flags{true, false, false, false};
                } else {
                    f = Flags{false, false, true, false};
                }
                regs.flags() = f;
                ++cnt.fp_ops;
                break;
            }
            case Op::FCVTZS: {
                const double d = vd(ins.rn);
                std::int64_t r;
                if (std::isnan(d)) {
                    r = 0;
                } else if (d >= 9.2233720368547758e18) {
                    r = std::numeric_limits<std::int64_t>::max();
                } else if (d <= -9.2233720368547758e18) {
                    r = std::numeric_limits<std::int64_t>::min();
                } else {
                    r = static_cast<std::int64_t>(d);
                }
                write_gpr(core, ins.rd, static_cast<std::uint64_t>(r));
                ++cnt.fp_ops;
                break;
            }
            case Op::SCVTF:
                setv(ins.rd, static_cast<double>(static_cast<std::int64_t>(x(ins.rn))));
                ++cnt.fp_ops;
                break;
            case Op::FMOVVX: write_gpr(core, ins.rd, vb(ins.rn)); ++cnt.fp_ops; break;
            case Op::FMOVXV: regs.set_v_bits(ins.rd, x(ins.rn)); ++cnt.fp_ops; break;
            case Op::FLDR: {
                std::uint64_t v;
                if (!load(addr_of(), 8, v)) { retire = false; break; }
                regs.set_v_bits(ins.rd, v);
                break;
            }
            case Op::FSTR:
                if (!store(addr_of(), 8, vb(ins.rd))) retire = false;
                break;

            case Op::SVC:
                if (core.mode == Mode::KERNEL) {
                    panic(TrapCause::SVC);
                    retire = false;
                } else {
                    // SVC retires; the trap redirects control flow.
                    take_trap(core, TrapCause::SVC,
                              static_cast<std::uint64_t>(ins.imm), 0);
                    next_pc_ = core.regs.pc(); // already set by take_trap
                }
                break;
            case Op::SYSRD: {
                std::uint64_t v = 0;
                if (!sysreg_read(core, static_cast<SysReg>(ins.imm), v)) {
                    trap_undef();
                    break;
                }
                write_gpr(core, ins.rd, v);
                break;
            }
            case Op::SYSWR:
                if (!sysreg_write(core, static_cast<SysReg>(ins.imm), x(ins.rn))) {
                    trap_undef();
                    break;
                }
                break;
            case Op::ERET:
                if (core.mode != Mode::KERNEL) {
                    trap_undef();
                    break;
                }
                {
                    const std::uint64_t t = core.regs.sp();
                    core.regs.set_sp(core.banked_sp);
                    core.banked_sp = t;
                }
                core.mode = Mode::USER;
                next_pc_ = core.epc;
                branch_taken_ = true;
                core.excl_valid = false;
                if (!app_started_) {
                    app_started_ = true;
                    app_start_retired_ = total_retired_;
                }
                break;
            case Op::WFI:
                if (core.mode != Mode::KERNEL) {
                    trap_undef();
                    break;
                }
                if (core.pending_timer || core.pending_ipi) {
                    core.pending_timer = false;
                    core.pending_ipi = false;
                } else {
                    core.sleeping = true;
                    ++cnt.wfi_sleeps;
                }
                break;
            case Op::HLT:
                if (core.mode != Mode::KERNEL) {
                    trap_undef();
                    break;
                }
                core.halted = true;
                break;
            case Op::NOP: break;
            case Op::UDF: trap_undef(); break;
        }
    }

    if (status_ == RunStatus::KernelPanic) return;

    if (!retire) {
        core.local_tick += cost + 2;
        return;
    }

    // The oracle classifies branches from the op table, not the decode.
    std::uint8_t cflags = 0;
    if (executed) {
        const isa::OpInfo& oi = isa::op_info(ins.op);
        cflags = static_cast<std::uint8_t>((oi.is_branch ? kDiBranch : 0) |
                                           (oi.is_call ? kDiCall : 0));
    }
    retire_instr<true>(core, cnt, bucket, ins.op, cflags, pc, idx, cost);
}

} // namespace serep::sim
