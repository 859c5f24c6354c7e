#include "prune/prune.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/encode.hpp"
#include "isa/flags.hpp"
#include "isa/semantics.hpp"
#include "sim/machine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace serep::prune {

namespace {

using core::Fault;
using core::FaultTarget;
using core::Outcome;
using isa::DataEffect;
using isa::Flags;
using isa::Instr;
using isa::Op;
using isa::SysReg;
using isa::TrapCause;
using sim::DecodedInstr;
using sim::Machine;
using sim::Mode;
using util::low_mask;

// ---- diff locations -------------------------------------------------------
// A fault's pending corruption is a sparse map Loc -> XOR mask. Loc packs a
// kind tag (bits 60..63) over an address:
//   GPR   core<<8 | slot          width-bits mask
//   FP    core<<8 | reg           64-bit mask
//   FLAGS core                    NZCV nibble mask
//   MEM   physical byte           8-bit mask
//   USP   core (banked_sp)        width-bits mask
//   EPC   core                    width-bits mask
//   TLS   core                    width-bits mask
constexpr std::uint64_t kLGpr = 1, kLFp = 2, kLFlags = 3, kLMem = 4,
                        kLUsp = 5, kLEpc = 6, kLTls = 7;

constexpr std::uint64_t make_loc(std::uint64_t kind, std::uint64_t a) noexcept {
    return (kind << 60) | a;
}
constexpr std::uint64_t loc_gpr(unsigned c, unsigned slot) noexcept {
    return make_loc(kLGpr, (std::uint64_t{c} << 8) | slot);
}
constexpr std::uint64_t loc_fp(unsigned c, unsigned reg) noexcept {
    return make_loc(kLFp, (std::uint64_t{c} << 8) | reg);
}
constexpr std::uint64_t loc_flags(unsigned c) noexcept { return make_loc(kLFlags, c); }
constexpr std::uint64_t loc_mem(std::uint64_t phys) noexcept { return make_loc(kLMem, phys); }
constexpr std::uint64_t loc_usp(unsigned c) noexcept { return make_loc(kLUsp, c); }
constexpr std::uint64_t loc_epc(unsigned c) noexcept { return make_loc(kLEpc, c); }
constexpr std::uint64_t loc_tls(unsigned c) noexcept { return make_loc(kLTls, c); }
constexpr std::uint64_t loc_kind(std::uint64_t l) noexcept { return l >> 60; }
constexpr std::uint64_t loc_byte(std::uint64_t l) noexcept {
    return l & ((std::uint64_t{1} << 60) - 1);
}

// ---- per-fault tracking state ---------------------------------------------

struct FaultState {
    /// Pending XOR diff per location.
    std::map<std::uint64_t, std::uint64_t> diff;
    /// Sticky, classification-visible deltas that no future state can undo:
    /// PROC_EXIT codes (overwrite semantics; zero entries erased),
    std::map<unsigned, unsigned> proc_xor;
    /// SHUTDOWN exit code (overwrite semantics),
    unsigned shutdown_xor = 0;
    /// and console output (append-only, so a single divergent byte latches).
    bool output_differs = false;
    bool resolved = false;        ///< reached a real use: simulate it
    std::uint64_t cand_stamp = 0; ///< per-step candidate dedup
};

// ---- the walker -----------------------------------------------------------

class Walker final : public sim::StepObserver {
public:
    Walker(const Machine& m, const std::vector<Fault>& faults)
        : faults_(faults), fs_(faults.size()) {
        const isa::ProfileInfo info =
            isa::profile_info(m.core(0).regs.profile());
        wbits_ = info.width_bits;
        wmask_ = low_mask(wbits_);
        v7_ = info.pc_is_gpr;
        pc_slot_ = info.pc_index;
        sp_slot_ = info.sp_index;
        lr_slot_ = info.lr_index;
        has_fp_ = info.has_fp_regs;
        kern_size_ = m.mem().kern_size();
        user_size_ = m.mem().user_size();
        nprocs_ = m.config().procs;
        udata_ = m.image().udata_size;
        has_text_ = m.mem().has_text();
        text_base_ = m.mem().text_base();
        text_size_ = m.mem().text_size();
        order_.resize(faults.size());
        for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
        std::stable_sort(order_.begin(), order_.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return faults[a].at_retired < faults[b].at_retired;
                         });
    }

    bool all_resolved() const noexcept {
        return next_act_ == order_.size() && resolved_ == fs_.size();
    }

    void on_step(const Machine& m, unsigned ci, const DecodedInstr& di,
                 std::uint64_t pc, bool executed) override {
        activate_due(m);
        if (watchers_.empty() && text_watch_.empty()) return;

        // Fetch uses: a tainted PC changes which instruction runs; a fetch
        // through a tainted text-mirror record may execute a different
        // decode. Both diverge here — conservatively for text records (the
        // flipped bit might be decode-neutral, but proving that would need
        // the decoder; a few extra simulations are cheaper).
        if (auto it = watchers_.find(loc_gpr(ci, pc_slot_));
            it != watchers_.end()) {
            const std::vector<std::uint32_t> hit = it->second;
            for (std::uint32_t fi : hit) real_use(fi);
        }
        if (!text_watch_.empty() && m.image().contains_code(pc)) {
            if (auto it = text_watch_.find(m.image().instr_index(pc));
                it != text_watch_.end()) {
                const std::vector<std::uint32_t> hit = it->second;
                for (std::uint32_t fi : hit) real_use(fi);
            }
        }
        if (watchers_.empty()) return;

        // A memory op runs on the golden side once per step: its accesses
        // and writes feed both the candidate set and every transform.
        Side gold(*this, m, ci, nullptr);
        if (isa::is_mem_op(di.ins.op)) isa::eval_mem(di.ins.op, di.ins, wbits_, gold);
        collect(ci, di, gold);
        for (std::uint32_t fi : cands_)
            if (!fs_[fi].resolved) transform(m, ci, di, executed, gold, fi);
    }

    void on_trap(const Machine& m, unsigned ci, TrapCause cause) override {
        activate_due(m);
        if (watchers_.empty()) return;
        // take_trap: EPC <- pc (pc+4 for SVC), SP <-> banked SP, pc <-
        // vec_entry, cause/badaddr <- clean values. An IRQ preemption can
        // carry a tainted PC (no fetch happened this step), which the trap
        // funnels into EPC; a prefetch abort on a tainted PC is a real use
        // instead — the faulty fetch may well succeed.
        cands_.clear();
        ++stamp_;
        add_loc(loc_gpr(ci, pc_slot_));
        add_loc(loc_gpr(ci, sp_slot_));
        add_loc(loc_usp(ci));
        add_loc(loc_epc(ci));
        for (std::uint32_t fi : cands_) {
            FaultState& f = fs_[fi];
            if (f.resolved) continue;
            const std::uint64_t dpc = get(f, loc_gpr(ci, pc_slot_));
            if (dpc != 0 && cause == TrapCause::PREFETCH_ABORT) {
                real_use(fi);
                continue;
            }
            set(fi, loc_epc(ci), dpc); // pc+4 (SVC) has the same XOR diff
            set(fi, loc_gpr(ci, pc_slot_), 0);
            const std::uint64_t dsp = get(f, loc_gpr(ci, sp_slot_));
            const std::uint64_t dusp = get(f, loc_usp(ci));
            set(fi, loc_gpr(ci, sp_slot_), dusp);
            set(fi, loc_usp(ci), dsp);
        }
    }

    PruneAnalysis finish(const Machine& m) {
        // Faults struck after the last callback rest at their initial flip.
        while (next_act_ < order_.size()) activate(order_[next_act_++]);
        PruneAnalysis out;
        out.plan.resize(fs_.size());
        for (std::size_t i = 0; i < fs_.size(); ++i) {
            FaultPlan& p = out.plan[i];
            if (fs_[i].resolved) {
                p.action = FaultPlan::Action::Simulate;
                ++out.n_simulate;
            } else {
                p.action = FaultPlan::Action::Infer;
                p.outcome = classify_at_rest(m, fs_[i]);
                p.retired = m.total_retired();
                ++out.n_infer;
            }
        }
        return out;
    }

private:
    // ---- diff bookkeeping ----
    std::uint64_t get(const FaultState& f, std::uint64_t l) const {
        const auto it = f.diff.find(l);
        return it == f.diff.end() ? 0 : it->second;
    }

    void set(std::uint32_t fi, std::uint64_t l, std::uint64_t mask) {
        FaultState& f = fs_[fi];
        if (f.resolved) return;
        const auto it = f.diff.find(l);
        if (it == f.diff.end()) {
            if (mask == 0) return;
            f.diff.emplace(l, mask);
            watchers_[l].push_back(fi);
        } else if (mask == 0) {
            f.diff.erase(it);
            unwatch(l, fi);
        } else {
            it->second = mask;
        }
    }

    void unwatch(std::uint64_t l, std::uint32_t fi) {
        const auto w = watchers_.find(l);
        if (w == watchers_.end()) return;
        std::vector<std::uint32_t>& v = w->second;
        v.erase(std::remove(v.begin(), v.end(), fi), v.end());
        if (v.empty()) watchers_.erase(w);
    }

    /// The corrupted state influenced execution: the fault is simulated.
    /// Stop walking its diff.
    void real_use(std::uint32_t fi) {
        FaultState& f = fs_[fi];
        if (f.resolved) return;
        f.resolved = true;
        ++resolved_;
        for (const auto& d : f.diff) unwatch(d.first, fi);
        const FaultTarget& t = faults_[fi].target;
        if (t.kind == FaultTarget::Kind::MEM && has_text_ &&
            t.phys >= text_base_ && t.phys < text_base_ + text_size_) {
            const auto it =
                text_watch_.find((t.phys - text_base_) / isa::kTextRecordBytes);
            if (it != text_watch_.end()) {
                std::vector<std::uint32_t>& v = it->second;
                v.erase(std::remove(v.begin(), v.end(), fi), v.end());
                if (v.empty()) text_watch_.erase(it);
            }
        }
    }

    // ---- activation ----
    void activate_due(const Machine& m) {
        while (next_act_ < order_.size() &&
               faults_[order_[next_act_]].at_retired <= m.total_retired())
            activate(order_[next_act_++]);
    }

    void activate(std::uint32_t fi) {
        const FaultTarget& t = faults_[fi].target;
        switch (t.kind) {
            case FaultTarget::Kind::GPR: {
                // flip_gpr_bit masks: flipping past the width is a no-op.
                const std::uint64_t mask = (std::uint64_t{1} << t.bit) & wmask_;
                if (mask != 0) set(fi, loc_gpr(t.core, t.reg), mask);
                break;
            }
            case FaultTarget::Kind::FP:
                set(fi, loc_fp(t.core, t.reg), std::uint64_t{1} << t.bit);
                break;
            case FaultTarget::Kind::MEM:
                set(fi, loc_mem(t.phys), std::uint64_t{1} << (t.bit % 8));
                if (has_text_ && t.phys >= text_base_ &&
                    t.phys < text_base_ + text_size_)
                    text_watch_[(t.phys - text_base_) / isa::kTextRecordBytes]
                        .push_back(fi);
                break;
            case FaultTarget::Kind::CacheTag:
            case FaultTarget::Kind::CacheData:
            case FaultTarget::Kind::Bus:
                // Unreachable: orch::BatchRunner refuses uncore jobs in a
                // pruned batch — the def-use walk cannot model them.
                util::check(false, "prune: uncore fault kind in analyzer");
                break;
        }
    }

    // ---- one side of a step ----
    /// The golden machine, or the golden machine XOR one fault's diffs, as
    /// the access port of the shared memory evaluator (isa/semantics.hpp).
    /// It never mutates the machine: it records every data access and every
    /// write, and a register read sees this step's earlier writes (but for
    /// the pc: a V7 write to R15 is a jump). Loads read memory as it was
    /// before the step; no op loads what it has stored.
    struct Side {
        enum class To : std::uint8_t { Gpr, Fp, Mem };
        struct Access {
            std::uint64_t vaddr;
            unsigned size;
            bool ok;
            std::uint64_t phys;
        };
        struct Write {
            To to;
            unsigned size;      ///< bytes (Mem)
            std::uint64_t where; ///< register, or physical byte (Mem)
            std::uint64_t value;
        };

        Side(const Walker& w, const Machine& m, unsigned ci, const FaultState* f)
            : w(w), m(m), k(m.core(ci)), ci(ci), f(f) {}

        std::uint64_t diff(std::uint64_t l) const { return f ? w.get(*f, l) : 0; }
        std::uint64_t x(unsigned r) {
            if (r != w.pc_slot_)
                for (unsigned i = nwr; i-- > 0;)
                    if (wr[i].to == To::Gpr && wr[i].where == r) return wr[i].value;
            reads |= std::uint64_t{1} << r;
            return k.regs.x(r) ^ diff(loc_gpr(ci, r));
        }
        std::uint64_t v(unsigned r) {
            for (unsigned i = nwr; i-- > 0;)
                if (wr[i].to == To::Fp && wr[i].where == r) return wr[i].value;
            fp_reads |= std::uint64_t{1} << r;
            return k.regs.v_bits(r) ^ diff(loc_fp(ci, r));
        }
        void set_x(unsigned r, std::uint64_t val) {
            wr[nwr++] = {To::Gpr, 0, r, val & w.wmask_};
        }
        void set_v(unsigned r, std::uint64_t val) { wr[nwr++] = {To::Fp, 0, r, val}; }
        bool resolve(std::uint64_t vaddr, unsigned size, std::uint64_t& phys) {
            const sim::Translation t =
                m.mem().translate(vaddr, size, k.mode == Mode::KERNEL, k.curproc);
            acc[nacc++] = {vaddr, size, t.ok(), t.phys};
            phys = t.phys;
            return t.ok();
        }
        bool load(std::uint64_t vaddr, unsigned size, std::uint64_t& out) {
            std::uint64_t phys = 0;
            if (!resolve(vaddr, size, phys)) return false;
            out = m.mem().load(phys, size);
            for (unsigned b = 0; f && b < size; ++b)
                out ^= diff(loc_mem(phys + b)) << (8 * b);
            return true;
        }
        bool load_excl(std::uint64_t vaddr, unsigned size, std::uint64_t& out) {
            return load(vaddr, size, out);
        }
        bool store(std::uint64_t vaddr, unsigned size, std::uint64_t val) {
            std::uint64_t phys = 0;
            if (!resolve(vaddr, size, phys)) return false;
            wr[nwr++] = {To::Mem, size, phys, val};
            return true;
        }
        /// Reservations are never tainted: both sides hold the golden one.
        bool claim(std::uint64_t phys) const noexcept {
            return k.excl_valid && k.excl_addr == phys;
        }
        void store_excl(std::uint64_t phys, unsigned size, std::uint64_t val) {
            wr[nwr++] = {To::Mem, size, phys, val};
        }

        /// Did both sides access the same addresses? Then they took the same
        /// path and made the same writes, in the same order.
        bool same_accesses(const Side& o) const {
            if (nacc != o.nacc || nwr != o.nwr) return false;
            for (unsigned i = 0; i < nacc; ++i)
                if (acc[i].vaddr != o.acc[i].vaddr || acc[i].size != o.acc[i].size)
                    return false;
            return true;
        }

        const Walker& w;
        const Machine& m;
        const sim::CoreState& k;
        unsigned ci;
        const FaultState* f; ///< nullptr: the golden side
        std::uint64_t reads = 0, fp_reads = 0; ///< registers read, by bit
        // LDM/STM move at most 15 registers, plus LDM's writeback. Nothing
        // reads past nacc/nwr, and a Side is built on every traced memory
        // step, so the arrays are left uninitialized.
        std::array<Access, 16> acc;
        std::array<Write, 16> wr;
        unsigned nacc = 0, nwr = 0;
    };

    // ---- per-step candidate collection ----
    void add_loc(std::uint64_t l) {
        const auto it = watchers_.find(l);
        if (it == watchers_.end()) return;
        for (std::uint32_t fi : it->second) {
            if (fs_[fi].cand_stamp == stamp_) continue;
            fs_[fi].cand_stamp = stamp_;
            cands_.push_back(fi);
        }
    }
    void add_reg(unsigned ci, unsigned r) {
        if (r < 33) add_loc(loc_gpr(ci, r));
    }
    void add_fp(unsigned ci, unsigned r) {
        if (r < 32) add_loc(loc_fp(ci, r));
    }

    /// Conservative superset of the locations this step reads *or*
    /// overwrites. Over-collection is harmless — the transform of a fault
    /// whose diffs turn out irrelevant computes zero deltas and changes
    /// nothing — so candidates err on the broad side (flags always, every
    /// operand field of a non-memory op even when the op ignores it). A
    /// memory op contributes exactly what its golden side read, wrote and
    /// accessed: a fault that moves its addresses must taint a register the
    /// golden side read.
    void collect(unsigned ci, const DecodedInstr& di, const Side& gold) {
        cands_.clear();
        ++stamp_;
        const Instr& ins = di.ins;
        add_loc(loc_flags(ci));
        if (isa::is_mem_op(ins.op)) {
            for (std::uint64_t b = gold.reads; b != 0; b &= b - 1)
                add_reg(ci, util::ctz64(b));
            for (std::uint64_t b = gold.fp_reads; b != 0; b &= b - 1)
                add_fp(ci, util::ctz64(b));
            for (unsigned i = 0; i < gold.nacc; ++i)
                if (gold.acc[i].ok)
                    for (unsigned b = 0; b < gold.acc[i].size; ++b)
                        add_loc(loc_mem(gold.acc[i].phys + b));
            for (unsigned i = 0; i < gold.nwr; ++i) {
                const Side::Write& wr = gold.wr[i];
                if (wr.to == Side::To::Gpr) add_reg(ci, static_cast<unsigned>(wr.where));
                if (wr.to == Side::To::Fp) add_fp(ci, static_cast<unsigned>(wr.where));
            }
            return;
        }
        add_reg(ci, ins.rd);
        add_reg(ci, ins.rn);
        add_reg(ci, ins.rm);
        add_reg(ci, ins.ra);
        if (has_fp_ && isa::is_fp_data(ins.op)) {
            add_fp(ci, ins.rd);
            add_fp(ci, ins.rn);
            add_fp(ci, ins.rm);
            add_fp(ci, ins.ra);
        }
        switch (ins.op) {
            case Op::BL:
            case Op::BLR:
            case Op::RET:
                add_reg(ci, lr_slot_);
                break;
            case Op::SYSRD:
            case Op::SYSWR:
                add_loc(loc_epc(ci));
                add_loc(loc_usp(ci));
                add_loc(loc_tls(ci));
                break;
            case Op::ERET:
                add_loc(loc_epc(ci));
                add_loc(loc_usp(ci));
                add_reg(ci, sp_slot_);
                break;
            default:
                break;
        }
    }

    // ---- the exact diff transform ----
    // Golden pre-step state plus this fault's diff map IS the faulty
    // machine. Every data and memory op runs the engine's own evaluators
    // (isa/semantics.hpp) once per side, and the XOR of what the two sides
    // write becomes the new diff; a memory op whose two sides access
    // different addresses diverges. What remains here is control transfer,
    // ERET and the trap bookkeeping, and the system registers: which diff
    // location backs each one and the behavioral and device classes of a
    // write (their permissions come from isa::kSysRegAccess). Divergence
    // points — addresses, branch decisions, jump targets, behavioral sysreg
    // writes — end the walk via real_use().
    void transform(const Machine& m, unsigned ci, const DecodedInstr& di,
                   bool executed, const Side& gold, std::uint32_t fi) {
        FaultState& f = fs_[fi];
        const sim::CoreState& k = m.core(ci);
        const Instr& ins = di.ins;

        const auto gx = [&](unsigned r) { return k.regs.x(r); };
        const auto dx = [&](unsigned r) { return get(f, loc_gpr(ci, r)); };
        const auto fx = [&](unsigned r) { return gx(r) ^ dx(r); };
        const auto gv = [&](unsigned r) { return k.regs.v_bits(r); };
        const auto fv = [&](unsigned r) { return gv(r) ^ get(f, loc_fp(ci, r)); };
        const auto setx = [&](unsigned r, std::uint64_t dmask) {
            dmask &= wmask_;
            if (v7_ && r == 15) {
                // write_gpr to R15 is a jump; a differing value is a
                // divergent target, an equal one leaves PC clean.
                if (dmask != 0) real_use(fi);
                return;
            }
            set(fi, loc_gpr(ci, r), dmask);
        };

        const Flags gflags = k.regs.flags();
        const std::uint64_t dflags = get(f, loc_flags(ci)) & 0xF;
        const Flags fflags = Flags::unpack(gflags.pack() ^ dflags);
        const auto set_flags_diff = [&](std::uint64_t nibble) {
            set(fi, loc_flags(ci), nibble & 0xF);
        };
        const auto eval_int = [&](auto rx, Flags fl, DataEffect& e) {
            return isa::eval_int_data(ins.op, ins, wbits_, rx, fl, e);
        };

        // V7 predicate: a shared skip leaves all state untouched. A decision
        // flip on a pure integer data op is still a pure data event — the pc
        // stream and tick cost are identical whether the op executes or
        // retires as a bubble, so only the destination/flags differ and the
        // executing side's result is exactly computable. A flip on anything
        // else (memory, control transfer, system) diverges; FP ops never
        // qualify (they are V8-only and FDIV/FSQRT's cost is not flat).
        if (di.check_cond) {
            const bool fexec = isa::cond_holds(ins.cond, fflags);
            if (fexec != executed) {
                DataEffect e;
                const bool pure = executed ? eval_int(gx, gflags, e)
                                           : eval_int(fx, fflags, e);
                if (!pure) {
                    real_use(fi);
                    return;
                }
                // V7 write to R15 is a jump: one side takes it, the other
                // falls through — control divergence unless the target IS
                // the fall-through address.
                if (v7_ && ((e.wr_rd && ins.rd == 15) || (e.wr_ra && ins.ra == 15))) {
                    const std::uint64_t tgt = e.wr_ra && ins.ra == 15 ? e.ra : e.rd;
                    if (((tgt ^ (gx(15) + 4)) & wmask_) != 0) {
                        real_use(fi);
                        return;
                    }
                    if (ins.rd == 15) e.wr_rd = false;
                    if (ins.ra == 15) e.wr_ra = false;
                }
                // diff_post = golden_post ^ faulty_post; the skipping side
                // keeps its pre-step value. Capture pre-diffs before any set.
                const std::uint64_t nd_rd =
                    e.wr_rd ? e.rd ^ gx(ins.rd) ^ (executed ? dx(ins.rd) : 0) : 0;
                const std::uint64_t nd_ra =
                    e.wr_ra ? e.ra ^ gx(ins.ra) ^ (executed ? dx(ins.ra) : 0) : 0;
                if (e.wr_rd) setx(ins.rd, nd_rd);
                if (e.wr_ra) setx(ins.ra, nd_ra);
                if (e.wr_flags)
                    set_flags_diff(executed ? e.flags.pack() ^ gflags.pack() ^ dflags
                                            : gflags.pack() ^ e.flags.pack());
                return;
            }
            if (!executed) return;
        }

        // Both runs execute: a data op evaluates once per side.
        {
            DataEffect eg;
            if (isa::eval_data(ins.op, ins, wbits_, gx, gv, gflags, eg)) {
                DataEffect ef;
                isa::eval_data(ins.op, ins, wbits_, fx, fv, fflags, ef);
                if (eg.wr_rd) setx(ins.rd, eg.rd ^ ef.rd);
                if (eg.wr_ra) setx(ins.ra, eg.ra ^ ef.ra);
                if (eg.wr_vd) set(fi, loc_fp(ci, ins.rd), eg.vd ^ ef.vd);
                if (eg.wr_flags) set_flags_diff(eg.flags.pack() ^ ef.flags.pack());
                return;
            }
        }

        // A memory op's golden side ran once for the step (on_step).
        if (isa::is_mem_op(ins.op)) {
            Side faulty(*this, m, ci, &f);
            isa::eval_mem(ins.op, ins, wbits_, faulty);
            if (!gold.same_accesses(faulty)) {
                real_use(fi);
                return;
            }
            for (unsigned i = 0; i < gold.nwr; ++i) {
                const Side::Write& w = gold.wr[i];
                const std::uint64_t d = w.value ^ faulty.wr[i].value;
                const unsigned r = static_cast<unsigned>(w.where);
                switch (w.to) {
                    case Side::To::Gpr: setx(r, d); break;
                    case Side::To::Fp: set(fi, loc_fp(ci, r), d); break;
                    case Side::To::Mem:
                        for (unsigned b = 0; b < w.size; ++b)
                            set(fi, loc_mem(w.where + b), (d >> (8 * b)) & 0xFF);
                        break;
                }
            }
            return;
        }

        switch (ins.op) {
            // ---- branches ----
            case Op::BCOND:
                if (isa::cond_holds(ins.cond, gflags) !=
                    isa::cond_holds(ins.cond, fflags))
                    real_use(fi);
                break;
            case Op::BL:
                set(fi, loc_gpr(ci, lr_slot_), 0); // pc+4 is clean
                break;
            case Op::BLR:
                if (dx(ins.rn) != 0) {
                    real_use(fi);
                    break;
                }
                set(fi, loc_gpr(ci, lr_slot_), 0);
                break;
            case Op::BR:
                if (dx(ins.rn) != 0) real_use(fi);
                break;
            case Op::RET:
                if (get(f, loc_gpr(ci, lr_slot_)) != 0) real_use(fi);
                break;
            case Op::CBZ:
            case Op::CBNZ:
                if ((gx(ins.rn) == 0) != (fx(ins.rn) == 0)) real_use(fi);
                break;

            // ---- system ----
            case Op::SYSRD: {
                // A read the table refuses takes UNDEF in both runs and
                // writes nothing.
                const SysReg sr = static_cast<SysReg>(ins.imm);
                if (!isa::sysreg_readable(sr, k.mode == Mode::KERNEL)) break;
                const std::uint64_t l = sysreg_loc(ci, sr);
                setx(ins.rd, l == 0 ? 0 : get(f, l));
                break;
            }
            case Op::SYSWR: {
                const SysReg sr = static_cast<SysReg>(ins.imm);
                if (!isa::sysreg_writable(sr, k.mode == Mode::KERNEL)) break;
                const std::uint64_t dv = dx(ins.rn);
                if (const std::uint64_t l = sysreg_loc(ci, sr)) {
                    set(fi, l, l == loc_flags(ci) ? dv & 0xF : dv);
                    break;
                }
                switch (sr) {
                    case SysReg::CONSOLE:
                        // append-only device; classification only ever asks
                        // *whether* output differs, so one byte latches
                        if ((dv & 0xFF) != 0) f.output_differs = true;
                        break;
                    case SysReg::SHUTDOWN:
                        f.shutdown_xor = static_cast<unsigned>(dv & 0xFF);
                        break;
                    case SysReg::PROC_EXIT: {
                        if ((dv >> 8) != 0) { // a *different* process exits
                            real_use(fi);
                            break;
                        }
                        const std::uint64_t proc = gx(ins.rn) >> 8;
                        if (proc >= nprocs_) break; // UNDEF in both runs
                        const unsigned x = static_cast<unsigned>(dv & 0xFF);
                        if (x == 0)
                            f.proc_xor.erase(static_cast<unsigned>(proc));
                        else
                            f.proc_xor[static_cast<unsigned>(proc)] = x;
                        break;
                    }
                    default:
                        // TIMER, IPI_SEND, MAP_BRK, CURPROC: a tainted value
                        // changes timing, scheduling, address translation or
                        // the address space — behavioral divergence.
                        if (dv != 0) real_use(fi);
                        break;
                }
                break;
            }
            case Op::ERET: {
                if (k.mode != Mode::KERNEL) break; // UNDEF in both runs
                // SP and the banked user SP swap; the diffs ride along.
                const std::uint64_t dsp = get(f, loc_gpr(ci, sp_slot_));
                const std::uint64_t dusp = get(f, loc_usp(ci));
                set(fi, loc_gpr(ci, sp_slot_), dusp);
                set(fi, loc_usp(ci), dsp);
                if (get(f, loc_epc(ci)) != 0) real_use(fi); // jump target
                break;
            }
            default:
                // B (an immediate target), SVC (the trap transform runs via
                // on_trap), WFI, HLT, NOP, UDF: control or trap only, no
                // tainted data can flow.
                break;
        }
    }

    /// The diff location that holds a system register's state, or 0 for
    /// one whose value is the same in both runs: CORE_ID, INSTRET and NCORES
    /// are never tainted, and a tainted TIMER or CURPROC write or a diverging
    /// trap (CAUSE, BADADDR) ends the walk before it can be read.
    std::uint64_t sysreg_loc(unsigned ci, SysReg sr) const noexcept {
        switch (sr) {
            case SysReg::EPC: return loc_epc(ci);
            case SysReg::USP: return loc_usp(ci);
            case SysReg::TLS: return loc_tls(ci);
            case SysReg::FLAGS: return loc_flags(ci);
            default: return 0;
        }
    }

    // ---- end-of-run classification ----
    /// core::classify() transcribed onto a sparse diff: the faulty run had
    /// bit-identical control flow, so status, retire count and everything
    /// not under a diff equal the golden run's.
    Outcome classify_at_rest(const Machine& m, const FaultState& f) const {
        // abnormal termination (per-proc exit codes are faulty = golden ^ x)
        for (unsigned p = 0; p < nprocs_; ++p) {
            const auto it = f.proc_xor.find(p);
            const int x = it == f.proc_xor.end() ? 0 : static_cast<int>(it->second);
            if ((m.proc_exit_code(p) ^ x) != 0) return Outcome::UT;
        }
        if (f.shutdown_xor != 0) return Outcome::UT;
        // silent data corruption: console output or static data regions
        if (f.output_differs) return Outcome::OMM;
        const std::uint64_t user_bytes = std::uint64_t{nprocs_} * user_size_;
        for (const auto& d : f.diff) {
            if (loc_kind(d.first) != kLMem) continue;
            const std::uint64_t phys = loc_byte(d.first);
            if (phys < kern_size_ || phys >= kern_size_ + user_bytes) continue;
            if ((phys - kern_size_) % user_size_ < udata_) return Outcome::OMM;
        }
        // architectural traces: register files or the kernel region
        for (const auto& d : f.diff) {
            const std::uint64_t kind = loc_kind(d.first);
            if (kind == kLGpr || kind == kLFlags) return Outcome::ONA;
            if (kind == kLFp && has_fp_) return Outcome::ONA;
            if (kind == kLMem && loc_byte(d.first) < kern_size_)
                return Outcome::ONA;
        }
        // survivors: EPC/USP/TLS, unhashed user bytes, the text mirror
        return Outcome::Vanished;
    }

    const std::vector<Fault>& faults_;
    std::vector<FaultState> fs_;
    std::vector<std::uint32_t> order_; ///< fault indices by at_retired
    std::size_t next_act_ = 0;
    std::size_t resolved_ = 0;
    std::uint64_t stamp_ = 0; ///< candidate-dedup generation
    std::vector<std::uint32_t> cands_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> watchers_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> text_watch_;

    unsigned wbits_ = 0;
    std::uint64_t wmask_ = 0;
    bool v7_ = false;
    unsigned pc_slot_ = 0, sp_slot_ = 0, lr_slot_ = 0;
    bool has_fp_ = false;
    std::uint64_t kern_size_ = 0, user_size_ = 0, udata_ = 0;
    unsigned nprocs_ = 0;
    bool has_text_ = false;
    std::uint64_t text_base_ = 0, text_size_ = 0;
};

} // namespace

PruneAnalysis analyze(const npb::Scenario& s, sim::Engine engine,
                      const std::vector<core::Fault>& faults) {
    telemetry::Span span("prune.replay:" + s.name());
    Machine m = npb::make_machine(s, false);
    m.set_engine(engine);
    Walker w(m, faults);
    m.set_step_observer(&w);
    // Chunked so the walk can stop as soon as every fault is resolved.
    while (m.status() == sim::RunStatus::Running && !w.all_resolved())
        m.run_until(m.total_retired() + (std::uint64_t{1} << 22));
    m.set_step_observer(nullptr);
    util::check(w.all_resolved() || m.status() == sim::RunStatus::Shutdown,
                "prune: golden replay did not terminate cleanly for " + s.name());
    if (telemetry::enabled()) {
        static const telemetry::MetricId kSteps =
            telemetry::counter_id("engine.steps");
        telemetry::count(kSteps, m.total_retired());
    }
    return w.finish(m);
}

} // namespace serep::prune
