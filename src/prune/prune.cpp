#include "prune/prune.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/alu.hpp"
#include "isa/encode.hpp"
#include "isa/flags.hpp"
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

        collect(m, ci, di);
        for (std::uint32_t fi : cands_)
            if (!fs_[fi].resolved) transform(m, ci, di, executed, fi);
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
    void add_mem_range(const Machine& m, const sim::CoreState& k,
                       std::uint64_t vaddr, unsigned size) {
        const sim::Translation t =
            m.mem().translate(vaddr, size, k.mode == Mode::KERNEL, k.curproc);
        if (!t.ok()) return;
        for (unsigned i = 0; i < size; ++i) add_loc(loc_mem(t.phys + i));
    }

    std::uint64_t golden_addr_of(const sim::CoreState& k, const Instr& ins) const {
        const std::uint64_t off = ins.rm != isa::kNoReg
                                      ? (k.regs.x(ins.rm) << ins.shift)
                                      : static_cast<std::uint64_t>(ins.imm);
        return (k.regs.x(ins.rn) + off) & wmask_;
    }

    /// Conservative superset of the locations this step reads *or*
    /// overwrites. Over-collection is harmless — the transform of a fault
    /// whose diffs turn out irrelevant computes zero deltas and changes
    /// nothing — so candidates err on the broad side (flags always, every
    /// operand field even when the op ignores it).
    void collect(const Machine& m, unsigned ci, const DecodedInstr& di) {
        cands_.clear();
        ++stamp_;
        const Instr& ins = di.ins;
        const sim::CoreState& k = m.core(ci);
        add_reg(ci, ins.rd);
        add_reg(ci, ins.rn);
        add_reg(ci, ins.rm);
        add_reg(ci, ins.ra);
        add_loc(loc_flags(ci));
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
            case Op::LDR:
            case Op::STR:
            case Op::LDRW:
            case Op::STRW:
            case Op::LDRB:
            case Op::STRB:
                add_mem_range(m, k, golden_addr_of(k, ins), di.mem_size);
                break;
            case Op::FLDR:
            case Op::FSTR:
                add_fp(ci, ins.rd);
                add_mem_range(m, k, golden_addr_of(k, ins), 8);
                break;
            case Op::LDP:
            case Op::STP: {
                const std::uint64_t a = golden_addr_of(k, ins);
                add_mem_range(m, k, a, 8);
                add_mem_range(m, k, a + 8, 8);
                break;
            }
            case Op::LDM:
            case Op::STM: {
                const std::uint64_t a = k.regs.x(ins.rn) & wmask_;
                unsigned n = 0;
                for (unsigned r = 0; r < 15; ++r) {
                    if (!(ins.regmask & (1u << r))) continue;
                    add_reg(ci, r); // STM source / LDM overwritten dest
                    add_mem_range(m, k, a + 4 * n, 4);
                    ++n;
                }
                break;
            }
            case Op::LDREX:
            case Op::STREX:
                add_mem_range(m, k, k.regs.x(ins.rn) & wmask_, di.mem_size);
                break;
            default:
                break;
        }
        if (has_fp_) {
            switch (ins.op) {
                case Op::FADD:
                case Op::FSUB:
                case Op::FMUL:
                case Op::FDIV:
                case Op::FSQRT:
                case Op::FNEG:
                case Op::FABS:
                case Op::FMADD:
                case Op::FMOV:
                case Op::FMOVI:
                case Op::FCMP:
                case Op::FCVTZS:
                case Op::SCVTF:
                case Op::FMOVVX:
                case Op::FMOVXV:
                    add_fp(ci, ins.rd);
                    add_fp(ci, ins.rn);
                    add_fp(ci, ins.rm);
                    add_fp(ci, ins.ra);
                    break;
                default:
                    break;
            }
        }
    }

    // ---- the exact diff transform ----
    // Golden pre-step state plus this fault's diff map IS the faulty
    // machine; every case below computes `golden_result ^ faulty_result`.
    // Integer data ops and the FCMP/FCVTZS primitives run the engines' own
    // code (isa/alu.hpp), so they cannot drift. Only the memory, FP and
    // system cases below remain prune-side transcriptions of the handlers
    // in sim/exec_ops.cpp: a semantic change there must be mirrored here,
    // and prune_test's inferred-vs-simulated identity check is the
    // tripwire. Divergence points — addresses, branch decisions, jump
    // targets, behavioral sysreg writes — end the walk via real_use().
    void transform(const Machine& m, unsigned ci, const DecodedInstr& di,
                   bool executed, std::uint32_t fi) {
        FaultState& f = fs_[fi];
        const sim::CoreState& k = m.core(ci);
        const Instr& ins = di.ins;

        const auto gx = [&](unsigned r) { return k.regs.x(r); };
        const auto dx = [&](unsigned r) { return get(f, loc_gpr(ci, r)); };
        const auto fx = [&](unsigned r) { return gx(r) ^ dx(r); };
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
        // The engines' integer evaluator (isa/alu.hpp), once per reader.
        const auto eval_int = [&](auto rx, Flags fl, DataEffect& e) {
            return isa::eval_int_data(ins.op, ins, wbits_, rx, fl, e);
        };

        // V7 predicate: a shared skip leaves all state untouched. A decision
        // flip on a pure integer data op is still a pure data event — the pc
        // stream and tick cost are identical whether the op executes or
        // retires as a bubble, so only the destination/flags differ and the
        // executing side's result is exactly computable. A flip on anything
        // else (memory, control transfer, system) diverges.
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

        // Both runs execute: integer data ops evaluate once per side.
        {
            DataEffect eg;
            if (eval_int(gx, gflags, eg)) {
                DataEffect ef;
                eval_int(fx, fflags, ef);
                if (eg.wr_rd) setx(ins.rd, eg.rd ^ ef.rd);
                if (eg.wr_ra) setx(ins.ra, eg.ra ^ ef.ra);
                if (eg.wr_flags) set_flags_diff(eg.flags.pack() ^ ef.flags.pack());
                return;
            }
        }

        const auto gvb = [&](unsigned r) { return k.regs.v_bits(r); };
        const auto dvb = [&](unsigned r) { return get(f, loc_fp(ci, r)); };
        const auto fvb = [&](unsigned r) { return gvb(r) ^ dvb(r); };
        const auto gvd = [&](unsigned r) { return util::bits_f64(gvb(r)); };
        const auto fvd = [&](unsigned r) { return util::bits_f64(fvb(r)); };
        const auto setv = [&](unsigned r, std::uint64_t dmask) {
            set(fi, loc_fp(ci, r), dmask);
        };
        const auto fp2 = [&](double g, double fv) {
            setv(ins.rd, util::f64_bits(g) ^ util::f64_bits(fv));
        };

        const auto xlate = [&](std::uint64_t vaddr, unsigned size,
                               std::uint64_t& phys) {
            const sim::Translation t = m.mem().translate(
                vaddr, size, k.mode == Mode::KERNEL, k.curproc);
            phys = t.phys;
            return t.ok();
        };
        const auto mem_diff = [&](std::uint64_t phys, unsigned size) {
            std::uint64_t d = 0;
            for (unsigned i = 0; i < size; ++i)
                d |= get(f, loc_mem(phys + i)) << (8 * i);
            return d;
        };
        const auto store_diff = [&](std::uint64_t phys, unsigned size,
                                    std::uint64_t d) {
            for (unsigned i = 0; i < size; ++i)
                set(fi, loc_mem(phys + i), (d >> (8 * i)) & 0xFF);
        };
        // addr_of both ways, exactly: base and offset taints may cancel.
        std::uint64_t ag = 0, af = 0;
        const auto addr_diverges = [&]() {
            const std::uint64_t offg = ins.rm != isa::kNoReg
                                           ? (gx(ins.rm) << ins.shift)
                                           : static_cast<std::uint64_t>(ins.imm);
            const std::uint64_t offf = ins.rm != isa::kNoReg
                                           ? (fx(ins.rm) << ins.shift)
                                           : static_cast<std::uint64_t>(ins.imm);
            ag = (gx(ins.rn) + offg) & wmask_;
            af = (fx(ins.rn) + offf) & wmask_;
            if (ag != af) {
                real_use(fi);
                return true;
            }
            return false;
        };

        switch (ins.op) {
            // ---- branches ----
            case Op::B: break; // immediate target, clean either way
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

            // ---- memory ----
            case Op::LDR:
            case Op::LDRW:
            case Op::LDRB: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, di.mem_size, phys)) break; // aborts in both runs
                setx(ins.rd, mem_diff(phys, di.mem_size));
                break;
            }
            case Op::STR: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, di.mem_size, phys)) break;
                store_diff(phys, di.mem_size, dx(ins.rd));
                break;
            }
            case Op::STRW: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, 4, phys)) break;
                store_diff(phys, 4, dx(ins.rd) & 0xFFFFFFFFu);
                break;
            }
            case Op::STRB: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, 1, phys)) break;
                store_diff(phys, 1, dx(ins.rd) & 0xFF);
                break;
            }
            case Op::LDM: {
                if (dx(ins.rn) != 0) { // a = x(rn) & mask: any taint diverges
                    real_use(fi);
                    break;
                }
                const std::uint64_t a = gx(ins.rn) & wmask_;
                std::uint64_t rn_g = gx(ins.rn), rn_d = 0;
                unsigned n = 0;
                bool aborted = false;
                for (unsigned r = 0; r < 15; ++r) {
                    if (!(ins.regmask & (1u << r))) continue;
                    std::uint64_t phys;
                    if (!xlate(a + 4 * n, 4, phys)) {
                        aborted = true;
                        break;
                    }
                    const std::uint64_t vd = mem_diff(phys, 4);
                    setx(r, vd);
                    if (r == ins.rn) { // writeback reads the loaded value
                        rn_g = m.mem().load(phys, 4);
                        rn_d = vd;
                    }
                    ++n;
                }
                if (!aborted && ins.wb)
                    setx(ins.rn, ((rn_g + 4 * n) & wmask_) ^
                                     (((rn_g ^ rn_d) + 4 * n) & wmask_));
                break;
            }
            case Op::STM: {
                if (dx(ins.rn) != 0) {
                    real_use(fi);
                    break;
                }
                const std::uint64_t a = gx(ins.rn) & wmask_;
                unsigned n = 0;
                bool aborted = false;
                for (unsigned r = 0; r < 15; ++r) {
                    if (!(ins.regmask & (1u << r))) continue;
                    std::uint64_t phys;
                    if (!xlate(a + 4 * n, 4, phys)) {
                        aborted = true;
                        break;
                    }
                    store_diff(phys, 4, dx(r) & 0xFFFFFFFFu);
                    ++n;
                }
                if (!aborted && ins.wb) setx(ins.rn, 0); // rn is clean here
                break;
            }
            case Op::LDP: {
                if (addr_diverges()) break;
                std::uint64_t p1, p2;
                if (!xlate(ag, 8, p1) || !xlate(ag + 8, 8, p2)) break;
                const std::uint64_t d1 = mem_diff(p1, 8);
                const std::uint64_t d2 = mem_diff(p2, 8);
                setx(ins.rd, d1);
                setx(ins.ra, d2);
                break;
            }
            case Op::STP: {
                if (addr_diverges()) break;
                std::uint64_t p1, p2;
                if (!xlate(ag, 8, p1)) break;
                store_diff(p1, 8, dx(ins.rd)); // first store commits even if
                if (!xlate(ag + 8, 8, p2)) break; // the second one faults
                store_diff(p2, 8, dx(ins.ra));
                break;
            }
            case Op::LDREX: {
                if (dx(ins.rn) != 0) {
                    real_use(fi);
                    break;
                }
                std::uint64_t phys;
                if (!xlate(gx(ins.rn) & wmask_, di.mem_size, phys)) break;
                setx(ins.rd, mem_diff(phys, di.mem_size));
                break;
            }
            case Op::STREX: {
                if (dx(ins.rn) != 0) {
                    real_use(fi);
                    break;
                }
                std::uint64_t phys;
                if (!xlate(gx(ins.rn) & wmask_, di.mem_size, phys)) break;
                // identical reservation state in both runs: same branch
                if (k.excl_valid && k.excl_addr == phys)
                    store_diff(phys, di.mem_size, dx(ins.rm));
                setx(ins.rd, 0); // 0/1 success flag, identical
                break;
            }

            // ---- floating point ----
            case Op::FADD: fp2(gvd(ins.rn) + gvd(ins.rm), fvd(ins.rn) + fvd(ins.rm)); break;
            case Op::FSUB: fp2(gvd(ins.rn) - gvd(ins.rm), fvd(ins.rn) - fvd(ins.rm)); break;
            case Op::FMUL: fp2(gvd(ins.rn) * gvd(ins.rm), fvd(ins.rn) * fvd(ins.rm)); break;
            case Op::FDIV: fp2(gvd(ins.rn) / gvd(ins.rm), fvd(ins.rn) / fvd(ins.rm)); break;
            case Op::FSQRT: fp2(std::sqrt(gvd(ins.rn)), std::sqrt(fvd(ins.rn))); break;
            case Op::FNEG: fp2(-gvd(ins.rn), -fvd(ins.rn)); break;
            case Op::FABS: fp2(std::fabs(gvd(ins.rn)), std::fabs(fvd(ins.rn))); break;
            case Op::FMADD:
                fp2(std::fma(gvd(ins.rn), gvd(ins.rm), gvd(ins.ra)),
                    std::fma(fvd(ins.rn), fvd(ins.rm), fvd(ins.ra)));
                break;
            case Op::FMOV: setv(ins.rd, dvb(ins.rn)); break; // raw bit copy
            case Op::FMOVI: setv(ins.rd, 0); break;
            case Op::FCMP:
                set_flags_diff(isa::fcmp_flags(gvd(ins.rn), gvd(ins.rm)).pack() ^
                               isa::fcmp_flags(fvd(ins.rn), fvd(ins.rm)).pack());
                break;
            case Op::FCVTZS:
                setx(ins.rd,
                     static_cast<std::uint64_t>(isa::fcvtzs_result(gvd(ins.rn))) ^
                         static_cast<std::uint64_t>(isa::fcvtzs_result(fvd(ins.rn))));
                break;
            case Op::SCVTF:
                fp2(static_cast<double>(static_cast<std::int64_t>(gx(ins.rn))),
                    static_cast<double>(static_cast<std::int64_t>(fx(ins.rn))));
                break;
            case Op::FMOVVX: setx(ins.rd, dvb(ins.rn)); break;
            case Op::FMOVXV: setv(ins.rd, dx(ins.rn)); break;
            case Op::FLDR: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, 8, phys)) break;
                setv(ins.rd, mem_diff(phys, 8));
                break;
            }
            case Op::FSTR: {
                if (addr_diverges()) break;
                std::uint64_t phys;
                if (!xlate(ag, 8, phys)) break;
                store_diff(phys, 8, dvb(ins.rd));
                break;
            }

            // ---- system ----
            case Op::SVC:
                break; // pure control; the trap transform runs via on_trap
            case Op::SYSRD: {
                // Mirror sysreg_read's permission matrix: a privileged read
                // from user mode takes UNDEF in both runs and writes nothing.
                const bool kernel = k.mode == Mode::KERNEL;
                switch (static_cast<SysReg>(ins.imm)) {
                    case SysReg::CORE_ID:
                    case SysReg::INSTRET:
                    case SysReg::NCORES: setx(ins.rd, 0); break;
                    case SysReg::TLS: setx(ins.rd, get(f, loc_tls(ci))); break;
                    case SysReg::TIMER:
                    case SysReg::CAUSE:
                    case SysReg::BADADDR:
                    case SysReg::CURPROC:
                        if (kernel) setx(ins.rd, 0);
                        break;
                    case SysReg::EPC:
                        if (kernel) setx(ins.rd, get(f, loc_epc(ci)));
                        break;
                    case SysReg::USP:
                        if (kernel) setx(ins.rd, get(f, loc_usp(ci)));
                        break;
                    case SysReg::FLAGS:
                        if (kernel) setx(ins.rd, dflags);
                        break;
                    default: break; // UNDEF in both runs
                }
                break;
            }
            case Op::SYSWR: {
                if (k.mode != Mode::KERNEL) break; // UNDEF in both runs
                const std::uint64_t dv = dx(ins.rn);
                const std::uint64_t vg = gx(ins.rn);
                switch (static_cast<SysReg>(ins.imm)) {
                    // Writes that change timing, scheduling, address
                    // translation or the address space: a tainted value is
                    // behavioral divergence.
                    case SysReg::TIMER:
                    case SysReg::IPI_SEND:
                    case SysReg::MAP_BRK:
                    case SysReg::CURPROC:
                        if (dv != 0) real_use(fi);
                        break;
                    case SysReg::EPC: set(fi, loc_epc(ci), dv); break;
                    case SysReg::USP: set(fi, loc_usp(ci), dv); break;
                    case SysReg::TLS: set(fi, loc_tls(ci), dv); break;
                    case SysReg::FLAGS: set_flags_diff(dv & 0xF); break;
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
                        const std::uint64_t proc = vg >> 8;
                        if (proc >= nprocs_) break; // UNDEF in both runs
                        const unsigned x = static_cast<unsigned>(dv & 0xFF);
                        if (x == 0)
                            f.proc_xor.erase(static_cast<unsigned>(proc));
                        else
                            f.proc_xor[static_cast<unsigned>(proc)] = x;
                        break;
                    }
                    default: break; // UNDEF in both runs
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
            case Op::WFI:
            case Op::HLT:
            case Op::NOP:
            case Op::UDF:
                break; // control / trap only; no tainted data can flow
            default:
                break; // integer data ops: handled exactly by eval_int_data
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
