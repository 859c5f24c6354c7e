#include "sim/exec_cache.hpp"

#include <algorithm>
#include <mutex>

#include "isa/op.hpp"
#include "sim/exec_ops.hpp"

namespace serep::sim {

DecodedInstr ExecCache::make_decoded(const isa::Instr& ins, isa::Profile p,
                                     bool user_ok) noexcept {
    DecodedInstr d;
    d.ins = ins;
    d.fn = exec_handler(ins.op);
    d.user_ok = user_ok;
    d.check_cond = p == isa::Profile::V7 && ins.cond != isa::Cond::AL &&
                   ins.op != isa::Op::BCOND;
    const isa::OpInfo& oi = isa::op_info(ins.op);
    d.cflags = static_cast<std::uint8_t>((oi.is_branch ? kDiBranch : 0) |
                                         (oi.is_call ? kDiCall : 0));
    return d;
}

void ExecCache::decode_records(const std::uint8_t* bytes, std::size_t count,
                               isa::Profile p, std::uint64_t first_addr,
                               std::uint64_t kernel_text_end,
                               DecodedInstr* out) noexcept {
    for (std::size_t i = 0; i < count; ++i) {
        const isa::Instr ins =
            isa::decode_instr(bytes + i * isa::kTextRecordBytes, p);
        const std::uint64_t addr = first_addr + i * isa::kInstrBytes;
        out[i] = make_decoded(ins, p, addr >= kernel_text_end);
    }
}

bool ExecCache::trace_ender(const isa::Instr& ins, isa::Profile p) noexcept {
    switch (ins.op) {
        // Control transfers (everything with OpInfo::is_branch).
        case isa::Op::B:
        case isa::Op::BCOND:
        case isa::Op::BL:
        case isa::Op::BLR:
        case isa::Op::BR:
        case isa::Op::RET:
        case isa::Op::CBZ:
        case isa::Op::CBNZ:
        // System ops: redirect control (SVC/ERET), change the runnable set
        // (WFI/HLT), or reach machine-wide state (SYSRD/SYSWR — IPI_SEND,
        // SHUTDOWN, TIMER writes). All rare; single-stepping them is free.
        case isa::Op::SVC:
        case isa::Op::SYSRD:
        case isa::Op::SYSWR:
        case isa::Op::ERET:
        case isa::Op::WFI:
        case isa::Op::HLT:
        case isa::Op::UDF: return true;
        default: break;
    }
    if (p == isa::Profile::V7) {
        // write_gpr(15) is a jump on V7. rd/ra of 15 covers every explicit
        // destination (LDM never loads r15: its register loop stops at r14);
        // writeback with rn == 15 covers the LDM/STM base update.
        if (ins.rd == 15 || ins.ra == 15) return true;
        if (ins.wb && ins.rn == 15) return true;
    }
    return false;
}

ExecCache::ExecCache(const kasm::Image& img) {
    instrs_.reserve(img.code.size());
    for (std::size_t i = 0; i < img.code.size(); ++i) {
        const std::uint64_t addr = img.code_base + i * isa::kInstrBytes;
        instrs_.push_back(
            make_decoded(img.code[i], img.profile, addr >= img.kernel_text_end));
    }
    // Superblock run lengths, computed backward: a non-ender extends the run
    // that starts right after it, clipped at text-mirror page boundaries so
    // the Machine's copy-on-write overlay check stays one page lookup per
    // trace (kTextRecordsPerPage = 128, so lengths fit comfortably).
    const std::size_t n = instrs_.size();
    runs_.assign(n, 0);
    for (std::size_t i = n; i-- > 0;) {
        if (trace_ender(instrs_[i].ins, img.profile)) continue;
        const bool page_end = (i + 1) % isa::kTextRecordsPerPage == 0;
        const std::uint32_t next = (i + 1 < n && !page_end) ? runs_[i + 1] : 0;
        runs_[i] = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(next + 1, 0xFFFF));
    }
}

std::shared_ptr<const ExecCache> ExecCache::for_image(
    const std::shared_ptr<const kasm::Image>& img) {
    struct Entry {
        std::weak_ptr<const kasm::Image> image;
        std::weak_ptr<const ExecCache> cache;
    };
    static std::mutex mu;
    static std::vector<Entry> registry;

    std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < registry.size();) {
        const std::shared_ptr<const kasm::Image> held = registry[i].image.lock();
        if (!held) {
            registry[i] = registry.back();
            registry.pop_back();
            continue;
        }
        if (held == img) {
            if (auto c = registry[i].cache.lock()) return c;
            std::shared_ptr<const ExecCache> rebuilt(new ExecCache(*img));
            registry[i].cache = rebuilt;
            return rebuilt;
        }
        ++i;
    }
    std::shared_ptr<const ExecCache> built(new ExecCache(*img));
    registry.push_back({img, built});
    return built;
}

} // namespace serep::sim
