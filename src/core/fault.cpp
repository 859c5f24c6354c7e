#include "core/fault.hpp"

#include "isa/layout.hpp"
#include "uncore/uncore.hpp"
#include "util/hash.hpp"

namespace serep::core {

const char* outcome_name(Outcome o) noexcept {
    switch (o) {
        case Outcome::Vanished: return "Vanished";
        case Outcome::ONA: return "ONA";
        case Outcome::OMM: return "OMM";
        case Outcome::UT: return "UT";
        case Outcome::Hang: return "Hang";
    }
    return "??";
}

bool outcome_from_name(const std::string& name, Outcome& out) noexcept {
    for (unsigned o = 0; o < kOutcomeCount; ++o) {
        if (name == outcome_name(static_cast<Outcome>(o))) {
            out = static_cast<Outcome>(o);
            return true;
        }
    }
    return false;
}

const char* fault_kind_name(FaultTarget::Kind k) noexcept {
    switch (k) {
        case FaultTarget::Kind::GPR: return "gpr";
        case FaultTarget::Kind::FP: return "fp";
        case FaultTarget::Kind::MEM: return "mem";
        case FaultTarget::Kind::CacheTag: return "cache-tag";
        case FaultTarget::Kind::CacheData: return "cache-data";
        case FaultTarget::Kind::Bus: return "bus";
    }
    return "??";
}

bool fault_kind_from_name(const std::string& name, FaultTarget::Kind& out) noexcept {
    if (name == "gpr") out = FaultTarget::Kind::GPR;
    else if (name == "fp") out = FaultTarget::Kind::FP;
    else if (name == "mem") out = FaultTarget::Kind::MEM;
    else if (name == "cache-tag") out = FaultTarget::Kind::CacheTag;
    else if (name == "cache-data") out = FaultTarget::Kind::CacheData;
    else if (name == "bus") out = FaultTarget::Kind::Bus;
    else return false;
    return true;
}

bool is_uncore_kind(FaultTarget::Kind k) noexcept {
    return k == FaultTarget::Kind::CacheTag ||
           k == FaultTarget::Kind::CacheData || k == FaultTarget::Kind::Bus;
}

bool fault_kind_has_reg(FaultTarget::Kind k) noexcept {
    return k == FaultTarget::Kind::GPR || k == FaultTarget::Kind::FP;
}

namespace {
inline void fnv(std::uint64_t& h, std::uint64_t v) { util::fnv1a_u64(h, v); }
} // namespace

std::uint64_t arch_state_hash(const sim::Machine& m) {
    std::uint64_t h = util::kFnvOffset;
    for (unsigned c = 0; c < m.cores(); ++c) {
        const isa::RegFile& r = m.core(c).regs;
        for (unsigned i = 0; i < 33; ++i) fnv(h, r.x(i));
        fnv(h, r.flags().pack());
        if (isa::profile_info(r.profile()).has_fp_regs)
            for (unsigned i = 0; i < 32; ++i) fnv(h, r.v_bits(i));
    }
    return h;
}

std::uint64_t static_data_hash(const sim::Machine& m, unsigned proc) {
    const std::uint64_t base =
        m.mem().kern_size() + std::uint64_t{proc} * m.mem().user_size();
    return m.mem().hash_range(base, m.image().udata_size);
}

std::uint64_t kernel_region_hash(const sim::Machine& m) {
    return m.mem().hash_range(0, m.mem().kern_size());
}

GoldenRef capture_golden(const sim::Machine& m) {
    GoldenRef g;
    g.total_retired = m.total_retired();
    g.ticks = m.time_ticks();
    g.app_start = m.app_start_retired();
    g.exit_code = m.exit_code();
    for (unsigned p = 0; p < m.config().procs; ++p) {
        g.outputs.push_back(m.output(p));
        g.data_hash.push_back(static_data_hash(m, p));
    }
    g.kern_hash = kernel_region_hash(m);
    g.arch_hash = arch_state_hash(m);
    return g;
}

bool apply_fault(sim::Machine& m, const FaultTarget& t) {
    switch (t.kind) {
        case FaultTarget::Kind::GPR: m.flip_gpr(t.core, t.reg, t.bit); break;
        case FaultTarget::Kind::FP: m.flip_fp(t.core, t.reg, t.bit); break;
        case FaultTarget::Kind::MEM: m.flip_mem(t.phys, t.bit % 8); break;
        case FaultTarget::Kind::CacheTag:
        case FaultTarget::Kind::CacheData:
        case FaultTarget::Kind::Bus:
            return uncore::inject(m, t);
    }
    return true;
}

Outcome classify(const sim::Machine& m, const GoldenRef& golden, bool hit_watchdog) {
    if (m.status() == sim::RunStatus::KernelPanic) return Outcome::UT;
    if (hit_watchdog || m.status() == sim::RunStatus::Running ||
        m.status() == sim::RunStatus::Deadlock)
        return Outcome::Hang;
    // terminated: error indication?
    for (unsigned p = 0; p < m.config().procs; ++p) {
        const int code = m.proc_exit_code(p);
        if (code != 0) return Outcome::UT; // includes never-exited (-1)
    }
    if (m.exit_code() != golden.exit_code) return Outcome::UT;
    // silent data corruption?
    for (unsigned p = 0; p < m.config().procs; ++p) {
        if (m.output(p) != golden.outputs[p]) return Outcome::OMM;
        if (static_data_hash(m, p) != golden.data_hash[p]) return Outcome::OMM;
    }
    // architectural traces?
    if (arch_state_hash(m) != golden.arch_hash) return Outcome::ONA;
    if (kernel_region_hash(m) != golden.kern_hash) return Outcome::ONA;
    return Outcome::Vanished;
}

} // namespace serep::core
