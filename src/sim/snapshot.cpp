#include "sim/snapshot.hpp"

#include <cstring>

#include "util/check.hpp"

namespace serep::sim {

namespace {
/// Non-memory Machine state allowance (register files, caches, counters,
/// outputs — a few KB in practice, padded generously).
constexpr std::size_t kShellAllowance = 64u << 10;
} // namespace

std::size_t machine_footprint_bytes(const Machine& m) noexcept {
    return static_cast<std::size_t>(m.mem().payload_bytes()) + kShellAllowance;
}

std::size_t MachineDelta::footprint_bytes() const noexcept {
    return bytes.size() + pages.size() * sizeof(std::uint32_t) + kShellAllowance;
}

MachineDelta make_machine_delta(Machine& cur, const Machine& base) {
    const Memory& bm = base.mem();
    util::check(cur.mem().has_payload() && bm.has_payload() &&
                    cur.mem().phys_size() == bm.phys_size(),
                "make_machine_delta: geometry mismatch or shell input");
    // Copy the non-memory state without ever duplicating guest memory: move
    // cur's payload aside, take the (now cheap) shell copy, reinstall.
    std::vector<std::uint8_t> payload = cur.mem().take_payload();
    MachineDelta d{cur, {}, {}};
    cur.mem().set_payload(std::move(payload));

    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    const Memory& cm = cur.mem();
    const std::vector<std::uint8_t>& dirty = cm.dirty_pages();
    for (std::uint64_t p = 0; p < cm.page_count(); ++p) {
        if (!dirty[p]) continue; // clean since base copy => identical to base
        const std::uint8_t* cp = cm.page_data(p);
        if (std::memcmp(cp, bm.page_data(p), kPage) == 0) continue;
        d.pages.push_back(static_cast<std::uint32_t>(p));
        d.bytes.insert(d.bytes.end(), cp, cp + kPage);
    }
    return d;
}

Machine restore_machine_delta(const MachineDelta& d, const Machine& base) {
    Machine out = d.shell; // cheap: the shell holds no memory payload
    out.mem().clone_payload_from(base.mem());
    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    for (std::size_t i = 0; i < d.pages.size(); ++i)
        out.mem().write_page(d.pages[i], d.bytes.data() + i * kPage);
    return out;
}

std::size_t rewind_machine(Machine& m, const MachineDelta& d,
                           const Machine& base) {
    Memory& mm = m.mem();
    const Memory& bm = base.mem();
    util::check(mm.has_payload() && bm.has_payload() &&
                    mm.phys_size() == bm.phys_size(),
                "rewind_machine: geometry mismatch or shell input");
    // Under the dirty-bitmap contract only pages dirty in `m` can differ from
    // the base. Put those back, except the ones the delta lists: they are
    // written below, as restore_machine_delta writes them.
    std::size_t copied = 0, k = 0;
    const std::vector<std::uint8_t>& dirty = mm.dirty_pages();
    for (std::uint64_t p = 0; p < dirty.size(); ++p) {
        if (k < d.pages.size() && d.pages[k] == p) {
            ++k;
            continue;
        }
        if (!dirty[p]) continue;
        mm.write_page(p, bm.page_data(p));
        ++copied;
    }
    // The payload now holds the base's bytes but on the listed pages; the
    // shell's metadata replaces whatever the page writes above recorded.
    m.assign_shell(d.shell);
    mm.note_payload_from(bm);
    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    for (std::size_t i = 0; i < d.pages.size(); ++i)
        mm.write_page(d.pages[i], d.bytes.data() + i * kPage);
    return copied + d.pages.size();
}

std::size_t rewind_machine(Machine& m, const Machine& snap) {
    Memory& mm = m.mem();
    const Memory& sm = snap.mem();
    util::check(mm.has_payload() && sm.has_payload() &&
                    mm.phys_size() == sm.phys_size(),
                "rewind_machine: geometry mismatch or shell input");
    // A page clean in both machines still holds the common base's bytes on
    // both sides.
    std::size_t copied = 0;
    const std::vector<std::uint8_t>& md = mm.dirty_pages();
    const std::vector<std::uint8_t>& sd = sm.dirty_pages();
    for (std::uint64_t p = 0; p < md.size(); ++p) {
        if (!md[p] && !sd[p]) continue;
        mm.write_page(p, sm.page_data(p));
        ++copied;
    }
    m.assign_shell(snap);
    return copied;
}

// ---- snapshot comparison ---------------------------------------------------
// Compared: everything that can steer later execution or classification —
// the run scalars, every core's architectural and scheduling state, console
// outputs and exit codes, cache tags and LRU ages (timing, hence the
// multicore schedule), user page maps, and guest memory.
//
// Left out, because nothing reads them back to steer either:
//  * statistics: CoreCounters, MachineCounters, the caches' hit/miss/credit
//    counters, TraceStats and the profile vectors are only ever written;
//  * accelerators whose use leaves every observable bit-identical: the MRU
//    I/D-line and translation filters (CoreState::last_*; each is sound for
//    the machine that filled it, and the state they shortcut is compared),
//    the code overlay and code_gen_seen_ (and Memory's code_dirty_ /
//    code_gen_: re-decodes are a pure function of the text bytes compared
//    here), the trace cursors (invalidated at every window), the per-step
//    next_pc_/branch_taken_ (set before every use), sched_event_ (cleared
//    before every burst reads it) and the engine (all engines agree);
//  * the dirty bitmaps: bookkeeping that only selects the pages to compare;
//  * the observer and uncore-hook slots: copy-reset, and callers skip the
//    comparison while an uncore hook is armed;
//  * construction constants: image, config, geometry, ExecCache, widths.
//
// The asserts below pin the layouts this list was written against (LP64):
// a new field breaks the build until it is compared or listed above.
static_assert(sizeof(void*) != 8 || sizeof(CoreState) == 720,
              "CoreState changed: extend same_core() or the exclusion list");
static_assert(sizeof(void*) != 8 || sizeof(Machine) == 896,
              "Machine changed: extend same_shell() or the exclusion list");

namespace {

/// Every CoreState field except the accelerator filters (CoreState::last_*).
bool same_core(const CoreState& a, const CoreState& b) noexcept {
    return a.regs.same_arch_state(b.regs) && a.mode == b.mode &&
           a.sleeping == b.sleeping && a.halted == b.halted &&
           a.banked_sp == b.banked_sp && a.epc == b.epc &&
           a.cause == b.cause && a.badaddr == b.badaddr && a.tls == b.tls &&
           a.curproc == b.curproc && a.timer == b.timer &&
           a.pending_timer == b.pending_timer &&
           a.pending_ipi == b.pending_ipi && a.excl_addr == b.excl_addr &&
           a.excl_valid == b.excl_valid && a.local_tick == b.local_tick &&
           a.wake_tick == b.wake_tick && a.retired == b.retired;
}

/// All compared non-memory state: the cheap scalars first, then the cores,
/// outputs and page maps, then the caches.
bool same_shell(const Machine& m, const Machine& s) noexcept {
    if (m.total_retired() != s.total_retired() || m.status() != s.status() ||
        m.exit_code() != s.exit_code() || m.panic_cause() != s.panic_cause() ||
        m.app_started() != s.app_started() ||
        m.app_start_retired() != s.app_start_retired() ||
        m.cores() != s.cores())
        return false;
    for (unsigned c = 0; c < m.cores(); ++c)
        if (!same_core(m.core(c), s.core(c))) return false;
    for (unsigned p = 0; p < m.config().procs; ++p)
        if (m.proc_exit_code(p) != s.proc_exit_code(p) ||
            m.output(p) != s.output(p))
            return false;
    if (!m.mem().same_page_maps(s.mem())) return false;
    for (unsigned c = 0; c < m.cores(); ++c)
        if (!m.l1i(c).same_lines(s.l1i(c)) || !m.l1d(c).same_lines(s.l1d(c)))
            return false;
    return m.l2().same_lines(s.l2());
}

/// Guest memory of `m` against the snapshot whose shell is `s` and whose
/// bytes are `pages` (ascending, images in `bytes`) over `base`. Only pages
/// dirty in `m`, dirty in `s`, or listed can differ: any other page still
/// holds the common base's bytes on both sides.
bool same_memory(const Memory& m, const Memory& s, const Memory& base,
                 const std::vector<std::uint32_t>& pages,
                 const std::uint8_t* bytes) noexcept {
    constexpr std::uint64_t kPage = isa::layout::kPageSize;
    const std::vector<std::uint8_t>& md = m.dirty_pages();
    const std::vector<std::uint8_t>& sd = s.dirty_pages();
    std::size_t k = 0; // cursor into `pages`
    for (std::uint64_t p = 0; p < md.size(); ++p) {
        const bool listed = k < pages.size() && pages[k] == p;
        if (!listed && !md[p] && !sd[p]) continue;
        const std::uint8_t* want =
            listed ? bytes + kPage * k++ : base.page_data(p);
        if (std::memcmp(m.page_data(p), want, kPage) != 0) return false;
    }
    return true;
}

} // namespace

bool matches_snapshot(const Machine& m, const Machine& snap) {
    util::check(m.mem().has_payload() && snap.mem().has_payload() &&
                    m.mem().phys_size() == snap.mem().phys_size(),
                "matches_snapshot: geometry mismatch or shell input");
    return same_shell(m, snap) &&
           same_memory(m.mem(), snap.mem(), snap.mem(), {}, nullptr);
}

bool matches_snapshot(const Machine& m, const MachineDelta& d,
                      const Machine& base) {
    util::check(m.mem().has_payload() && base.mem().has_payload() &&
                    m.mem().phys_size() == base.mem().phys_size(),
                "matches_snapshot: geometry mismatch or shell input");
    return same_shell(m, d.shell) &&
           same_memory(m.mem(), d.shell.mem(), base.mem(), d.pages,
                       d.bytes.data());
}

} // namespace serep::sim
