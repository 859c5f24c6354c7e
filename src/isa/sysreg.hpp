// System registers (SYSRD/SYSWR operands) and trap causes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace serep::isa {

/// System register ids. Who may read or write each one is kSysRegAccess.
enum class SysReg : std::uint8_t {
    CORE_ID = 0,   ///< hart index
    TIMER = 1,     ///< countdown in retired instructions; 0 disables
    EPC = 2,       ///< trap return address
    CAUSE = 3,     ///< trap cause (low 8 bits) | aux (SVC number << 8)
    BADADDR = 4,   ///< faulting data/fetch address
    FLAGS = 5,     ///< packed NZCV (for context save/restore)
    USP = 6,       ///< banked user stack pointer
    TLS = 7,       ///< current thread control block address
    IPI_SEND = 8,  ///< bitmask of cores to interrupt
    CONSOLE = 9,   ///< emit one byte to current process console
    MAP_BRK = 10,  ///< set current process heap top (maps pages)
    SHUTDOWN = 11, ///< end of application; value = exit code
    INSTRET = 12,  ///< instructions retired on this core
    NCORES = 13,   ///< number of cores
    CURPROC = 14,  ///< process whose address space is active on this core
    PROC_EXIT = 15,///< record a process exit: (proc << 8) | exit code
};

/// Who may access a system register. User mode never writes one; an access
/// the table refuses takes UNDEF.
struct SysRegAccess {
    bool user_read = false, kernel_read = false, kernel_write = false;
};

/// The permission table, indexed by SysReg. Machine::sysreg_read/write and
/// the prune walker read it; ids past its end are refused every access.
inline constexpr SysRegAccess kSysRegAccess[] = {
    {true, true, false},   // CORE_ID
    {false, true, true},   // TIMER
    {false, true, true},   // EPC
    {false, true, false},  // CAUSE
    {false, true, false},  // BADADDR
    {false, true, true},   // FLAGS
    {false, true, true},   // USP
    {true, true, true},    // TLS
    {false, false, true},  // IPI_SEND
    {false, false, true},  // CONSOLE
    {false, false, true},  // MAP_BRK
    {false, false, true},  // SHUTDOWN
    {true, true, false},   // INSTRET
    {true, true, false},   // NCORES
    {false, true, true},   // CURPROC
    {false, false, true},  // PROC_EXIT
};
static_assert(std::size(kSysRegAccess) == static_cast<std::size_t>(SysReg::PROC_EXIT) + 1,
              "one kSysRegAccess row per SysReg");

constexpr SysRegAccess sysreg_access(SysReg sr) noexcept {
    const auto i = static_cast<std::size_t>(sr);
    return i < std::size(kSysRegAccess) ? kSysRegAccess[i] : SysRegAccess{};
}
constexpr bool sysreg_readable(SysReg sr, bool kernel) noexcept {
    return kernel ? sysreg_access(sr).kernel_read : sysreg_access(sr).user_read;
}
constexpr bool sysreg_writable(SysReg sr, bool kernel) noexcept {
    return kernel && sysreg_access(sr).kernel_write;
}

enum class TrapCause : std::uint8_t {
    NONE = 0,
    SVC,            ///< supervisor call (aux = syscall number)
    UNDEF,          ///< illegal/privileged instruction in user mode
    DATA_ABORT,     ///< unmapped/forbidden/misaligned data access
    PREFETCH_ABORT, ///< bad instruction fetch address
    IRQ_TIMER,
    IRQ_IPI,
};

const char* trap_cause_name(TrapCause c) noexcept;

} // namespace serep::isa
