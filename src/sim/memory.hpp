// Guest physical memory with per-process address spaces and page-granular
// protection.
//
// Physical layout: [kernel region][proc 0 user region][proc 1]...
// Translation implements the address map in isa/layout.hpp:
//  * kernel VAs require kernel mode,
//  * user VAs translate through the *current* process and require the page
//    to be mapped (static data + main stack at load; heap pages via brk),
//  * anything else — including misaligned accesses — faults.
// This is what turns corrupted address registers into segmentation faults,
// the paper's §4.1.4 "UT from wrong address calculation" mechanism.
//
// Dirty-page tracking: every mutation path (store, bit flips, and — at image
// load time — the raw host-side pointers) marks the touched physical page in
// a per-page dirty bitmap. clear_dirty() resets it; the checkpoint ladder's
// delta snapshots and its rung comparison (sim/snapshot.hpp) use
// dirty-since-base as the exact set of pages that can differ from the base
// rung.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/layout.hpp"

namespace serep::sim {

enum class MemFault : std::uint8_t { NONE, UNMAPPED, PERMISSION, MISALIGNED };

/// Physical memory must stay below this size: the caches hold 31-bit line
/// numbers of 64-byte lines (sim/cache.hpp), so a physical address at or
/// above 2^37 would alias a lower line in the tag array.
inline constexpr std::uint64_t kMaxPhysBytes = std::uint64_t{1} << 37;

struct Translation {
    std::uint64_t phys = 0;
    MemFault fault = MemFault::NONE;
    bool ok() const noexcept { return fault == MemFault::NONE; }
};

class Memory {
public:
    /// `text_size` appends a read-mostly "text mirror" region after the last
    /// user region (rounded up to whole pages): the Machine serializes its
    /// image's code there (isa/encode.hpp records) so memory faults can
    /// corrupt guest text. Mutations inside the mirror go through the same
    /// write funnel as everything else and additionally bump code_gen() /
    /// mark code_page_dirty() so the execution engine re-decodes the page.
    /// A geometry whose physical size reaches kMaxPhysBytes is refused
    /// before anything is allocated.
    Memory(unsigned nprocs, std::uint64_t user_size, std::uint64_t kern_size,
           std::uint64_t text_size = 0);

    unsigned nprocs() const noexcept { return nprocs_; }
    std::uint64_t user_size() const noexcept { return user_size_; }
    std::uint64_t kern_size() const noexcept { return kern_size_; }

    /// Translate a guest virtual access. `size` must be a power of two and
    /// the access must be naturally aligned.
    Translation translate(std::uint64_t vaddr, unsigned size, bool kernel_mode,
                          unsigned proc) const noexcept;

    // Physical accessors (little-endian).
    std::uint64_t load(std::uint64_t phys, unsigned size) const noexcept;
    void store(std::uint64_t phys, unsigned size, std::uint64_t value) noexcept;

    /// Mark user pages [lo, hi) of `proc` as mapped (addresses are user VAs).
    void map_user_range(unsigned proc, std::uint64_t lo, std::uint64_t hi);
    bool user_page_mapped(unsigned proc, std::uint64_t vaddr) const noexcept;
    /// Same user page maps as `o` (every process).
    bool same_page_maps(const Memory& o) const noexcept {
        return page_mapped_ == o.page_mapped_;
    }

    /// Host-side raw access for the loader and the classifier. The mutable
    /// overloads hand out unchecked write access, so they conservatively mark
    /// every page dirty (they are only used at image-load time in practice).
    std::uint8_t* kern_data() noexcept {
        mark_all_dirty();
        return phys_.data();
    }
    const std::uint8_t* kern_data() const noexcept { return phys_.data(); }
    std::uint8_t* user_data(unsigned proc) noexcept {
        mark_all_dirty();
        return phys_.data() + kern_size_ + proc * user_size_;
    }
    const std::uint8_t* user_data(unsigned proc) const noexcept {
        return phys_.data() + kern_size_ + proc * user_size_;
    }

    /// 64-bit hash of a physical range (classifier helper): four lanes of
    /// 8-byte words, then the byte tail and the length. Any difference
    /// confined to one word or one tail byte changes the result. The value
    /// is for in-process comparison only; nothing persists it.
    std::uint64_t hash_range(std::uint64_t phys, std::uint64_t len) const noexcept;

    /// Flip one bit of a physical byte (memory fault injection).
    void flip_phys_bit(std::uint64_t phys, unsigned bit) noexcept {
        phys_[phys] ^= static_cast<std::uint8_t>(1u << bit);
        dirty_[phys / isa::layout::kPageSize] = 1;
        note_code_write(phys / isa::layout::kPageSize);
    }

    // ---- text mirror (decode-once execution engine) ----
    bool has_text() const noexcept { return text_size_ != 0; }
    /// Physical byte offset of the text mirror (== end of the user regions).
    std::uint64_t text_base() const noexcept { return text_base_; }
    std::uint64_t text_size() const noexcept { return text_size_; }
    const std::uint8_t* text_data() const noexcept { return phys_.data() + text_base_; }
    /// Install the pristine mirror bytes (image load; not a guest write, so
    /// it neither dirties pages nor bumps the code generation).
    void install_text(const std::uint8_t* bytes, std::uint64_t len) noexcept;

    /// Bumped by every mutation that may have touched the mirror; the
    /// Machine re-decodes pages whose sticky dirty bit is set whenever the
    /// generation it last decoded at falls behind.
    std::uint64_t code_gen() const noexcept { return code_gen_; }
    /// One byte per *text* page, sticky (never cleared): set when a write
    /// funnel mutation landed on that page.
    const std::vector<std::uint8_t>& code_dirty_pages() const noexcept {
        return code_dirty_;
    }

    std::uint64_t phys_size() const noexcept { return phys_.size(); }

    // ---- dirty-page tracking (delta snapshots) ----
    std::uint64_t page_count() const noexcept { return dirty_.size(); }
    /// One byte per physical page; non-zero = written since clear_dirty().
    const std::vector<std::uint8_t>& dirty_pages() const noexcept { return dirty_; }
    void clear_dirty() noexcept { std::fill(dirty_.begin(), dirty_.end(), 0); }
    void mark_all_dirty() noexcept { std::fill(dirty_.begin(), dirty_.end(), 1); }

    // ---- payload management (delta snapshots) ----
    // A Machine copy whose memory payload has been dropped is a "shell": all
    // metadata (geometry, page maps, dirty bits) survives, only the phys
    // byte array is released. clone_payload_from() reinstates one from a
    // geometry-identical base; the delta restore then patches changed pages.
    bool has_payload() const noexcept { return !phys_.empty(); }
    /// Actual host bytes held for guest physical memory (0 for a shell).
    std::uint64_t payload_bytes() const noexcept { return phys_.size(); }
    void drop_payload() noexcept {
        phys_.clear();
        phys_.shrink_to_fit();
    }
    void clone_payload_from(const Memory& base);
    /// The metadata half of clone_payload_from(base), for a payload that
    /// already holds `base`'s bytes (a rewind copied back every page that
    /// differed): fold in the base's sticky text set and force an overlay
    /// refresh, exactly as the copy would.
    void note_payload_from(const Memory& base) noexcept;
    /// Copy every field of `o` but the payload: page maps, dirty bitmap,
    /// sticky text set and code generation. This memory keeps its own
    /// bytes; `o` may be a shell. Geometry must match.
    void assign_shell(const Memory& o);
    /// Move the payload out, leaving a shell; set_payload reinstalls it.
    /// Lets make_machine_delta copy a Machine's non-memory state without
    /// ever duplicating guest memory (take, copy the shell, reinstall).
    /// Contract: set_payload expects bytes taken from *this* memory (or a
    /// clone whose code_dirty_pages() metadata this object already carries)
    /// — installing a foreign payload whose text diverges on pages outside
    /// that set would execute stale decodes. Use clone_payload_from for
    /// cross-machine adoption; it merges the source's sticky text set.
    std::vector<std::uint8_t> take_payload() noexcept { return std::move(phys_); }
    void set_payload(std::vector<std::uint8_t> payload);

    /// Raw page access for delta make/apply (page < page_count()).
    const std::uint8_t* page_data(std::uint64_t page) const noexcept {
        return phys_.data() + page * isa::layout::kPageSize;
    }
    void write_page(std::uint64_t page, const std::uint8_t* bytes) noexcept;

private:
    /// Text-mirror write funnel: record a mutation of physical page
    /// `phys_page` so the execution engine re-decodes it if it holds text.
    void note_code_write(std::uint64_t phys_page) noexcept {
        if (text_size_ == 0) return;
        const std::uint64_t first = text_base_ / isa::layout::kPageSize;
        if (phys_page < first) return;
        code_dirty_[phys_page - first] = 1;
        ++code_gen_;
    }

    unsigned nprocs_;
    std::uint64_t user_size_, kern_size_;
    std::uint64_t text_base_ = 0, text_size_ = 0;
    std::vector<std::uint8_t> phys_;
    std::vector<std::uint8_t> page_mapped_; // one byte per user page per proc
    std::vector<std::uint8_t> dirty_;       // one byte per physical page
    std::vector<std::uint8_t> code_dirty_;  // one byte per text page, sticky
    std::uint64_t code_gen_ = 0;
    std::uint64_t pages_per_proc_;
};

} // namespace serep::sim
