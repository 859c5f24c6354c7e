#include "sim/memory.hpp"

#include <cstring>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace serep::sim {

namespace layout = isa::layout;

Memory::Memory(unsigned nprocs, std::uint64_t user_size, std::uint64_t kern_size,
               std::uint64_t text_size)
    : nprocs_(nprocs), user_size_(user_size), kern_size_(kern_size) {
    util::check(nprocs >= 1 && nprocs <= 8, "Memory: 1..8 processes supported");
    util::check(user_size % layout::kPageSize == 0 && kern_size % layout::kPageSize == 0,
                "Memory: region sizes must be page-multiples");
    // Each term is bounded first, so the sum below cannot wrap.
    const bool bounded = user_size < kMaxPhysBytes && kern_size < kMaxPhysBytes &&
                         text_size < kMaxPhysBytes;
    text_base_ = kern_size_ + std::uint64_t{nprocs_} * user_size_;
    text_size_ = (text_size + layout::kPageSize - 1) / layout::kPageSize *
                 layout::kPageSize;
    util::check(bounded && text_base_ + text_size_ < kMaxPhysBytes,
                "Memory: physical size reaches 2^37 bytes, past the 31-bit "
                "line numbers of the cache tags");
    phys_.assign(text_base_ + text_size_, 0);
    pages_per_proc_ = user_size_ / layout::kPageSize;
    page_mapped_.assign(nprocs_ * pages_per_proc_, 0);
    // All-dirty until the first clear_dirty(): a snapshot consumer that never
    // clears sees every page as a candidate, which is always correct.
    dirty_.assign(phys_.size() / layout::kPageSize, 1);
    code_dirty_.assign(text_size_ / layout::kPageSize, 0);
}

void Memory::install_text(const std::uint8_t* bytes, std::uint64_t len) noexcept {
    std::memcpy(phys_.data() + text_base_, bytes,
                std::min<std::uint64_t>(len, text_size_));
}

void Memory::clone_payload_from(const Memory& base) {
    util::check(base.nprocs_ == nprocs_ && base.user_size_ == user_size_ &&
                    base.kern_size_ == kern_size_ &&
                    base.text_size_ == text_size_ && base.has_payload(),
                "clone_payload_from: geometry mismatch or base is a shell");
    phys_ = base.phys_;
    note_payload_from(base);
}

void Memory::note_payload_from(const Memory& base) noexcept {
    // The adopted mirror may diverge from the pristine encode exactly where
    // the *base* was ever struck; fold its sticky set into ours so the
    // overlay refresh re-decodes those pages too (ours may be a shell from
    // an unrelated point of the clone tree).
    for (std::size_t p = 0; p < code_dirty_.size(); ++p)
        code_dirty_[p] |= base.code_dirty_[p];
    ++code_gen_; // mirror content replaced wholesale: force overlay refresh
}

// Every field but the payload is either geometry, checked equal, or copied.
// The assert pins the layout this was written against (LP64): a new field
// breaks the build until assign_shell() handles it.
static_assert(sizeof(void*) != 8 || sizeof(Memory) == 152,
              "Memory changed: handle the new field in assign_shell()");

void Memory::assign_shell(const Memory& o) {
    util::check(o.nprocs_ == nprocs_ && o.user_size_ == user_size_ &&
                    o.kern_size_ == kern_size_ && o.text_size_ == text_size_,
                "assign_shell: geometry mismatch");
    page_mapped_ = o.page_mapped_;
    dirty_ = o.dirty_;
    code_dirty_ = o.code_dirty_;
    code_gen_ = o.code_gen_;
}

void Memory::set_payload(std::vector<std::uint8_t> payload) {
    util::check(payload.size() == text_base_ + text_size_,
                "set_payload: size does not match memory geometry");
    phys_ = std::move(payload);
    ++code_gen_;
}

void Memory::write_page(std::uint64_t page, const std::uint8_t* bytes) noexcept {
    std::memcpy(phys_.data() + page * layout::kPageSize, bytes, layout::kPageSize);
    dirty_[page] = 1;
    note_code_write(page);
}

Translation Memory::translate(std::uint64_t vaddr, unsigned size, bool kernel_mode,
                              unsigned proc) const noexcept {
    if ((vaddr & (size - 1)) != 0) return {0, MemFault::MISALIGNED};
    if (vaddr >= layout::kKernBase && vaddr + size <= layout::kKernBase + kern_size_) {
        if (!kernel_mode) return {0, MemFault::PERMISSION};
        return {vaddr - layout::kKernBase, MemFault::NONE};
    }
    if (vaddr >= layout::kUserBase && vaddr + size <= layout::kUserBase + user_size_) {
        const std::uint64_t off = vaddr - layout::kUserBase;
        if (!page_mapped_[proc * pages_per_proc_ + off / layout::kPageSize])
            return {0, MemFault::UNMAPPED};
        return {kern_size_ + proc * user_size_ + off, MemFault::NONE};
    }
    return {0, MemFault::UNMAPPED};
}

std::uint64_t Memory::load(std::uint64_t phys, unsigned size) const noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, phys_.data() + phys, size);
    return v;
}

void Memory::store(std::uint64_t phys, unsigned size, std::uint64_t value) noexcept {
    std::memcpy(phys_.data() + phys, &value, size);
    // Naturally aligned <= 8-byte stores never straddle a page.
    dirty_[phys / layout::kPageSize] = 1;
    // No VA translates into the text mirror today, but keep guest stores in
    // the code-write funnel so a future mapping cannot silently bypass it.
    note_code_write(phys / layout::kPageSize);
}

void Memory::map_user_range(unsigned proc, std::uint64_t lo, std::uint64_t hi) {
    util::check(lo >= layout::kUserBase && hi <= layout::kUserBase + user_size_ && lo <= hi,
                "map_user_range: out of user region");
    const std::uint64_t first = (lo - layout::kUserBase) / layout::kPageSize;
    const std::uint64_t last = (hi - layout::kUserBase + layout::kPageSize - 1) / layout::kPageSize;
    for (std::uint64_t p = first; p < last && p < pages_per_proc_; ++p)
        page_mapped_[proc * pages_per_proc_ + p] = 1;
}

bool Memory::user_page_mapped(unsigned proc, std::uint64_t vaddr) const noexcept {
    if (vaddr < layout::kUserBase || vaddr >= layout::kUserBase + user_size_) return false;
    return page_mapped_[proc * pages_per_proc_ +
                        (vaddr - layout::kUserBase) / layout::kPageSize] != 0;
}

namespace {

constexpr std::uint64_t kMulA = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kMulB = 0xC2B2AE3D27D4EB4FULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
}

/// One lane step. For a fixed word it is a bijection of the lane (add,
/// rotate and multiply by an odd constant are each invertible), and for a
/// fixed lane a bijection of the word: a difference confined to one word
/// changes that lane, and every later step carries the change along.
inline std::uint64_t lane_step(std::uint64_t lane, std::uint64_t word) noexcept {
    return rotl(lane + word * kMulB, 31) * kMulA;
}

inline std::uint64_t load_word(const std::uint8_t* p) noexcept {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

} // namespace

std::uint64_t Memory::hash_range(std::uint64_t phys, std::uint64_t len) const noexcept {
    // Four independent lanes over 8-byte words keep the multiplier busy
    // instead of waiting on one dependency chain per byte; they are named
    // variables because -O2 keeps an array's lanes in memory. The values
    // never leave the process (golden and faulty runs are compared in
    // memory), so only in-process equality matters, never the byte order.
    const std::uint8_t* p = phys_.data() + phys;
    std::uint64_t a = util::kFnvOffset, b = util::kFnvOffset + kMulA,
                  c = util::kFnvOffset + kMulB, d = util::kFnvOffset - kMulA;
    std::uint64_t i = 0;
    for (; i + 32 <= len; i += 32) {
        a = lane_step(a, load_word(p + i));
        b = lane_step(b, load_word(p + i + 8));
        c = lane_step(c, load_word(p + i + 16));
        d = lane_step(d, load_word(p + i + 24));
    }
    // At most three whole words remain; they go to lanes a, b, c in order.
    if (i + 8 <= len) {
        a = lane_step(a, load_word(p + i));
        i += 8;
    }
    if (i + 8 <= len) {
        b = lane_step(b, load_word(p + i));
        i += 8;
    }
    if (i + 8 <= len) {
        c = lane_step(c, load_word(p + i));
        i += 8;
    }
    // Each lane enters through a bijection, so the merge is injective in
    // every lane given the others.
    std::uint64_t h = rotl(a, 1) + rotl(b, 7) + rotl(c, 12) + rotl(d, 18);
    for (; i < len; ++i) h = (h ^ p[i]) * util::kFnvPrime;
    h ^= len;
    // Final avalanche (murmur3's fmix64; each step invertible).
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDULL;
    h = (h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53ULL;
    return h ^ (h >> 33);
}

} // namespace serep::sim
