// Set-associative LRU cache model (tags only — used for timing and the
// microarchitectural statistics the data-mining tool correlates).
//
// Configuration mirrors the paper's §3.1: per-core 32 KiB 4-way L1I and L1D,
// shared 512 KiB 8-way L2, 64-byte lines.
//
// Tags are 32 bits: the address's line number (addr >> line_shift) in bits
// 0-30, and bit 31 marks the way valid. That is exact while every address a
// cache sees is below 2^(31 + line_shift) — 2^37 for 64-byte lines — and it
// is: I-fetches pass Image::contains_code (code sits below
// isa::layout::kUserBase), data accesses use translated physical addresses
// below Memory::phys_size(), which Memory keeps below kMaxPhysBytes, and the
// uncore tag fault retags only to a line inside physical memory. The tag
// array dominates a Machine's non-memory state, so its width sets the cost
// of every checkpoint shell, shell copy and rung comparison.
#pragma once

#include <cstdint>
#include <vector>

namespace serep::sim {

struct CacheConfig {
    std::uint32_t size_bytes;
    std::uint32_t ways;
    std::uint32_t line_bytes = 64;
};

inline constexpr CacheConfig kL1Config{32 * 1024, 4, 64};
inline constexpr CacheConfig kL2Config{512 * 1024, 8, 64};

/// Extra cycles charged on a miss at each level.
inline constexpr std::uint64_t kL1MissPenalty = 8;   // L2 hit latency
inline constexpr std::uint64_t kL2MissPenalty = 40;  // DRAM latency

class Cache {
public:
    explicit Cache(const CacheConfig& cfg);

    /// Look up `addr`; allocates on miss. Returns true on hit.
    bool access(std::uint64_t addr) noexcept;

    /// Count a hit that was filtered out before the lookup. The trace
    /// execution engine keeps a per-core MRU line filter in front of L1:
    /// re-touching the most-recently-used line is an LRU no-op (ages are
    /// already 0-rooted at that way), so skipping the lookup leaves tags and
    /// ages bit-identical — only the hit counter still needs to advance.
    void credit_hit() noexcept {
        ++hits_;
        ++credits_;
    }

    /// Bulk form of credit_hit: the trace engine counts MRU-filtered I-fetch
    /// hits locally across a burst and flushes them in one call when the
    /// burst ends (side exits included, so a trace that traps mid-way
    /// credits exactly the fetches that happened).
    void credit_hits(std::uint64_t n) noexcept {
        hits_ += n;
        credits_ += n;
    }

    void reset() noexcept;

    /// Presence check for the uncore fault model: is `addr`'s line resident?
    /// Pure observation — no LRU touch, no allocation, no counter movement —
    /// so probing is invisible to timing and to the hit/miss statistics.
    bool probe(std::uint64_t addr) const noexcept;

    /// Cell probe for the uncore fault model: the physical line address
    /// resident in (set, way), or ~0ULL when that way is invalid. The
    /// cache-tag / cache-data fault spaces are enumerated over the cache's
    /// own cells, and a strike hits whatever line occupies the struck cell
    /// at the injection instant. Pure observation, like probe().
    std::uint64_t line_at(std::uint32_t set, std::uint32_t way) const noexcept {
        const std::uint32_t t =
            tags_[std::size_t{set & (sets_ - 1)} * ways_ + way % ways_];
        return t ? std::uint64_t{t & ~kValid} << line_shift_ : ~0ULL;
    }

    std::uint32_t sets() const noexcept { return sets_; }
    std::uint32_t ways() const noexcept { return ways_; }

    /// Silently rewrite the tag of the way holding `old_addr`'s line to
    /// `new_addr`'s line — the uncore cache-tag fault: the stored data stays
    /// where it is, but the cache now believes it belongs to a different
    /// (same-set) address. LRU age and counters are untouched. Returns false
    /// (and changes nothing) when `old_addr` is not resident or the two
    /// addresses map to different sets (a tag flip never changes the set).
    bool retag(std::uint64_t old_addr, std::uint64_t new_addr) noexcept;

    /// log2(set count) — the uncore model needs it to compute which physical
    /// address bit a given tag bit corresponds to.
    std::uint32_t set_bits() const noexcept { return set_bits_; }
    std::uint32_t line_shift() const noexcept { return line_shift_; }

    /// Same resident lines and LRU ages as `o` (the timing state; the
    /// hit/miss/credit counters are statistics and are not compared).
    bool same_lines(const Cache& o) const noexcept {
        return tags_ == o.tags_ && age_ == o.age_;
    }

    std::uint64_t hits() const noexcept { return hits_; }
    std::uint64_t misses() const noexcept { return misses_; }
    /// Hits that arrived via the MRU credit path (a subset of hits()):
    /// telemetry reports the credit rate to show how much lookup traffic
    /// the MRU filters absorb.
    std::uint64_t credits() const noexcept { return credits_; }

private:
    static constexpr std::uint32_t kValid = 1u << 31;
    /// The tag of `addr`'s line: its line number, valid bit set.
    std::uint32_t tag_of(std::uint64_t addr) const noexcept {
        return static_cast<std::uint32_t>(addr >> line_shift_) | kValid;
    }

    std::uint32_t sets_, ways_;
    std::uint32_t line_shift_;
    std::uint32_t set_bits_;
    std::vector<std::uint32_t> tags_;  // sets x ways, 0 = invalid
    std::vector<std::uint8_t> age_;    // LRU ages
    std::uint64_t hits_ = 0, misses_ = 0, credits_ = 0;
};

} // namespace serep::sim
