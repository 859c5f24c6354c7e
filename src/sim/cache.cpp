#include "sim/cache.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/check.hpp"

namespace serep::sim {

Cache::Cache(const CacheConfig& cfg)
    : sets_(cfg.size_bytes / (cfg.ways * cfg.line_bytes)),
      ways_(cfg.ways),
      line_shift_(static_cast<std::uint32_t>(util::ctz64(cfg.line_bytes))),
      set_bits_(static_cast<std::uint32_t>(util::ctz64(
          cfg.size_bytes / (cfg.ways * cfg.line_bytes)))) {
    util::check((cfg.line_bytes & (cfg.line_bytes - 1)) == 0 && (sets_ & (sets_ - 1)) == 0 && cfg.line_bytes && sets_,
                "Cache: line size and set count must be powers of two");
    tags_.assign(std::size_t{sets_} * ways_, 0);
    age_.resize(std::size_t{sets_} * ways_);
    reset();
}

void Cache::reset() noexcept {
    std::fill(tags_.begin(), tags_.end(), 0);
    // Invariant: each set's ages are a permutation of 0..ways-1 (0 = MRU).
    for (std::uint32_t s = 0; s < sets_; ++s)
        for (std::uint32_t w = 0; w < ways_; ++w)
            age_[std::size_t{s} * ways_ + w] = static_cast<std::uint8_t>(w);
    hits_ = misses_ = credits_ = 0;
}

bool Cache::access(std::uint64_t addr) noexcept {
    const std::uint32_t tag = tag_of(addr);
    const std::uint32_t set = tag & (sets_ - 1);
    std::uint32_t* t = &tags_[std::size_t{set} * ways_];
    std::uint8_t* a = &age_[std::size_t{set} * ways_];

    auto touch = [&](std::uint32_t w) {
        const std::uint8_t old = a[w];
        for (std::uint32_t k = 0; k < ways_; ++k)
            if (a[k] < old) ++a[k];
        a[w] = 0;
    };

    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (t[w] == tag) {
            touch(w);
            ++hits_;
            return true;
        }
        if (a[w] == ways_ - 1) victim = w; // unique LRU way
    }
    ++misses_;
    t[victim] = tag;
    touch(victim);
    return false;
}

bool Cache::probe(std::uint64_t addr) const noexcept {
    const std::uint32_t tag = tag_of(addr);
    const std::uint32_t set = tag & (sets_ - 1);
    const std::uint32_t* t = &tags_[std::size_t{set} * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (t[w] == tag) return true;
    return false;
}

bool Cache::retag(std::uint64_t old_addr, std::uint64_t new_addr) noexcept {
    const std::uint32_t old_tag = tag_of(old_addr);
    const std::uint32_t new_tag = tag_of(new_addr);
    const std::uint32_t set = old_tag & (sets_ - 1);
    if ((new_tag & (sets_ - 1)) != set) return false;
    std::uint32_t* t = &tags_[std::size_t{set} * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (t[w] == old_tag) {
            t[w] = new_tag;
            return true;
        }
    }
    return false;
}

} // namespace serep::sim
