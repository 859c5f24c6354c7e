#include <gtest/gtest.h>

#include <string>

#include "sim/cache.hpp"
#include "sim/memory.hpp"
#include "util/check.hpp"

namespace ss = serep::sim;
namespace layout = serep::isa::layout;

TEST(Memory, KernelRegionRequiresKernelMode) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    auto t = m.translate(layout::kKernBase + 0x100, 4, true, 0);
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(t.phys, 0x100u);
    t = m.translate(layout::kKernBase + 0x100, 4, false, 0);
    EXPECT_EQ(t.fault, ss::MemFault::PERMISSION);
}

TEST(Memory, UserPagesNeedMapping) {
    ss::Memory m(2, 1 << 20, 1 << 18);
    const auto va = layout::kUserBase + 0x2000;
    EXPECT_EQ(m.translate(va, 4, false, 0).fault, ss::MemFault::UNMAPPED);
    m.map_user_range(0, va, va + layout::kPageSize);
    EXPECT_TRUE(m.translate(va, 4, false, 0).ok());
    // proc 1 still unmapped — address spaces are private
    EXPECT_EQ(m.translate(va, 4, false, 1).fault, ss::MemFault::UNMAPPED);
}

TEST(Memory, PerProcessTranslationIsDisjoint) {
    ss::Memory m(2, 1 << 20, 1 << 18);
    const auto va = layout::kUserBase;
    m.map_user_range(0, va, va + 4096);
    m.map_user_range(1, va, va + 4096);
    const auto p0 = m.translate(va, 4, false, 0).phys;
    const auto p1 = m.translate(va, 4, false, 1).phys;
    EXPECT_NE(p0, p1);
    m.store(p0, 4, 0x11111111);
    m.store(p1, 4, 0x22222222);
    EXPECT_EQ(m.load(p0, 4), 0x11111111u);
    EXPECT_EQ(m.load(p1, 4), 0x22222222u);
}

TEST(Memory, MisalignedFaults) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    EXPECT_EQ(m.translate(layout::kKernBase + 2, 4, true, 0).fault,
              ss::MemFault::MISALIGNED);
    EXPECT_EQ(m.translate(layout::kKernBase + 4, 8, true, 0).fault,
              ss::MemFault::MISALIGNED);
    EXPECT_TRUE(m.translate(layout::kKernBase + 1, 1, true, 0).ok());
}

TEST(Memory, OutOfRangeFaults) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    EXPECT_EQ(m.translate(0x1000, 4, true, 0).fault, ss::MemFault::UNMAPPED);
    EXPECT_EQ(m.translate(layout::kUserBase + (1 << 20), 4, true, 0).fault,
              ss::MemFault::UNMAPPED);
    // exactly past the region end
    EXPECT_EQ(m.translate(layout::kKernBase + (1 << 18), 4, true, 0).fault,
              ss::MemFault::UNMAPPED);
}

TEST(Memory, LoadStoreWidths) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    m.store(0x100, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.load(0x100, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.load(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.load(0x100, 1), 0x88u);
    m.store(0x100, 1, 0xFF);
    EXPECT_EQ(m.load(0x100, 4), 0x556677FFu);
}

TEST(Memory, HashChangesWithContent) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    const auto h0 = m.hash_range(0, 4096);
    m.store(0x10, 4, 1);
    EXPECT_NE(m.hash_range(0, 4096), h0);
}

TEST(Memory, HashRangeSeesEveryBitAndTheLength) {
    // Unaligned starts and lengths around the 8-byte word and 32-byte lane
    // boundaries, so the word loads, the partial lane round and the byte
    // tail each see every position.
    ss::Memory m(1, 1 << 20, 1 << 18);
    const std::uint64_t starts[] = {0, 1, 3, 7, 8, 13, 4093};
    const auto swap_words = [&](std::uint64_t a, std::uint64_t b) {
        const std::uint64_t wa = m.load(a, 8), wb = m.load(b, 8);
        for (unsigned i = 0; i < 8; ++i) {
            m.store(a + i, 1, wb >> (8 * i));
            m.store(b + i, 1, wa >> (8 * i));
        }
    };
    for (const bool zeros : {true, false}) {
        SCOPED_TRACE(zeros ? "zero memory" : "random bytes");
        if (!zeros) {
            std::uint64_t x = 0x9E3779B97F4A7C15ull;
            for (std::uint64_t a = 0; a < 8192; ++a) {
                x ^= x << 13, x ^= x >> 7, x ^= x << 17;
                m.store(a, 1, x);
            }
        }
        for (const std::uint64_t start : starts) {
            for (std::uint64_t len = 1; len <= 100; ++len) {
                SCOPED_TRACE("start " + std::to_string(start) + " length " +
                             std::to_string(len));
                const std::uint64_t h0 = m.hash_range(start, len);
                for (std::uint64_t bit = 0; bit < 8 * len; ++bit) {
                    m.flip_phys_bit(start + bit / 8, bit % 8);
                    ASSERT_NE(m.hash_range(start, len), h0) << "bit " << bit;
                    m.flip_phys_bit(start + bit / 8, bit % 8);
                }
                const std::uint64_t next = m.load(start + len, 1);
                m.store(start + len, 1, 0);
                EXPECT_NE(m.hash_range(start, len + 1), h0);
                m.store(start + len, 1, next);
                for (std::uint64_t a = 0; a + 16 <= len; a += 8) {
                    for (std::uint64_t b = a + 8; b + 8 <= len; b += 8) {
                        // The top bits of two words: a lane that only
                        // xor-multiplies would let these cancel.
                        m.flip_phys_bit(start + a + 7, 7);
                        m.flip_phys_bit(start + b + 7, 7);
                        EXPECT_NE(m.hash_range(start, len), h0)
                            << "top bits of words " << a / 8 << ", " << b / 8;
                        m.flip_phys_bit(start + a + 7, 7);
                        m.flip_phys_bit(start + b + 7, 7);
                        if (m.load(start + a, 8) == m.load(start + b, 8))
                            continue;
                        swap_words(start + a, start + b);
                        EXPECT_NE(m.hash_range(start, len), h0)
                            << "words " << a / 8 << " and " << b / 8;
                        swap_words(start + a, start + b);
                    }
                }
                ASSERT_EQ(m.hash_range(start, len), h0);
            }
        }
    }
}

TEST(Memory, FlipPhysBitIsInvolution) {
    ss::Memory m(1, 1 << 20, 1 << 18);
    m.store(0x40, 4, 0xA5A5A5A5);
    m.flip_phys_bit(0x40, 3);
    EXPECT_EQ(m.load(0x40, 1), 0xA5u ^ 0x08u);
    m.flip_phys_bit(0x40, 3);
    EXPECT_EQ(m.load(0x40, 1), 0xA5u);
}

TEST(Memory, RefusesPhysicalSizesPastTheCacheTagLimit) {
    // Cache tags hold 31-bit numbers of 64-byte lines, so physical memory
    // must stay below 2^37 bytes. Each geometry below reaches it and is
    // refused by name before anything is allocated.
    const auto refused = [](unsigned nprocs, std::uint64_t user,
                            std::uint64_t kern, std::uint64_t text) {
        try {
            ss::Memory m(nprocs, user, kern, text);
        } catch (const serep::util::Error& e) {
            return std::string(e.what()).find("2^37") != std::string::npos;
        }
        return false;
    };
    const std::uint64_t page = layout::kPageSize;
    EXPECT_TRUE(refused(8, std::uint64_t{1} << 34, 0, 0));   // exactly 2^37
    EXPECT_TRUE(refused(1, std::uint64_t{1} << 36,           // text rounds up
                        (std::uint64_t{1} << 36) - page, 1)); // to 2^37
    EXPECT_TRUE(refused(2, ~(page - 1), page, 0)); // would wrap 64 bits
    EXPECT_TRUE(refused(1, page, page, ~std::uint64_t{0}));
}

TEST(Cache, HitAfterMiss) {
    ss::Cache c(ss::kL1Config);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same 64-byte line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionOrder) {
    // 4-way: fill one set with 4 lines, touch first 3, add a 5th ->
    // the untouched 4th line is the victim.
    ss::Cache c(ss::CacheConfig{4 * 64, 4, 64}); // 1 set, 4 ways
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(c.access(i * 64));
    EXPECT_TRUE(c.access(0 * 64));
    EXPECT_TRUE(c.access(1 * 64));
    EXPECT_TRUE(c.access(2 * 64));
    EXPECT_FALSE(c.access(4 * 64)); // evicts line 3
    EXPECT_TRUE(c.access(0 * 64));
    EXPECT_FALSE(c.access(3 * 64)); // line 3 gone
}

TEST(Cache, ResetClears) {
    ss::Cache c(ss::kL1Config);
    c.access(0x0);
    c.access(0x0);
    c.reset();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_FALSE(c.access(0x0));
}

TEST(Cache, SetsArePowerOfTwoConfig) {
    // 32 KiB 4-way 64B lines = 128 sets; distinct sets don't conflict.
    ss::Cache c(ss::kL1Config);
    for (int i = 0; i < 128; ++i) EXPECT_FALSE(c.access(std::uint64_t(i) * 64));
    for (int i = 0; i < 128; ++i) EXPECT_TRUE(c.access(std::uint64_t(i) * 64));
}

TEST(Cache, TagsHoldTheHighestInRangeLine) {
    // The last 64-byte line below kMaxPhysBytes has line number 2^31 - 1:
    // every tag operation must keep it apart from its same-set alias that
    // differs only in the top line bit, and from an empty way.
    const std::uint64_t top = ss::kMaxPhysBytes - 64;
    const std::uint64_t alias = top ^ (ss::kMaxPhysBytes >> 1);
    ss::Cache c(ss::kL2Config);
    const std::uint32_t set = static_cast<std::uint32_t>(top >> 6) & (c.sets() - 1);
    EXPECT_FALSE(c.probe(top));
    EXPECT_FALSE(c.access(top));
    EXPECT_TRUE(c.probe(top));
    EXPECT_TRUE(c.access(top + 63));
    EXPECT_FALSE(c.probe(alias));
    std::uint32_t way = c.ways();
    for (std::uint32_t w = 0; w < c.ways(); ++w)
        if (c.line_at(set, w) == top) way = w;
    ASSERT_LT(way, c.ways());

    EXPECT_TRUE(c.retag(top, alias));
    EXPECT_EQ(c.line_at(set, way), alias);
    EXPECT_FALSE(c.probe(top));
    EXPECT_TRUE(c.probe(alias));
    EXPECT_TRUE(c.retag(alias, top));
    EXPECT_EQ(c.line_at(set, way), top);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);

    // Two caches whose only difference is that line's top bit.
    ss::Cache a(ss::kL2Config), b(ss::kL2Config);
    a.access(top);
    b.access(alias);
    EXPECT_FALSE(a.same_lines(b));
    ASSERT_TRUE(b.retag(alias, top));
    EXPECT_TRUE(a.same_lines(b));
}
