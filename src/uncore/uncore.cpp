#include "uncore/uncore.hpp"

#include <array>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace serep::uncore {

namespace {

namespace tm = telemetry;

constexpr std::uint64_t kLineMask = ~std::uint64_t{63}; // 64-byte lines

void count_one(const char* name) {
    if (!tm::enabled()) return;
    tm::count(tm::counter_id(name), 1);
}

unsigned level_set_bits(unsigned level) noexcept {
    const sim::CacheConfig& cfg =
        level == kLevelL1D ? sim::kL1Config : sim::kL2Config;
    unsigned bits = 0;
    for (std::uint32_t sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes);
         sets > 1; sets >>= 1)
        ++bits;
    return bits;
}

/// The injection-state machine, armed on the fault-run clone as its
/// sim::UncoreHook. One Model tracks exactly one fault; it lives as long as
/// the machine it is attached to (the machine owns the shared_ptr).
class Model final : public sim::UncoreHook {
public:
    explicit Model(const core::FaultTarget& t) : t_(t) {}

    /// Mutate `m` per the fault kind; returns true when the model needs to
    /// keep observing the run (hook worth arming). A false return means the
    /// strike is dead on arrival and `m` has not been touched at all —
    /// uncore::inject's caller relies on that.
    bool arm(sim::Machine& m) {
        switch (t_.kind) {
            case core::FaultTarget::Kind::CacheData: return arm_cache_data(m);
            case core::FaultTarget::Kind::CacheTag: return arm_cache_tag(m);
            case core::FaultTarget::Kind::Bus:
                bus_armed_ = true;
                return true;
            default: return false; // unreachable: inject() gates the kind
        }
    }

    void on_data_access(sim::Machine& m, unsigned ci, std::uint64_t phys,
                        unsigned size, bool write, bool l1_hit, bool l2_hit,
                        bool cached) override {
        settle_pending(m);
        if (bus_armed_ && ci == t_.core) consume_bus(m, phys, size, write);
        if (watching_) watch_event(m, phys, write, l1_hit, l2_hit, cached);
    }

    void on_run_boundary(sim::Machine& m) override { settle_pending(m); }

    /// No watched line, no armed bus one-shot, no pending flip or restore:
    /// on_data_access and on_run_boundary would both do nothing.
    bool settled() const noexcept override {
        return !watching_ && !bus_armed_ && !bus_flip_pending_ &&
               !bus_restore_pending_;
    }

private:
    sim::Cache& cache(sim::Machine& m) const {
        return level_ == kLevelL1D ? m.l1d_cache(t_.core) : m.l2_cache();
    }

    /// Resolve the struck cell (t_.phys = set * ways + way) to the line it
    /// holds at the injection instant; ~0ULL when the cell is empty.
    std::uint64_t struck_line(sim::Machine& m) const {
        const sim::Cache& c = cache(m);
        return c.line_at(static_cast<std::uint32_t>(t_.phys / c.ways()),
                         static_cast<std::uint32_t>(t_.phys % c.ways()));
    }

    bool arm_cache_data(sim::Machine& m) {
        level_ = t_.reg;
        const std::uint64_t line_addr = struck_line(m);
        if (line_addr == ~0ULL) {
            count_one("uncore.masked_no_line");
            return false;
        }
        // The cached copy serves every read while the line is resident, so
        // flipping backing memory IS the corrupted-cached-copy view; the
        // watch decides whether eviction drops or commits it.
        flip_phys_ = line_addr + (t_.bit >> 3) % 64;
        flip_bit_ = t_.bit % 8;
        m.flip_mem(flip_phys_, flip_bit_);
        watch_addr_ = line_addr;
        watching_ = true;
        return true;
    }

    bool arm_cache_tag(sim::Machine& m) {
        level_ = t_.reg;
        sim::Cache& c = cache(m);
        const std::uint64_t line_addr = struck_line(m);
        if (line_addr == ~0ULL) {
            count_one("uncore.masked_no_line");
            return false;
        }
        const unsigned tb =
            t_.bit % tag_bit_count(level_, m.mem().phys_size());
        const std::uint64_t alias_addr =
            line_addr ^ (std::uint64_t{1} << (c.line_shift() + c.set_bits() + tb));
        if (alias_addr + 64 > m.mem().phys_size()) {
            count_one("uncore.masked_out_of_range");
            return false;
        }
        // The way now claims the alias line while physically holding the
        // victim's data: save the alias line's bytes, overlay them with the
        // victim's, and rewrite the tag. Alias-line reads hit the aliased
        // way (and see the victim's data); victim-line reads miss and
        // refetch intact backing memory.
        for (unsigned i = 0; i < 8; ++i)
            saved_[i] = m.mem().load(alias_addr + 8 * i, 8);
        for (unsigned i = 0; i < 8; ++i)
            m.mem().store(alias_addr + 8 * i, 8,
                          m.mem().load(line_addr + 8 * i, 8));
        c.retag(line_addr, alias_addr);
        tag_fault_ = true;
        watch_addr_ = alias_addr;
        watching_ = true;
        return true;
    }

    void watch_event(sim::Machine& m, std::uint64_t phys, bool write,
                     bool l1_hit, bool l2_hit, bool cached) {
        // Aligned accesses of <= 8 bytes never straddle a 64-byte line.
        if ((phys & kLineMask) == watch_addr_) {
            if (cached) {
                const bool resident_before =
                    level_ == kLevelL1D ? l1_hit : (l1_hit || l2_hit);
                if (!resident_before) {
                    // The watched line was evicted since the last data
                    // access (an I-fetch or a same-set D-allocation we see
                    // only now): settle *before* this access's bytes move.
                    settle_eviction(m);
                    return;
                }
            }
            if (write) dirty_ = true;
            return;
        }
        if (cached && !cache(m).probe(watch_addr_)) settle_eviction(m);
    }

    void settle_eviction(sim::Machine& m) {
        watching_ = false;
        if (dirty_) {
            // The dirty aliased/corrupted way writes back: backing memory
            // already reflects every store that went through it, so the
            // corruption is committed by doing nothing.
            count_one("uncore.writeback_committed");
            return;
        }
        if (tag_fault_) {
            for (unsigned i = 0; i < 8; ++i)
                m.mem().store(watch_addr_ + 8 * i, 8, saved_[i]);
        } else {
            m.flip_mem(flip_phys_, flip_bit_);
        }
        count_one("uncore.masked_by_eviction");
    }

    void consume_bus(sim::Machine& m, std::uint64_t phys, unsigned size,
                     bool write) {
        bus_armed_ = false;
        const unsigned b = t_.bit % (size * 8);
        bus_phys_ = phys + b / 8;
        bus_bit_ = b % 8;
        if (write) {
            // The value was corrupted in flight: flip the landed byte right
            // after the store — i.e. at the next hook event or run boundary
            // (this hook fires before the bytes move).
            bus_flip_pending_ = true;
        } else {
            // The memory cell was never wrong, only the transfer: flip now
            // so the load reads the corrupted value, undo at the next event.
            m.flip_mem(bus_phys_, bus_bit_);
            bus_restore_pending_ = true;
        }
        count_one("uncore.bus_corrupted");
    }

    void settle_pending(sim::Machine& m) {
        if (bus_flip_pending_) {
            m.flip_mem(bus_phys_, bus_bit_);
            bus_flip_pending_ = false;
        }
        if (bus_restore_pending_) {
            m.flip_mem(bus_phys_, bus_bit_);
            bus_restore_pending_ = false;
        }
    }

    core::FaultTarget t_;
    unsigned level_ = kLevelL1D;
    // cache-line watch (cache-tag / cache-data)
    bool watching_ = false;
    bool dirty_ = false;
    bool tag_fault_ = false;
    std::uint64_t watch_addr_ = 0; ///< line-aligned; the alias line for tag faults
    std::uint64_t flip_phys_ = 0;  ///< cache-data undo point
    unsigned flip_bit_ = 0;
    std::array<std::uint64_t, 8> saved_{}; ///< alias line's pristine bytes
    // one-shot bus corruption
    bool bus_armed_ = false;
    bool bus_flip_pending_ = false;    ///< store: flip after the bytes land
    bool bus_restore_pending_ = false; ///< load: undo the pre-load flip
    std::uint64_t bus_phys_ = 0;
    unsigned bus_bit_ = 0;
};

} // namespace

const char* level_name(unsigned level) noexcept {
    return level == kLevelL1D ? "L1D" : "L2";
}

unsigned cell_count(unsigned level) noexcept {
    const sim::CacheConfig& cfg =
        level == kLevelL1D ? sim::kL1Config : sim::kL2Config;
    return cfg.size_bytes / cfg.line_bytes; // sets * ways
}

unsigned tag_bit_count(unsigned level, std::uint64_t phys_size) noexcept {
    const unsigned low = 6 /* line */ + level_set_bits(level);
    unsigned top = 0; // highest bit index below phys_size
    for (std::uint64_t s = phys_size >> 1; s; s >>= 1) ++top;
    return top > low ? top - low : 1;
}

bool inject(sim::Machine& m, const core::FaultTarget& t) {
    util::check(core::is_uncore_kind(t.kind),
                "uncore::inject: not an uncore fault kind");
    count_one("uncore.injected");
    auto model = std::make_shared<Model>(t);
    if (!model->arm(m)) return false;
    m.set_uncore_hook(std::move(model));
    return true;
}

} // namespace serep::uncore
