// Shared helpers for simulator-level tests: assemble a snippet and run it;
// write a batch's results as the streams a campaign writes.
#pragma once

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "kasm/assembler.hpp"
#include "sim/machine.hpp"

namespace serep::test {

using isa::Profile;
using kasm::Assembler;
using kasm::ModTag;

inline constexpr std::uint64_t kKernStackTop(unsigned core) {
    return isa::layout::kKernBase + isa::layout::kDefaultKernSize - 4096 * core;
}

/// Assemble `body` as kernel-mode code at the boot entry of every core and
/// run it. The body must eventually write SHUTDOWN (helper `finish` below)
/// or halt. Returns the machine for inspection.
inline sim::Machine run_kernel_snippet(Profile p,
                                       const std::function<void(Assembler&)>& body,
                                       unsigned cores = 1, unsigned procs = 1,
                                       std::uint64_t budget = 1000000) {
    Assembler a(p);
    a.func("boot", ModTag::KERNEL);
    a.set_kernel_boot(a.here());
    body(a);
    a.end_kernel_text();

    auto img = std::make_shared<const kasm::Image>(a.finalize());
    sim::MachineConfig cfg;
    cfg.cores = cores;
    cfg.procs = procs;
    sim::Machine m(std::move(img), cfg);
    sim::load_image_data(m);
    for (unsigned c = 0; c < cores; ++c) {
        m.core(c).regs.set_pc(m.image().kernel_boot);
        m.core(c).regs.set_sp(kKernStackTop(c));
    }
    m.run_until(budget);
    return m;
}

/// Emit "write SHUTDOWN with code" using the given scratch register.
inline void finish(Assembler& a, unsigned code = 0) {
    const auto t = a.tmp(0);
    a.movi(t, code);
    a.syswr(isa::SysReg::SHUTDOWN, t);
}

/// The merged per-fault CSV (one header) and per-campaign JSONL of
/// `results`, in order — the bytes a campaign writes for them.
struct CampaignStreams {
    std::string csv, jsonl;
};
inline CampaignStreams campaign_streams(
    const std::vector<core::CampaignResult>& results) {
    std::ostringstream csv, jsonl;
    for (std::size_t j = 0; j < results.size(); ++j)
        core::write_campaign_streams(results[j], &csv, &jsonl, j == 0);
    return {csv.str(), jsonl.str()};
}

} // namespace serep::test
