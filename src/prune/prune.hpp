// Fault pruning by inference (dynamic def-use analysis over the golden run).
//
// A single-bit fault only matters once the corrupted state is *used* in a way
// that can change the machine's future: fetched as a jump/branch decision,
// used as a memory address, or written to a system register with behavioral
// side effects. Until such a "real use", the faulty machine is the golden
// machine plus a sparse XOR diff that every data instruction transforms
// *exactly* — the µISA is deterministic and fully enumerable, so the diff
// after `rd = op(rn, rm)` is just `golden_result ^ op(faulty_inputs)`.
//
// The analyzer replays the golden execution once with a sim::StepObserver
// attached and walks every fault's diff through it:
//  * faults whose diff dies (overwritten) or lies at rest when the run ends
//    are classified directly from the final diff — no simulation (Infer),
//  * faults whose diff reaches a real use are simulated (Simulate).
// Each fault is planned on its own: its plan depends only on the golden run
// and the fault itself, never on the other faults of the list.
//
// Soundness rests on the same determinism contract the execution engines
// already share: timing, cache and scheduler evolution depend only on
// addresses, branch decisions and op identities, all of which are bit-equal
// between the golden and the faulty run up to the first real use. The walk
// additionally relies on on_step firing exactly once per retired
// instruction under every engine — superblock traces included (the trace
// engine keeps the observer callback per step; engine_test gates this) —
// since a skipped callback would silently corrupt the XOR diff.
// The differential check (`serep run --prune=verify`) re-simulates a seeded
// sample of inferred faults and fails loudly on any outcome mismatch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"
#include "npb/npb.hpp"

namespace serep::prune {

/// What to do for one fault of a job's fault list.
struct FaultPlan {
    enum class Action : std::uint8_t {
        Simulate, ///< the diff reaches a real use — run the real injection
        Infer,    ///< outcome known from the diff walk; `outcome`/`retired` set
    };
    Action action = Action::Simulate;
    core::Outcome outcome = core::Outcome::Vanished; ///< Infer only
    std::uint64_t retired = 0;   ///< Infer only: retired == golden total
};

struct PruneAnalysis {
    std::vector<FaultPlan> plan; ///< parallel to the input fault list
    std::size_t n_simulate = 0;
    std::size_t n_infer = 0;
    /// Always 0: no fault takes another fault's record. The campaign
    /// benchmark's harness (bench/campaign/bench_campaign.cpp) still reads
    /// it; it goes when a change to the benchmark drops that read.
    std::size_t n_follow = 0;
};

/// Replay the scenario's golden execution once (instrumented) and plan
/// every fault of `faults` on its own. Deterministic: same scenario + fault
/// + engine always yields the same plan, whatever else the list holds — so
/// a shard, which passes its job's post-filter list, plans each fault as
/// the unsharded run does.
PruneAnalysis analyze(const npb::Scenario& s, sim::Engine engine,
                      const std::vector<core::Fault>& faults);

} // namespace serep::prune
