// Per-op execution handlers for the trace engine's dispatch table.
//
// One function per µISA opcode, semantically identical to the corresponding
// case of the reference switch in sim/machine.cpp (kept behind
// Machine::set_engine(Engine::Switch) as the independent oracle; the two
// are cross-checked instruction-by-instruction and campaign-by-campaign in
// tests/engine_test.cpp). The integer data ops (MOVI..CSET) are not
// written here: each is an instance of the shared evaluator in isa/alu.hpp,
// which the prune walker evaluates too. So the handlers are independent of
// the switch — sharing with it would turn the differential tests into
// tautologies — but not of prune, which cannot drift from them.
#pragma once

#include "isa/op.hpp"
#include "sim/exec_cache.hpp"

namespace serep::sim {

/// Handler for `op` in the dispatch table (never null; UDF handles the rest).
ExecHandler exec_handler(isa::Op op) noexcept;

} // namespace serep::sim
