// NPB-family benchmark suite for the reproduction.
//
// Eleven kernels mirroring the NAS Parallel Benchmark families (scaled to
// simulator-friendly sizes, see DESIGN.md §5), each emitted for both ISA
// profiles and in Serial / OMP / MPI variants. Every kernel self-verifies
// against a host-computed reference checksum and prints NPB-style
// "VERIFICATION SUCCESSFUL/FAILED" plus the checksum bits (so silent data
// corruption shows up in the console/memory comparison).
//
// Availability matches the paper: OMP/serial = {BT CG DC EP FT IS LU MG SP
// UA}, MPI = {BT CG DT EP FT IS LU MG SP}; BT and SP have no dual-core MPI
// configuration (square process counts) — 65 scenarios per ISA, 130 total.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kasm/image.hpp"
#include "os/klayout.hpp"
#include "sim/machine.hpp"

namespace serep::npb {

enum class App : std::uint8_t { BT, CG, DC, DT, EP, FT, IS, LU, MG, SP, UA };
enum class Api : std::uint8_t { Serial, OMP, MPI };
enum class Klass : std::uint8_t { Mini, S, W };

inline constexpr App kAllApps[] = {App::BT, App::CG, App::DC, App::DT,
                                   App::EP, App::FT, App::IS, App::LU,
                                   App::MG, App::SP, App::UA};

const char* app_name(App a) noexcept;
const char* api_name(Api a) noexcept;
const char* klass_name(Klass k) noexcept;
/// Strict inverse of klass_name ("Mini" / "S" / "W"); false on anything else.
bool klass_from_name(const std::string& name, Klass& out) noexcept;

/// Does this (app, api) combination exist (paper §3.3.2)?
bool app_has_api(App app, Api api) noexcept;
/// MPI core-count restriction: BT and SP require square process counts.
bool mpi_cores_allowed(App app, unsigned cores) noexcept;

/// One fault-injection scenario (a cell of Figures 2/3).
struct Scenario {
    isa::Profile isa = isa::Profile::V7;
    App app = App::EP;
    Api api = Api::Serial;
    unsigned cores = 1; ///< machine cores; MPI ranks == cores, OMP team == cores
    Klass klass = Klass::S;
    bool contract_fma = true; ///< codegen flag ablation (paper future work)

    std::string name() const;
};

/// The paper's 130 scenarios (65 per ISA).
std::vector<Scenario> paper_scenarios(Klass k);

/// Build the full linked image (kernel + runtimes + application).
struct BuiltProgram {
    std::shared_ptr<const kasm::Image> image;
    os::KLayout layout;
    unsigned procs; ///< address spaces (ranks for MPI, 1 otherwise)
};
BuiltProgram build_program(const Scenario& s);

/// Build + boot a ready-to-run machine for the scenario.
sim::Machine make_machine(const Scenario& s, bool profile);

/// Host-side reference checksums (baked into the guest for verification).
double ref_checksum_f64(App app, Klass k);
std::uint32_t ref_checksum_u32(App app, Klass k);
/// True when the app verifies an exact integer checksum (IS, DC, DT).
bool uses_u32_checksum(App app) noexcept;

} // namespace serep::npb
