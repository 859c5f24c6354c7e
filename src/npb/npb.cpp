#include "npb/npb.hpp"

#include "npb/common.hpp"
#include "os/kernel.hpp"
#include "os/loader.hpp"
#include "rt/libmpi.hpp"
#include "rt/libomp.hpp"
#include "rt/librt.hpp"
#include "rt/softfloat.hpp"
#include "util/check.hpp"

namespace serep::npb {

const char* app_name(App a) noexcept {
    switch (a) {
        case App::BT: return "BT";
        case App::CG: return "CG";
        case App::DC: return "DC";
        case App::DT: return "DT";
        case App::EP: return "EP";
        case App::FT: return "FT";
        case App::IS: return "IS";
        case App::LU: return "LU";
        case App::MG: return "MG";
        case App::SP: return "SP";
        case App::UA: return "UA";
    }
    return "??";
}

const char* api_name(Api a) noexcept {
    switch (a) {
        case Api::Serial: return "SER";
        case Api::OMP: return "OMP";
        case Api::MPI: return "MPI";
    }
    return "??";
}

const char* klass_name(Klass k) noexcept {
    switch (k) {
        case Klass::Mini: return "Mini";
        case Klass::S: return "S";
        case Klass::W: return "W";
    }
    return "??";
}

bool klass_from_name(const std::string& name, Klass& out) noexcept {
    for (Klass k : {Klass::Mini, Klass::S, Klass::W}) {
        if (name == klass_name(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

bool app_has_api(App app, Api api) noexcept {
    if (api == Api::MPI) return app != App::DC && app != App::UA;
    if (api == Api::OMP) return app != App::DT;
    return true; // serial versions of everything (DT-serial is the extra
                 // variant shown in the paper's Fig. 2a SER-1 column)
}

bool mpi_cores_allowed(App app, unsigned cores) noexcept {
    if (app == App::BT || app == App::SP) {
        // square process counts only (1, 4, 9, ...)
        unsigned r = 1;
        while (r * r < cores) ++r;
        return r * r == cores;
    }
    return true;
}

std::string Scenario::name() const {
    return std::string(isa::profile_name(isa)) + "-" + app_name(app) + "-" +
           api_name(api) + "-" + std::to_string(cores);
}

std::vector<Scenario> paper_scenarios(Klass k) {
    std::vector<Scenario> v;
    for (isa::Profile p : {isa::Profile::V7, isa::Profile::V8}) {
        // 10 serial apps (the paper's count excludes DT-serial)
        for (App app : kAllApps) {
            if (app == App::DT) continue;
            v.push_back({p, app, Api::Serial, 1, k});
        }
        for (App app : kAllApps) {
            if (!app_has_api(app, Api::OMP)) continue;
            for (unsigned cores : {1u, 2u, 4u})
                v.push_back({p, app, Api::OMP, cores, k});
        }
        for (App app : kAllApps) {
            if (!app_has_api(app, Api::MPI)) continue;
            for (unsigned cores : {1u, 2u, 4u}) {
                if (!mpi_cores_allowed(app, cores)) continue;
                v.push_back({p, app, Api::MPI, cores, k});
            }
        }
    }
    return v;
}

bool uses_u32_checksum(App app) noexcept {
    return app == App::IS || app == App::DC || app == App::DT;
}

double ref_checksum_f64(App app, Klass k) {
    const Params& p = params_for(k);
    switch (app) {
        case App::EP: return ref_ep(p);
        case App::CG: return ref_cg(p);
        case App::MG: return ref_mg(p);
        case App::FT: return ref_ft(p);
        case App::LU: return ref_lu(p);
        case App::SP: return ref_sp(p);
        case App::BT: return ref_bt(p);
        case App::UA: return ref_ua(p);
        default: util::fail("app uses an integer checksum");
    }
}

std::uint32_t ref_checksum_u32(App app, Klass k) {
    const Params& p = params_for(k);
    switch (app) {
        case App::IS: return ref_is(p);
        case App::DC: return ref_dc(p);
        case App::DT: return ref_dt(p);
        default: util::fail("app uses an FP checksum");
    }
}

BuiltProgram build_program(const Scenario& s) {
    util::check(app_has_api(s.app, s.api), "scenario: API not available");
    util::check(s.api != Api::MPI || mpi_cores_allowed(s.app, s.cores),
                "scenario: MPI core count not allowed");
    kasm::Assembler a(s.isa);
    const unsigned procs = s.api == Api::MPI ? s.cores : 1;
    os::KernelConfig kc;
    const os::KLayout layout = os::build_kernel(a, procs, kc);
    rt::build_librt(a);
    if (s.isa == isa::Profile::V7) rt::build_softfloat(a);
    if (s.api == Api::OMP) rt::build_libomp(a);
    if (s.api == Api::MPI) rt::build_libmpi(a);
    emit_common_data(a);

    a.func("main", kasm::ModTag::APP);
    a.set_user_entry(a.here());
    kgen::CodegenOptions copts;
    copts.contract_fma = s.contract_fma;
    Ctx c(a, s.api, params_for(s.klass), copts);
    c.main_prologue();
    switch (s.app) {
        case App::BT: emit_bt(c); break;
        case App::CG: emit_cg(c); break;
        case App::DC: emit_dc(c); break;
        case App::DT: emit_dt(c); break;
        case App::EP: emit_ep(c); break;
        case App::FT: emit_ft(c); break;
        case App::IS: emit_is(c); break;
        case App::LU: emit_lu(c); break;
        case App::MG: emit_mg(c); break;
        case App::SP: emit_sp(c); break;
        case App::UA: emit_ua(c); break;
    }
    auto image = std::make_shared<const kasm::Image>(a.finalize());
    return BuiltProgram{std::move(image), layout, procs};
}

sim::Machine make_machine(const Scenario& s, bool profile) {
    BuiltProgram bp = build_program(s);
    os::BootConfig bc;
    bc.cores = s.cores;
    bc.procs = bp.procs;
    bc.profile = profile;
    return os::boot_machine(std::move(bp.image), bp.layout, bc);
}

} // namespace serep::npb
