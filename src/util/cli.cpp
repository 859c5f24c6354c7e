#include "util/cli.hpp"

#include <cstdlib>

#include "util/check.hpp"

namespace serep::util {

Cli::Cli(int argc, const char* const* argv,
         std::initializer_list<const char*> bool_flags) {
    const auto is_bool = [&](const std::string& key) {
        for (const char* f : bool_flags)
            if (key == f) return true;
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (!is_bool(arg) && i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            kv_[arg] = argv[++i];
        } else {
            kv_[arg] = "1";
        }
    }
}

std::string Cli::get(const std::string& key, const std::string& dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t dflt) const {
    const auto it = kv_.find(key);
    // Base 0 auto-detects 0x-prefixed hex, so `--seed=0xDAC2018` means what
    // it says instead of silently parsing as 0.
    return it == kv_.end() ? dflt : std::strtoll(it->second.c_str(), nullptr, 0);
}

double Cli::get_double(const std::string& key, double dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
}

void Cli::require_known(std::initializer_list<const char*> known) const {
    std::string offenders;
    for (const auto& kv : kv_) {
        if (kv.first == "help") continue;
        bool ok = false;
        for (const char* k : known) ok = ok || kv.first == k;
        if (!ok) offenders += (offenders.empty() ? "--" : ", --") + kv.first;
    }
    if (offenders.empty()) return;
    if (known.size() == 0)
        fail_usage("unknown flag " + offenders +
                   " (this command takes no --flags)");
    std::string expected;
    for (const char* k : known)
        expected += (expected.empty() ? "--" : ", --") + std::string(k);
    fail_usage("unknown flag " + offenders + " (known flags here: " +
               expected + ")");
}

} // namespace serep::util
