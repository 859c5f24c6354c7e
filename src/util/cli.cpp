#include "util/cli.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace serep::util {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
    const bool hex = text.size() >= 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    if (hex) text.remove_prefix(2);
    // from_chars takes no blank, sign or prefix, and reports overflow.
    std::uint64_t n = 0;
    const char* last = text.data() + text.size();
    const auto [end, err] = std::from_chars(text.data(), last, n, hex ? 16 : 10);
    if (text.empty() || err != std::errc() || end != last) return std::nullopt;
    return n;
}

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
    if (it == kv_.end()) return dflt;
    // The whole value, decimal or 0x-hex (`--seed=0xDAC2018`), or its
    // negation: a magnitude up to 2^63 - 1, or 2^63 after a `-`.
    const std::string& v = it->second;
    const bool neg = v.rfind('-', 0) == 0;
    const std::optional<std::uint64_t> mag =
        parse_u64(std::string_view(v).substr(neg ? 1 : 0));
    const std::uint64_t limit =
        std::uint64_t{std::numeric_limits<std::int64_t>::max()} + (neg ? 1 : 0);
    check_usage(mag && *mag <= limit,
                "--" + key + " must be a decimal or 0x-hex 64-bit integer, "
                "got '" + v + "'");
    if (!neg) return static_cast<std::int64_t>(*mag);
    return *mag == 0 ? 0 : -static_cast<std::int64_t>(*mag - 1) - 1;
}

double Cli::get_double(const std::string& key, double dflt) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    const std::string& v = it->second;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    check_usage(!v.empty() && !std::isspace(static_cast<unsigned char>(v[0])) &&
                    end == v.c_str() + v.size() && std::isfinite(d),
                "--" + key + " must be a finite number, got '" + v + "'");
    return d;
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
