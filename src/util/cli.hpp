// Tiny command-line flag parser for the bench harnesses, examples, and the
// serep tool. Supports `--key value`, `--key=value`, boolean `--flag`, and
// positional operands (subcommands, input files) collected in argv order.
//
// The `--flag positional` ambiguity: a bare `--key` greedily takes the next
// non-flag token as its value, so `serep report --partial out.csv` used to
// swallow the input file as the value of --partial. Commands resolve this by
// declaring their boolean flags up front (`bool_flags`): a declared flag
// never consumes the following token. Undeclared keys keep the greedy
// `--key value` form, so pass `--key=value` when positionals follow one.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace serep::util {

/// The whole of `text` as a decimal or 0x-hex unsigned 64-bit integer, or
/// nullopt. Every integer a flag or a spec spells as text reads through
/// this: strtoull alone stops at the first stray byte (`8x` is 8), clamps
/// on overflow, skips blanks, takes a `+` or a negating `-`, and base 0
/// reads `010` as octal 8 (here it is decimal 10).
std::optional<std::uint64_t> parse_u64(std::string_view text);

class Cli {
public:
    /// `bool_flags` names the value-less flags of this command; a bare
    /// occurrence parses as "1" instead of eating the next positional.
    Cli(int argc, const char* const* argv,
        std::initializer_list<const char*> bool_flags = {});

    bool has(const std::string& key) const { return kv_.count(key) != 0; }
    std::string get(const std::string& key, const std::string& dflt) const;
    /// The whole value must be a decimal or 0x-hex int64 (get_int) or a
    /// finite number (get_double); else a util::UsageError names the flag.
    std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
    double get_double(const std::string& key, double dflt) const;

    /// Arguments that are neither flags nor flag values, in argv order.
    const std::vector<std::string>& positional() const { return positional_; }

    /// The unknown-flag audit: throw util::UsageError naming every parsed
    /// --flag outside `known` ("--help" is always allowed). A mistyped flag
    /// must never be silently ignored (`--fault=500` for `--faults=500`
    /// would otherwise run the default fault count).
    void require_known(std::initializer_list<const char*> known) const;

private:
    std::map<std::string, std::string> kv_;
    std::vector<std::string> positional_;
};

} // namespace serep::util
