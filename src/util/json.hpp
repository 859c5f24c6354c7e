// Minimal streaming JSON writer — the campaign database's JSON sibling to
// CsvWriter. Emits compact RFC 8259 output; commas and string escaping are
// handled by a container-state stack so callers just nest begin/end calls.
//
// json_parse() is the reader half: a small recursive-descent parser into a
// JsonValue tree, used by the shard merger to read shard outcome databases
// (manifest + record lines). Integer literals are kept exact as uint64 in
// addition to the double view, so 64-bit ids and seeds round-trip; one past
// 2^64 - 1 is no integer at all, so as_u64 refuses it rather than clamp it.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace serep::util {

std::string json_escape(const std::string& s);

/// Parsed JSON document node. Object member order is preserved.
struct JsonValue {
    enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::uint64_t u64 = 0;     ///< exact value for non-negative integer literals
    bool is_integer = false;   ///< u64 is valid
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    const JsonValue* find(const std::string& key) const noexcept;
    /// Member lookup that throws util::Error when absent (manifest fields).
    const JsonValue& at(const std::string& key) const;
    /// Typed accessors; throw util::Error on a type mismatch.
    const std::string& as_string() const;
    std::uint64_t as_u64() const;
    /// at(key).as_u64() narrowed to 32 bits: anything else throws
    /// util::Error naming the key, so a forged 2^32 + k never aliases k.
    std::uint32_t u32_at(const std::string& key) const;
    double as_double() const;
    bool as_bool() const;
};

/// Parse one JSON document (throws util::Error on malformed input or
/// trailing garbage). Supports the RFC 8259 grammar emitted by JsonWriter;
/// \uXXXX escapes outside the Basic Multilingual Plane are rejected.
JsonValue json_parse(const std::string& text);

class JsonWriter {
public:
    explicit JsonWriter(std::ostream& out) : out_(out) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// Emit an object key; the next value/begin call is its value.
    JsonWriter& key(const std::string& k);

    JsonWriter& value(const std::string& v);
    JsonWriter& value(const char* v);
    JsonWriter& value(std::uint64_t v);
    JsonWriter& value(std::int64_t v);
    JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
    JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter& value(double v);
    JsonWriter& value(bool v);
    JsonWriter& value_null();

private:
    void pre_value();

    std::ostream& out_;
    /// One entry per open container: true once it holds an element.
    std::vector<bool> has_elem_;
    bool after_key_ = false;
};

} // namespace serep::util
