#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace serep::util {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    return out;
}

void JsonWriter::pre_value() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_elem_.empty()) {
        if (has_elem_.back()) out_ << ',';
        has_elem_.back() = true;
    }
}

JsonWriter& JsonWriter::begin_object() {
    pre_value();
    out_ << '{';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    has_elem_.pop_back();
    out_ << '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    pre_value();
    out_ << '[';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    has_elem_.pop_back();
    out_ << ']';
    return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
    if (!has_elem_.empty()) {
        if (has_elem_.back()) out_ << ',';
        has_elem_.back() = true;
    }
    out_ << '"' << json_escape(k) << "\":";
    after_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
    pre_value();
    out_ << '"' << json_escape(v) << '"';
    return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(std::uint64_t v) {
    pre_value();
    out_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
    pre_value();
    out_ << v;
    return *this;
}

JsonWriter& JsonWriter::value(double v) {
    pre_value();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.10g", v);
        out_ << buf;
    } else {
        out_ << "null"; // JSON has no inf/nan
    }
    return *this;
}

JsonWriter& JsonWriter::value(bool v) {
    pre_value();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter& JsonWriter::value_null() {
    pre_value();
    out_ << "null";
    return *this;
}

// ---- parser ----

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
    if (type != Type::Object) return nullptr;
    for (const auto& [k, v] : obj)
        if (k == key) return &v;
    return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const JsonValue* v = find(key);
    check(v != nullptr, "json: missing member '" + key + "'");
    return *v;
}

const std::string& JsonValue::as_string() const {
    check(type == Type::String, "json: not a string");
    return str;
}

std::uint64_t JsonValue::as_u64() const {
    check(type == Type::Number && is_integer, "json: not an integer");
    return u64;
}

std::uint32_t JsonValue::u32_at(const std::string& key) const {
    const JsonValue& v = at(key);
    check(v.type == Type::Number && v.is_integer && v.u64 <= UINT32_MAX,
          "'" + key + "' is not a 32-bit unsigned integer");
    return static_cast<std::uint32_t>(v.u64);
}

double JsonValue::as_double() const {
    check(type == Type::Number, "json: not a number");
    return number;
}

bool JsonValue::as_bool() const {
    check(type == Type::Bool, "json: not a bool");
    return boolean;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    JsonValue document() {
        JsonValue v = value();
        skip_ws();
        check(pos_ == s_.size(), "json: trailing characters at " + here());
        return v;
    }

private:
    std::string here() const { return "offset " + std::to_string(pos_); }

    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        check(pos_ < s_.size(), "json: unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        check(pos_ < s_.size() && s_[pos_] == c,
              std::string("json: expected '") + c + "' at " + here());
        ++pos_;
    }

    bool consume_word(const char* w) {
        std::size_t n = 0;
        while (w[n]) ++n;
        if (s_.compare(pos_, n, w) != 0) return false;
        pos_ += n;
        return true;
    }

    // Recursion guard: the parser descends once per container level, so a
    // hostile/corrupt input like "[[[[..." would otherwise overflow the
    // stack instead of throwing. Shard databases nest 3 levels deep; 64 is
    // generous for any document we emit.
    static constexpr int kMaxDepth = 64;

    JsonValue value() {
        skip_ws();
        check(depth_ < kMaxDepth, "json: nesting deeper than 64 levels");
        JsonValue v;
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"':
                v.type = JsonValue::Type::String;
                v.str = string();
                return v;
            case 't':
                check(consume_word("true"), "json: bad literal at " + here());
                v.type = JsonValue::Type::Bool;
                v.boolean = true;
                return v;
            case 'f':
                check(consume_word("false"), "json: bad literal at " + here());
                v.type = JsonValue::Type::Bool;
                return v;
            case 'n':
                check(consume_word("null"), "json: bad literal at " + here());
                return v;
            default: return number();
        }
    }

    JsonValue object() {
        expect('{');
        ++depth_;
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            v.obj.emplace_back(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return v;
        }
    }

    JsonValue array() {
        expect('[');
        ++depth_;
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return v;
        }
        for (;;) {
            v.arr.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return v;
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        for (;;) {
            check(pos_ < s_.size(), "json: unterminated string");
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            check(pos_ < s_.size(), "json: unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    check(pos_ + 4 <= s_.size(), "json: short \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') cp |= h - '0';
                        else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
                        else fail("json: bad \\u escape at " + here());
                    }
                    check(cp < 0xD800 || cp > 0xDFFF,
                          "json: surrogate pairs unsupported");
                    // UTF-8 encode the BMP code point.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default: fail("json: bad escape at " + here());
            }
        }
    }

    JsonValue number() {
        const std::size_t start = pos_;
        bool integral = true;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            integral = false;
            ++pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
        }
        const std::string tok = s_.substr(start, pos_ - start);
        check(!tok.empty() && tok != "-", "json: bad number at " + here());
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = std::strtod(tok.c_str(), nullptr);
        if (integral && tok[0] != '-') {
            const char* end = tok.data() + tok.size();
            const std::from_chars_result r = std::from_chars(tok.data(), end, v.u64);
            v.is_integer = r.ec == std::errc() && r.ptr == end;
        }
        return v;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

JsonValue json_parse(const std::string& text) { return Parser(text).document(); }

} // namespace serep::util
