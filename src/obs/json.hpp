#pragma once
// Minimal JSON support for the observability layer.
//
// The flight recorder emits two machine-readable formats — Chrome-trace
// JSON and JSON-Lines metric records — and the CI checker must be able to
// verify them without external dependencies. This header provides both
// halves: an append-only object/array builder that can only produce valid
// JSON (non-finite doubles become null rather than the illegal bare NaN),
// and one strict recursive-descent parser into a small DOM. valid() is
// "parse() succeeds", so a document is valid exactly when the offline
// readers (obs/report.hpp, examples/obs_check.cpp) can read it.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tp::obs::json {

namespace detail {

/// Length of the well-formed UTF-8 sequence starting at `s[i]`, or 0 when
/// the bytes there are not valid UTF-8 (truncated, overlong, surrogate,
/// or > U+10FFFF). Table straight from RFC 3629.
inline int utf8_sequence_length(std::string_view s, std::size_t i) {
    const auto b0 = static_cast<unsigned char>(s[i]);
    if (b0 < 0x80) return 1;
    const auto cont = [&](std::size_t k, unsigned char lo,
                          unsigned char hi) {
        if (i + k >= s.size()) return false;
        const auto b = static_cast<unsigned char>(s[i + k]);
        return b >= lo && b <= hi;
    };
    const auto tail = [&](std::size_t k) { return cont(k, 0x80, 0xBF); };
    if (b0 >= 0xC2 && b0 <= 0xDF) return tail(1) ? 2 : 0;
    if (b0 == 0xE0) return cont(1, 0xA0, 0xBF) && tail(2) ? 3 : 0;
    if (b0 >= 0xE1 && b0 <= 0xEC) return tail(1) && tail(2) ? 3 : 0;
    if (b0 == 0xED) return cont(1, 0x80, 0x9F) && tail(2) ? 3 : 0;
    if (b0 >= 0xEE && b0 <= 0xEF) return tail(1) && tail(2) ? 3 : 0;
    if (b0 == 0xF0) return cont(1, 0x90, 0xBF) && tail(2) && tail(3) ? 4 : 0;
    if (b0 >= 0xF1 && b0 <= 0xF3) return tail(1) && tail(2) && tail(3) ? 4 : 0;
    if (b0 == 0xF4) return cont(1, 0x80, 0x8F) && tail(2) && tail(3) ? 4 : 0;
    return 0;
}

}  // namespace detail

/// Append `s` to `out` as a quoted JSON string with all mandatory escapes.
/// Well-formed UTF-8 passes through verbatim; bytes that are NOT valid
/// UTF-8 (a host name or __VERSION__ string in some legacy encoding) are
/// escaped as \u00XX, i.e. re-interpreted as Latin-1 — lossy about the
/// original encoding but always a strictly valid JSON document, which is
/// the property the manifest contract needs.
inline void append_escaped(std::string& out, std::string_view s) {
    out.push_back('"');
    for (std::size_t i = 0; i < s.size();) {
        const char c = s[i];
        switch (c) {
        case '"': out += "\\\""; ++i; continue;
        case '\\': out += "\\\\"; ++i; continue;
        case '\b': out += "\\b"; ++i; continue;
        case '\f': out += "\\f"; ++i; continue;
        case '\n': out += "\\n"; ++i; continue;
        case '\r': out += "\\r"; ++i; continue;
        case '\t': out += "\\t"; ++i; continue;
        default: break;
        }
        const auto byte = static_cast<unsigned char>(c);
        if (byte >= 0x20 && byte < 0x80) {
            out.push_back(c);
            ++i;
            continue;
        }
        const int len =
            byte < 0x20 ? 0 : detail::utf8_sequence_length(s, i);
        if (len > 0) {
            out.append(s.substr(i, static_cast<std::size_t>(len)));
            i += static_cast<std::size_t>(len);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(byte));
            out += buf;
            ++i;
        }
    }
    out.push_back('"');
}

/// Format a double as a JSON number token. JSON has no NaN/Infinity, so
/// non-finite values are emitted as null — downstream checkers treat a
/// null metric as "value was not representable", never as silent garbage.
inline void append_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/// Append-only JSON object builder. Field order is insertion order; the
/// result is retrieved exactly once with str().
class Object {
public:
    Object() : buf_("{") {}

    Object& field(std::string_view key, std::string_view value) {
        key_(key);
        append_escaped(buf_, value);
        return *this;
    }
    Object& field(std::string_view key, const char* value) {
        return field(key, std::string_view(value));
    }
    Object& field(std::string_view key, double value) {
        key_(key);
        append_number(buf_, value);
        return *this;
    }
    Object& field(std::string_view key, std::int64_t value) {
        key_(key);
        buf_ += std::to_string(value);
        return *this;
    }
    Object& field(std::string_view key, std::uint64_t value) {
        key_(key);
        buf_ += std::to_string(value);
        return *this;
    }
    Object& field(std::string_view key, int value) {
        return field(key, static_cast<std::int64_t>(value));
    }
    Object& field(std::string_view key, bool value) {
        key_(key);
        buf_ += value ? "true" : "false";
        return *this;
    }
    /// Splice a pre-built JSON value (nested object/array) verbatim.
    Object& field_raw(std::string_view key, std::string_view json_value) {
        key_(key);
        buf_ += json_value;
        return *this;
    }

    /// Close the object and hand out the buffer. Call exactly once; the
    /// builder is spent afterwards.
    [[nodiscard]] std::string str() {
        buf_.push_back('}');
        return std::move(buf_);
    }

private:
    void key_(std::string_view key) {
        if (!first_) buf_.push_back(',');
        first_ = false;
        append_escaped(buf_, key);
        buf_.push_back(':');
    }
    std::string buf_;
    bool first_ = true;
};

// --------------------------------------------------------------- DOM parser
//
// A small owning JSON value for the offline consumers (tools/tp_report,
// examples/obs_check): parse a record line once, then query fields by
// name. Object members keep insertion order in a vector (std::map does
// not support the recursive incomplete type, and order is useful when
// echoing records back to a human).

class Value {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };
    using Member = std::pair<std::string, Value>;

    Value() = default;
    explicit Value(bool b) : type_(Type::Bool), bool_(b) {}
    explicit Value(double n) : type_(Type::Number), num_(n) {}
    explicit Value(std::string s)
        : type_(Type::String), str_(std::move(s)) {}

    [[nodiscard]] Type type() const { return type_; }
    [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
    [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
    [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
    [[nodiscard]] bool is_string() const { return type_ == Type::String; }
    [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
    [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

    [[nodiscard]] bool as_bool() const { return bool_; }
    [[nodiscard]] double as_number() const { return num_; }
    [[nodiscard]] const std::string& as_string() const { return str_; }
    [[nodiscard]] const std::vector<Value>& items() const { return items_; }
    [[nodiscard]] const std::vector<Member>& members() const {
        return members_;
    }

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const Value* find(std::string_view key) const {
        if (type_ != Type::Object) return nullptr;
        for (const auto& [k, v] : members_)
            if (k == key) return &v;
        return nullptr;
    }

    /// `find(key)` as a number, or `fallback` when absent/not numeric
    /// (the builder emits non-finite metrics as null, so callers of
    /// number_or treat those as "not available").
    [[nodiscard]] double number_or(std::string_view key,
                                   double fallback) const {
        const Value* v = find(key);
        return v != nullptr && v->is_number() ? v->num_ : fallback;
    }

    /// `find(key)` as a string, or `fallback` when absent/not a string.
    [[nodiscard]] std::string string_or(std::string_view key,
                                        std::string fallback) const {
        const Value* v = find(key);
        return v != nullptr && v->is_string() ? v->str_
                                              : std::move(fallback);
    }

private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    std::vector<Member> members_;

public:
    // Build helpers for the parser (not a general mutation API).
    static Value make_array() {
        Value v;
        v.type_ = Type::Array;
        return v;
    }
    static Value make_object() {
        Value v;
        v.type_ = Type::Object;
        return v;
    }
    void push_item(Value v) { items_.push_back(std::move(v)); }
    void push_member(std::string k, Value v) {
        members_.emplace_back(std::move(k), std::move(v));
    }
};

namespace detail {

/// Strict recursive-descent parser (RFC 8259 grammar, nesting capped at
/// 256) with escape decoding: \uXXXX, including surrogate pairs,
/// re-encodes to UTF-8, and an unpaired surrogate is a syntax error.
/// Returns nullopt on any syntax error.
class DomParser {
public:
    explicit DomParser(std::string_view text) : s_(text) {}

    [[nodiscard]] std::optional<Value> parse_document() {
        skip_ws();
        auto v = parse_value();
        if (!v) return std::nullopt;
        skip_ws();
        if (pos_ != s_.size()) return std::nullopt;
        return v;
    }

private:
    [[nodiscard]] std::optional<Value> parse_value() {
        if (++depth_ > 256) return std::nullopt;
        struct DepthGuard {
            int& d;
            ~DepthGuard() { --d; }
        } guard{depth_};
        skip_ws();
        if (pos_ >= s_.size()) return std::nullopt;
        switch (s_[pos_]) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': {
            auto str = parse_string();
            if (!str) return std::nullopt;
            return Value(std::move(*str));
        }
        case 't':
            return literal("true") ? std::optional<Value>(Value(true))
                                   : std::nullopt;
        case 'f':
            return literal("false") ? std::optional<Value>(Value(false))
                                    : std::nullopt;
        case 'n':
            return literal("null") ? std::optional<Value>(Value())
                                   : std::nullopt;
        default: return parse_number();
        }
    }

    [[nodiscard]] std::optional<Value> parse_object() {
        ++pos_;  // '{'
        Value obj = Value::make_object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') return std::nullopt;
            auto key = parse_string();
            if (!key) return std::nullopt;
            skip_ws();
            if (peek() != ':') return std::nullopt;
            ++pos_;
            auto v = parse_value();
            if (!v) return std::nullopt;
            obj.push_member(std::move(*key), std::move(*v));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return obj;
            }
            return std::nullopt;
        }
    }

    [[nodiscard]] std::optional<Value> parse_array() {
        ++pos_;  // '['
        Value arr = Value::make_array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            auto v = parse_value();
            if (!v) return std::nullopt;
            arr.push_item(std::move(*v));
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return arr;
            }
            return std::nullopt;
        }
    }

    static void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    [[nodiscard]] bool parse_hex4(std::uint32_t& out) {
        if (pos_ + 4 > s_.size()) return false;
        out = 0;
        for (int k = 0; k < 4; ++k) {
            const char c = s_[pos_ + static_cast<std::size_t>(k)];
            out <<= 4;
            if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return false;
        }
        pos_ += 4;
        return true;
    }

    [[nodiscard]] std::optional<std::string> parse_string() {
        ++pos_;  // '"'
        std::string out;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) return std::nullopt;
                const char e = s_[pos_];
                ++pos_;
                switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    std::uint32_t cp = 0;
                    if (!parse_hex4(cp)) return std::nullopt;
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: require a \uDC00-\uDFFF mate.
                        if (pos_ + 1 < s_.size() && s_[pos_] == '\\' &&
                            s_[pos_ + 1] == 'u') {
                            pos_ += 2;
                            std::uint32_t lo = 0;
                            if (!parse_hex4(lo) || lo < 0xDC00 ||
                                lo > 0xDFFF)
                                return std::nullopt;
                            cp = 0x10000 + ((cp - 0xD800) << 10) +
                                 (lo - 0xDC00);
                        } else {
                            return std::nullopt;
                        }
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return std::nullopt;  // orphaned low surrogate
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: return std::nullopt;
                }
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return std::nullopt;
    }

    [[nodiscard]] std::optional<Value> parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (!digit()) return std::nullopt;
        if (s_[pos_] == '0') ++pos_;
        else
            while (digit()) ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!digit()) return std::nullopt;
            while (digit()) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            if (!digit()) return std::nullopt;
            while (digit()) ++pos_;
        }
        const std::string token(s_.substr(start, pos_ - start));
        return Value(std::strtod(token.c_str(), nullptr));
    }

    [[nodiscard]] bool literal(std::string_view word) {
        if (s_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    [[nodiscard]] bool digit() const {
        return pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_]));
    }
    [[nodiscard]] char peek() const {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }
    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace detail

/// Parse one whole JSON document (a single value, no trailing garbage)
/// into a Value; nullopt on any syntax error.
[[nodiscard]] inline std::optional<Value> parse(std::string_view text) {
    return detail::DomParser(text).parse_document();
}

/// Strict whole-document validity check: exactly the documents parse()
/// accepts.
[[nodiscard]] inline bool valid(std::string_view text) {
    return parse(text).has_value();
}

}  // namespace tp::obs::json
