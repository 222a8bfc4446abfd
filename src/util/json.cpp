#include "util/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.h"

namespace chiplet {

JsonValue JsonValue::object() {
    JsonValue v;
    v.value_ = std::make_shared<ObjectRep>();
    return v;
}

JsonValue JsonValue::array() {
    JsonValue v;
    v.value_ = JsonArray{};
    return v;
}

JsonValue::Type JsonValue::type() const {
    switch (value_.index()) {
        case 0: return Type::null;
        case 1: return Type::boolean;
        case 2: return Type::number;
        case 3: return Type::string;
        case 4: return Type::array;
        default: return Type::object;
    }
}

bool JsonValue::as_bool() const {
    if (!is_bool()) throw ParseError("JSON value is not a boolean");
    return std::get<bool>(value_);
}

double JsonValue::as_number() const {
    if (!is_number()) throw ParseError("JSON value is not a number");
    return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) throw ParseError("JSON value is not a string");
    return std::get<std::string>(value_);
}

const JsonArray& JsonValue::as_array() const {
    if (!is_array()) throw ParseError("JSON value is not an array");
    return std::get<JsonArray>(value_);
}

JsonArray& JsonValue::as_array() {
    if (!is_array()) throw ParseError("JSON value is not an array");
    return std::get<JsonArray>(value_);
}

JsonValue::ObjectRep& JsonValue::object_rep() {
    if (!is_object()) throw ParseError("JSON value is not an object");
    // Copy on write: every object mutation comes through here, so a copy
    // sharing this rep gets its own before anything changes.  The clone
    // is one level deep; nested objects clone when they are mutated.
    auto& rep = std::get<std::shared_ptr<ObjectRep>>(value_);
    if (rep.use_count() > 1) rep = std::make_shared<ObjectRep>(*rep);
    return *rep;
}

const JsonValue::ObjectRep& JsonValue::object_rep() const {
    if (!is_object()) throw ParseError("JSON value is not an object");
    return *std::get<std::shared_ptr<ObjectRep>>(value_);
}

void JsonValue::set(const std::string& key, JsonValue value) {
    if (is_null()) value_ = std::make_shared<ObjectRep>();
    auto& rep = object_rep();
    if (rep.entries.find(key) == rep.entries.end()) rep.order.push_back(key);
    rep.entries[key] = std::move(value);
}

bool JsonValue::contains(const std::string& key) const {
    if (!is_object()) return false;
    return object_rep().entries.count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const auto& rep = object_rep();
    auto it = rep.entries.find(key);
    if (it == rep.entries.end()) throw LookupError("missing JSON key: " + key);
    return it->second;
}

JsonValue& JsonValue::at(const std::string& key) {
    auto& rep = object_rep();
    auto it = rep.entries.find(key);
    if (it == rep.entries.end()) throw LookupError("missing JSON key: " + key);
    return it->second;
}

double JsonValue::get_or(const std::string& key, double fallback) const {
    return contains(key) ? at(key).as_number() : fallback;
}

std::string JsonValue::get_or(const std::string& key,
                              const std::string& fallback) const {
    return contains(key) ? at(key).as_string() : fallback;
}

bool JsonValue::get_or(const std::string& key, bool fallback) const {
    return contains(key) ? at(key).as_bool() : fallback;
}

const std::vector<std::string>& JsonValue::keys() const {
    return object_rep().order;
}

void JsonValue::push_back(JsonValue value) {
    if (is_null()) value_ = JsonArray{};
    as_array().push_back(std::move(value));
}

namespace {

void dump_string(std::string& out, const std::string& s) {
    out.push_back('"');
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

/// Integral values below 1e15 print without a decimal point; everything
/// else as %.12g.  Golden documents and spec hashes are pinned to these
/// bytes (tests/test_json.cpp checks them against an ostream at
/// precision 12).
void dump_number(std::string& out, double d) {
    char buf[32];
    char* const last = buf + sizeof buf;
    char* end = d == std::floor(d) && std::fabs(d) < 1e15
                    ? std::to_chars(buf, last, static_cast<long long>(d)).ptr
                    : std::to_chars(buf, last, d, std::chars_format::general,
                                    12)
                          .ptr;
    out.append(buf, end);
}

}  // namespace

void JsonValue::dump_impl(std::string& out, int indent, int depth) const {
    const std::string pad(indent > 0 ? static_cast<std::size_t>(indent * (depth + 1)) : 0, ' ');
    const std::string closing_pad(indent > 0 ? static_cast<std::size_t>(indent * depth) : 0, ' ');
    const char* nl = indent > 0 ? "\n" : "";
    switch (type()) {
        case Type::null: out += "null"; break;
        case Type::boolean: out += as_bool() ? "true" : "false"; break;
        case Type::number: dump_number(out, as_number()); break;
        case Type::string: dump_string(out, as_string()); break;
        case Type::array: {
            const auto& arr = as_array();
            if (arr.empty()) {
                out += "[]";
                break;
            }
            out += "[";
            out += nl;
            for (std::size_t i = 0; i < arr.size(); ++i) {
                out += pad;
                arr[i].dump_impl(out, indent, depth + 1);
                if (i + 1 < arr.size()) out += ",";
                out += nl;
            }
            out += closing_pad + "]";
            break;
        }
        case Type::object: {
            const auto& rep = object_rep();
            if (rep.order.empty()) {
                out += "{}";
                break;
            }
            out += "{";
            out += nl;
            for (std::size_t i = 0; i < rep.order.size(); ++i) {
                out += pad;
                dump_string(out, rep.order[i]);
                out += indent > 0 ? ": " : ":";
                rep.entries.at(rep.order[i]).dump_impl(out, indent, depth + 1);
                if (i + 1 < rep.order.size()) out += ",";
                out += nl;
            }
            out += closing_pad + "}";
            break;
        }
    }
}

std::string JsonValue::dump(int indent) const {
    std::string out;
    dump_impl(out, indent, 0);
    return out;
}

namespace {

/// Recursive-descent JSON parser with line/column diagnostics.
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        skip_ws();
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after JSON document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ParseError("JSON parse error at line " + std::to_string(line) +
                         ", column " + std::to_string(col) + ": " + message);
    }

    [[nodiscard]] char peek() const {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char next() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
            else break;
        }
    }

    void expect(char c) {
        if (next() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    void expect_literal(const char* literal) {
        for (const char* p = literal; *p != '\0'; ++p) expect(*p);
    }

    JsonValue parse_value() {
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return JsonValue(parse_string());
            case 't': expect_literal("true"); return JsonValue(true);
            case 'f': expect_literal("false"); return JsonValue(false);
            case 'n': expect_literal("null"); return JsonValue(nullptr);
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue obj = JsonValue::object();
        skip_ws();
        if (peek() == '}') {
            next();
            return obj;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            obj.set(key, parse_value());
            skip_ws();
            const char c = next();
            if (c == '}') return obj;
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue arr = JsonValue::array();
        skip_ws();
        if (peek() == ']') {
            next();
            return arr;
        }
        while (true) {
            skip_ws();
            arr.push_back(parse_value());
            skip_ws();
            const char c = next();
            if (c == ']') return arr;
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            const char c = next();
            if (c == '"') return out;
            if (c == '\\') {
                const char esc = next();
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'n': out.push_back('\n'); break;
                    case 'r': out.push_back('\r'); break;
                    case 't': out.push_back('\t'); break;
                    case 'u': {
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = next();
                            code <<= 4;
                            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
                            else {
                                --pos_;
                                fail("invalid \\u escape digit");
                            }
                        }
                        if (code < 0x80) {
                            out.push_back(static_cast<char>(code));
                        } else if (code < 0x800) {
                            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        } else {
                            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        }
                        break;
                    }
                    default:
                        --pos_;
                        fail("invalid escape sequence");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            } else {
                out.push_back(c);
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') next();
        if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required after decimal point");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required in exponent");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        try {
            return JsonValue(std::stod(text_.substr(start, pos_ - start)));
        } catch (const std::out_of_range&) {
            // e.g. "1e99999": grammatically valid but unrepresentable.
            pos_ = start;
            fail("number out of double range");
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
    return Parser(text).parse_document();
}

JsonValue JsonValue::load_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw Error("cannot open JSON file: " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return parse(buffer.str());
}

void JsonValue::save_file(const std::string& path, int indent) const {
    std::ofstream file(path);
    if (!file) throw Error("cannot open JSON output file: " + path);
    file << dump(indent) << '\n';
    if (!file) throw Error("write failure on JSON output file: " + path);
}

// ---- JsonReader -------------------------------------------------------------

const char* type_name(JsonValue::Type type) {
    switch (type) {
        case JsonValue::Type::null: return "null";
        case JsonValue::Type::boolean: return "boolean";
        case JsonValue::Type::number: return "number";
        case JsonValue::Type::string: return "string";
        case JsonValue::Type::array: return "array";
        case JsonValue::Type::object: return "object";
    }
    return "unknown";
}

JsonReader::JsonReader(const JsonValue& value, std::string context)
    : value_(value), context_(std::move(context)) {
    if (!value_.is_object()) {
        throw ParseError(context_ + ": expected object, got " +
                         type_name(value_.type()));
    }
}

bool JsonReader::has(const std::string& key) const { return value_.contains(key); }

void JsonReader::fail(const std::string& key, const std::string& what) const {
    throw ParseError(context_ + ": key '" + key + "': " + what);
}

const JsonValue& JsonReader::require(const std::string& key) const {
    if (!value_.contains(key)) {
        throw ParseError(context_ + ": required key '" + key + "' is missing");
    }
    return value_.at(key);
}

std::string JsonReader::require_string(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_string()) fail(key, std::string("expected string, got ") + type_name(v.type()));
    return v.as_string();
}

double JsonReader::require_number(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_number()) fail(key, std::string("expected number, got ") + type_name(v.type()));
    return v.as_number();
}

const JsonArray& JsonReader::require_array(const std::string& key) const {
    const JsonValue& v = require(key);
    if (!v.is_array()) fail(key, std::string("expected array, got ") + type_name(v.type()));
    return v.as_array();
}

double JsonReader::integral_number(const std::string& key, const JsonValue& v) const {
    if (!v.is_number()) fail(key, std::string("expected number, got ") + type_name(v.type()));
    const double d = v.as_number();
    // Range-check in the double domain before any integer cast: casting
    // an out-of-range double is undefined behaviour, not saturation.
    if (d < 0.0 || d >= 18446744073709551616.0 /* 2^64 */ ||
        std::trunc(d) != d) {
        fail(key, "expected a non-negative integer");
    }
    return d;
}

void JsonReader::optional(const std::string& key, double& out) const {
    if (has(key)) out = require_number(key);
}

void JsonReader::optional(const std::string& key, std::string& out) const {
    if (has(key)) out = require_string(key);
}

void JsonReader::optional(const std::string& key, bool& out) const {
    if (!has(key)) return;
    const JsonValue& v = value_.at(key);
    if (!v.is_bool()) fail(key, std::string("expected boolean, got ") + type_name(v.type()));
    out = v.as_bool();
}

void JsonReader::optional(const std::string& key, unsigned& out) const {
    if (!has(key)) return;
    const double d = integral_number(key, value_.at(key));
    if (d > static_cast<double>(std::numeric_limits<unsigned>::max())) {
        fail(key, "value does not fit in an unsigned int");
    }
    out = static_cast<unsigned>(d);
}

void JsonReader::optional(const std::string& key, std::uint64_t& out) const {
    if (has(key)) out = static_cast<std::uint64_t>(integral_number(key, value_.at(key)));
}

void JsonReader::optional(const std::string& key, std::vector<double>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        if (!v.is_number()) fail(key, "expected an array of numbers");
        out.push_back(v.as_number());
    }
}

void JsonReader::optional(const std::string& key,
                          std::vector<std::string>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        if (!v.is_string()) fail(key, "expected an array of strings");
        out.push_back(v.as_string());
    }
}

void JsonReader::optional(const std::string& key, std::vector<unsigned>& out) const {
    if (!has(key)) return;
    const JsonArray& array = require_array(key);
    out.clear();
    for (const JsonValue& v : array) {
        const double d = integral_number(key, v);
        if (d > static_cast<double>(std::numeric_limits<unsigned>::max())) {
            fail(key, "value does not fit in an unsigned int");
        }
        out.push_back(static_cast<unsigned>(d));
    }
}

// ---- json_diff --------------------------------------------------------------

bool parse_full_number(const std::string& s, double& out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end == s.c_str() + s.size();
}

std::string exact_number_string(double d) {
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    CHIPLET_EXPECTS(ec == std::errc(), "number does not format");
    return std::string(buf, ptr);
}

namespace {

bool numbers_close(double a, double b, double tolerance) {
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= tolerance * scale;
}

std::string diff_at(const std::string& path, const JsonValue& a,
                    const JsonValue& b, const JsonDiffOptions& options) {
    const auto here = [&path] { return path.empty() ? "$" : path; };
    if (a.type() != b.type()) {
        // Numeric strings vs numbers stay type-strict: a schema change
        // should show up even when the values happen to match.
        return here() + ": type " + type_name(a.type()) + " vs " +
               type_name(b.type());
    }
    switch (a.type()) {
        case JsonValue::Type::null: return "";
        case JsonValue::Type::boolean:
            return a.as_bool() == b.as_bool()
                       ? ""
                       : here() + ": " + a.dump() + " vs " + b.dump();
        case JsonValue::Type::number:
            return numbers_close(a.as_number(), b.as_number(), options.tolerance)
                       ? ""
                       : here() + ": " + a.dump() + " vs " + b.dump();
        case JsonValue::Type::string: {
            if (a.as_string() == b.as_string()) return "";
            double na = 0.0;
            double nb = 0.0;
            if (options.numeric_strings && parse_full_number(a.as_string(), na) &&
                parse_full_number(b.as_string(), nb) &&
                numbers_close(na, nb, options.tolerance)) {
                return "";
            }
            return here() + ": \"" + a.as_string() + "\" vs \"" + b.as_string() +
                   "\"";
        }
        case JsonValue::Type::array: {
            const JsonArray& aa = a.as_array();
            const JsonArray& ba = b.as_array();
            if (aa.size() != ba.size()) {
                return here() + ": array length " + std::to_string(aa.size()) +
                       " vs " + std::to_string(ba.size());
            }
            for (std::size_t i = 0; i < aa.size(); ++i) {
                std::string d = diff_at(path + "[" + std::to_string(i) + "]",
                                        aa[i], ba[i], options);
                if (!d.empty()) return d;
            }
            return "";
        }
        case JsonValue::Type::object: {
            const auto ignored = [&options](const std::string& key) {
                for (const std::string& k : options.ignore_keys) {
                    if (k == key) return true;
                }
                return false;
            };
            for (const std::string& key : a.keys()) {
                if (ignored(key)) continue;
                if (!b.contains(key)) {
                    return here() + ": key '" + key + "' only on the left";
                }
            }
            for (const std::string& key : b.keys()) {
                if (ignored(key)) continue;
                if (!a.contains(key)) {
                    return here() + ": key '" + key + "' only on the right";
                }
                std::string d =
                    diff_at(path.empty() ? key : path + "." + key, a.at(key),
                            b.at(key), options);
                if (!d.empty()) return d;
            }
            return "";
        }
    }
    return "";
}

}  // namespace

std::string json_diff(const JsonValue& a, const JsonValue& b,
                      const JsonDiffOptions& options) {
    return diff_at("", a, b, options);
}

std::string JsonReader::element_context(const std::string& key,
                                        std::size_t index) const {
    return context_ + "." + key + "[" + std::to_string(index) + "]";
}

}  // namespace chiplet
