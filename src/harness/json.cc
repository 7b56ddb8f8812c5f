#include "harness/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "common/log.hh"

namespace ltrf::harness
{

namespace
{

const char *
typeName(Json::Type t)
{
    switch (t) {
      case Json::Type::NUL: return "null";
      case Json::Type::BOOL: return "bool";
      case Json::Type::NUMBER: return "number";
      case Json::Type::STRING: return "string";
      case Json::Type::ARRAY: return "array";
      case Json::Type::OBJECT: return "object";
    }
    return "?";
}

/**
 * Canonical number formatting: integers (the bulk of SimResult —
 * cycle and event counters) print without a decimal point or
 * exponent; everything else prints with %.17g, which round-trips
 * IEEE doubles exactly. Negative zero takes the %.17g path ("-0"),
 * so it keeps its sign too.
 */
void
appendNumber(std::string &out, double d)
{
    char buf[40];
    if (std::isfinite(d) && d == std::floor(d) &&
        std::fabs(d) < 9.0e15 && !(d == 0.0 && std::signbit(d))) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(d));
    } else if (std::isfinite(d)) {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    } else {
        // JSON has no Inf/NaN; the harness never produces them.
        ltrf_fatal("cannot serialize non-finite number to JSON");
    }
    out += buf;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Thrown by the lenient parser instead of exiting (tryParse). */
struct ParseError
{
};

} // namespace

/**
 * Recursive-descent parser over a string_view cursor. A friend of
 * Json so each object's members, collected on one stack shared by
 * all nesting levels, move into a vector allocated at its final size.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text, bool lenient = false)
        : text(text), lenient(lenient)
    {
        members.reserve(32);    // a cell-store entry holds 23
    }

    Json
    parse()
    {
        Json v = parseValue();
        skipWs();
        if (pos != text.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        if (lenient)
            throw ParseError{};
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); i++) {
            if (text[i] == '\n') { line++; col = 1; } else col++;
        }
        ltrf_fatal("JSON parse error at line %zu col %zu: %s", line,
                   col, what);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            pos++;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        pos++;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            pos++;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view w)
    {
        if (text.substr(pos, w.size()) == w) {
            pos += w.size();
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Json(parseString());
        if (c == '-' || (c >= '0' && c <= '9'))
            return Json(parseNumber());
        if (consumeWord("true"))
            return Json(true);
        if (consumeWord("false"))
            return Json(false);
        if (consumeWord("null"))
            return Json();
        fail("expected a JSON value");
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (consume('}'))
            return obj;
        const std::size_t base = members.size();
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWs();
            expect(':');
            Json v = parseValue();
            // A repeated key replaces the earlier value in place, as
            // Json::set() does.
            auto dup = std::find_if(
                    members.begin() + static_cast<std::ptrdiff_t>(base),
                    members.end(),
                    [&](const auto &m) { return m.first == key; });
            if (dup != members.end())
                dup->second = std::move(v);
            else
                members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume(','))
                continue;
            expect('}');
            const auto first =
                    members.begin() + static_cast<std::ptrdiff_t>(base);
            obj.obj_.assign(std::make_move_iterator(first),
                            std::make_move_iterator(members.end()));
            members.erase(first, members.end());
            return obj;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(parseValue());
            skipWs();
            if (consume(','))
                continue;
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (true) {
            // Copy the run up to the next quote or escape at once.
            std::size_t run = pos;
            while (run < text.size() && text[run] != '"' &&
                   text[run] != '\\')
                run++;
            s.append(text.data() + pos, run - pos);
            pos = run;
            if (pos >= text.size())
                fail("unterminated string");
            if (text[pos++] == '"')
                return s;
            if (pos >= text.size())
                fail("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'n': s += '\n'; break;
              case 't': s += '\t'; break;
              case 'r': s += '\r'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The harness only emits ASCII escapes; decode the
                // BMP code point as UTF-8.
                if (code < 0x80) {
                    s += static_cast<char>(code);
                } else if (code < 0x800) {
                    s += static_cast<char>(0xc0 | (code >> 6));
                    s += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    s += static_cast<char>(0xe0 | (code >> 12));
                    s += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    s += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    /**
     * A number token is '-' or a digit followed by any run of
     * [0-9.eE+-], and must convert as a whole. from_chars converts it
     * in place and rounds exactly as strtod does; only a value
     * out of double's range goes to strtod, for its +-inf and
     * underflow results.
     */
    double
    parseNumber()
    {
        const std::size_t start = pos;
        if (consume('-')) {}
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            pos++;
        const char *first = text.data() + start;
        const char *last = text.data() + pos;
        double d = 0.0;
        const std::from_chars_result r = std::from_chars(first, last, d);
        if (r.ptr != last)
            fail("malformed number");
        if (r.ec == std::errc::result_out_of_range)
            d = std::strtod(std::string(first, last).c_str(), nullptr);
        else if (r.ec != std::errc())
            fail("malformed number");
        return d;
    }

    std::string_view text;
    std::size_t pos = 0;
    bool lenient;
    /** Members parsed so far of the open objects, innermost last. */
    std::vector<std::pair<std::string, Json>> members;
};

bool
Json::asBool() const
{
    if (type_ != Type::BOOL)
        ltrf_fatal("JSON value is %s, expected bool", typeName(type_));
    return bool_;
}

double
Json::asDouble() const
{
    if (type_ != Type::NUMBER)
        ltrf_fatal("JSON value is %s, expected number", typeName(type_));
    return num_;
}

std::int64_t
Json::asInt() const
{
    const double d = asDouble();
    // [-2^63, 2^63): the doubles whose truncation fits an int64.
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0))
        ltrf_fatal("JSON number %g does not fit a 64-bit integer", d);
    return static_cast<std::int64_t>(d);
}

std::uint64_t
Json::asUint() const
{
    const double d = asDouble();
    if (d < 0)
        ltrf_fatal("JSON number %g is negative, expected unsigned", d);
    if (!(d < 18446744073709551616.0))
        ltrf_fatal("JSON number %g does not fit a 64-bit unsigned", d);
    return static_cast<std::uint64_t>(d);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::STRING)
        ltrf_fatal("JSON value is %s, expected string", typeName(type_));
    return str_;
}

Json &
Json::push(Json v)
{
    if (type_ != Type::ARRAY)
        ltrf_fatal("push() on JSON %s", typeName(type_));
    arr_.push_back(std::move(v));
    return *this;
}

std::size_t
Json::size() const
{
    if (type_ == Type::ARRAY)
        return arr_.size();
    if (type_ == Type::OBJECT)
        return obj_.size();
    ltrf_fatal("size() on JSON %s", typeName(type_));
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::ARRAY)
        ltrf_fatal("indexed at() on JSON %s", typeName(type_));
    if (i >= arr_.size())
        ltrf_fatal("JSON array index %zu out of range (size %zu)", i,
                   arr_.size());
    return arr_[i];
}

Json &
Json::set(std::string key, Json v)
{
    if (type_ != Type::OBJECT)
        ltrf_fatal("set() on JSON %s", typeName(type_));
    for (auto &[k, old] : obj_) {
        if (k == key) {
            old = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return *this;
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::OBJECT)
        return nullptr;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

bool
Json::contains(std::string_view key) const
{
    return find(key) != nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    if (type_ != Type::OBJECT)
        ltrf_fatal("keyed at() on JSON %s", typeName(type_));
    const Json *v = find(key);
    if (!v)
        ltrf_fatal("JSON object has no key \"%.*s\"",
                   static_cast<int>(key.size()), key.data());
    return *v;
}

double
Json::numberOr(std::string_view key, double fallback) const
{
    const Json *v = find(key);
    return v ? v->asDouble() : fallback;
}

bool
Json::boolOr(std::string_view key, bool fallback) const
{
    const Json *v = find(key);
    return v ? v->asBool() : fallback;
}

std::string
Json::stringOr(std::string_view key, const std::string &fallback) const
{
    const Json *v = find(key);
    return v ? v->asString() : fallback;
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    if (type_ != Type::OBJECT)
        ltrf_fatal("items() on JSON %s", typeName(type_));
    return obj_;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };

    switch (type_) {
      case Type::NUL:
        out += "null";
        break;
      case Type::BOOL:
        out += bool_ ? "true" : "false";
        break;
      case Type::NUMBER:
        appendNumber(out, num_);
        break;
      case Type::STRING:
        appendEscaped(out, str_);
        break;
      case Type::ARRAY:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Type::OBJECT:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            appendEscaped(out, obj_[i].first);
            out += indent >= 0 ? ": " : ":";
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Json
Json::parse(std::string_view text)
{
    return JsonParser(text).parse();
}

bool
Json::tryParse(std::string_view text, Json &out)
{
    try {
        out = JsonParser(text, /*lenient=*/true).parse();
        return true;
    } catch (const ParseError &) {
        return false;
    }
}

std::string
jsonNumberText(double d)
{
    std::string out;
    appendNumber(out, d);
    return out;
}

bool
Json::operator==(const Json &o) const
{
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::NUL: return true;
      case Type::BOOL: return bool_ == o.bool_;
      case Type::NUMBER: return num_ == o.num_;
      case Type::STRING: return str_ == o.str_;
      case Type::ARRAY: return arr_ == o.arr_;
      case Type::OBJECT: return obj_ == o.obj_;
    }
    return false;
}

} // namespace ltrf::harness
