#include "harness/json.hh"

#include <algorithm>
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

/** The value of hex digit @p h, or -1. */
int
hexDigit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

} // namespace

void
JsonLexer::skipEscape()
{
    pos++;
    if (pos >= text.size())
        fail("unterminated escape");
    switch (text[pos++]) {
      case '"': case '\\': case '/': case 'n': case 't': case 'r':
      case 'b': case 'f':
        return;
      case 'u':
        if (pos + 4 > text.size())
            fail("truncated \\u escape");
        for (int i = 0; i < 4; i++)
            if (hexDigit(text[pos++]) < 0)
                fail("bad \\u escape digit");
        return;
      default:
        fail("unknown escape character");
    }
}

void
JsonLexer::Str::decodeTo(std::string &out) const
{
    // string() validated every escape, so this only translates.
    std::size_t i = 0;
    while (true) {
        // Copy the run up to the next escape at once.
        const std::size_t esc = std::min(raw.find('\\', i), raw.size());
        out.append(raw.data() + i, esc - i);
        if (esc == raw.size())
            return;
        i = esc + 2;
        switch (raw[esc + 1]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (; i < esc + 6; i++)
                code = code << 4 | static_cast<unsigned>(hexDigit(raw[i]));
            // The harness only emits ASCII escapes; decode the BMP
            // code point as UTF-8.
            if (code < 0x80) {
                out += static_cast<char>(code);
            } else if (code < 0x800) {
                out += static_cast<char>(0xc0 | (code >> 6));
                out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
                out += static_cast<char>(0xe0 | (code >> 12));
                out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:    // '"', '\\' and '/' stand for themselves
            out += raw[esc + 1];
        }
    }
}

bool
JsonLexer::Str::equals(std::string_view s) const
{
    if (!escaped)
        return raw == s;
    std::string decoded;
    decodeTo(decoded);
    return decoded == s;
}

/**
 * from_chars converts the token in place and rounds exactly as strtod
 * does; only a value out of double's range goes to strtod, for its
 * +-inf and underflow results. A token of at most 15 plain digits
 * (every counter a simulation writes) takes the integer conversion,
 * which is exact: such a value is below 2^53.
 */
double
JsonLexer::number()
{
    const std::size_t start = pos;
    bool digits_only = !consume('-');
    for (; pos < text.size(); pos++) {
        const char c = text[pos];
        if (c >= '0' && c <= '9')
            continue;
        if (c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-')
            break;
        digits_only = false;
    }
    const char *first = text.data() + start;
    const char *last = text.data() + pos;
    if (digits_only && last - first <= 15) {
        std::uint64_t u = 0;
        std::from_chars(first, last, u);
        return static_cast<double>(u);
    }
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

void
JsonLexer::skip(Kind k)
{
    Str key;
    switch (k) {
      case Kind::OBJECT:
        beginObject();
        while (nextMember(key))
            skipValue();
        return;
      case Kind::ARRAY:
        beginArray();
        while (nextElement())
            skipValue();
        return;
      case Kind::STRING:
        string();
        return;
      case Kind::NUMBER:
        number();
        return;
      case Kind::TRUE:
      case Kind::FALSE:
      case Kind::NUL:
        return;
    }
}

/**
 * Recursive-descent DOM builder on JsonLexer. A friend of Json so
 * each object's members, collected on one stack shared by all
 * nesting levels, move into a vector allocated at its final size.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : lex(text)
    {
        members.reserve(32);    // a cell-store entry holds 23
    }

    Json
    parse()
    {
        Json v = parseValue();
        lex.finish();
        return v;
    }

  private:
    Json
    parseValue()
    {
        switch (lex.value()) {
          case JsonLexer::Kind::OBJECT:
            return parseObject();
          case JsonLexer::Kind::ARRAY:
            return parseArray();
          case JsonLexer::Kind::STRING: {
            Json s{std::string()};
            lex.string().decodeTo(s.str_);
            return s;
          }
          case JsonLexer::Kind::NUMBER:
            return Json(lex.number());
          case JsonLexer::Kind::TRUE:
            return Json(true);
          case JsonLexer::Kind::FALSE:
            return Json(false);
          case JsonLexer::Kind::NUL:
            break;
        }
        return Json();
    }

    Json
    parseObject()
    {
        lex.beginObject();
        Json obj = Json::object();
        const std::size_t base = members.size();
        JsonLexer::Str raw;
        while (lex.nextMember(raw)) {
            std::string key;
            raw.decodeTo(key);
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
        }
        const auto first =
                members.begin() + static_cast<std::ptrdiff_t>(base);
        obj.obj_.assign(std::make_move_iterator(first),
                        std::make_move_iterator(members.end()));
        members.erase(first, members.end());
        return obj;
    }

    Json
    parseArray()
    {
        lex.beginArray();
        Json arr = Json::array();
        while (lex.nextElement())
            arr.push(parseValue());
        return arr;
    }

    JsonLexer lex;
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
    try {
        return JsonParser(text).parse();
    } catch (const JsonLexer::Error &e) {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < e.pos && i < text.size(); i++) {
            if (text[i] == '\n') { line++; col = 1; } else col++;
        }
        ltrf_fatal("JSON parse error at line %zu col %zu: %s", line,
                   col, e.what);
    }
}

bool
Json::tryParse(std::string_view text, Json &out)
{
    try {
        out = JsonParser(text).parse();
        return true;
    } catch (const JsonLexer::Error &) {
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
