/**
 * @file
 * Minimal JSON value type for the experiment harness: a writer with
 * deterministic output (insertion-ordered object keys, canonical
 * number formatting), and one strict grammar, JsonLexer, with two
 * consumers: the Json DOM parser and field readers that walk a
 * document in place without building values (the cell store's entry
 * reader).
 *
 * Determinism is a hard requirement here, not a nicety: CI diffs the
 * `ltrf_run` smoke-sweep output against a golden file and against a
 * run with a different thread count, so dumping the same value twice
 * must produce byte-identical text.
 */

#ifndef LTRF_HARNESS_JSON_HH
#define LTRF_HARNESS_JSON_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ltrf::harness
{

/**
 * The JSON grammar, as a cursor over @p text: whitespace, the three
 * literals, strings with escapes, numbers, and the punctuation of
 * objects and arrays. Json::parse() builds its DOM on it; a reader
 * that wants a few members of a known document walks it directly,
 * seeing keys and strings as views into the text and skipping the
 * values it does not want with full validation. Malformed input of
 * any kind throws JsonLexer::Error at the offending offset.
 *
 * An object is read as beginObject(), then nextMember() until it
 * returns false, reading or skipping one value after each key that
 * it returns; an array likewise with beginArray() and nextElement().
 */
class JsonLexer
{
  public:
    /** Malformed input: what was wrong, and the byte offset. */
    struct Error
    {
        const char *what;
        std::size_t pos;
    };

    /** The kind of value that value() found. */
    enum class Kind
    {
        OBJECT,
        ARRAY,
        STRING,
        NUMBER,
        TRUE,
        FALSE,
        NUL,
    };

    /** A string token: the bytes between its quotes, escapes kept. */
    struct Str
    {
        std::string_view raw;
        /** raw holds a backslash escape; decode before comparing. */
        bool escaped = false;

        /** Append the decoded string to @p out. */
        void decodeTo(std::string &out) const;
        /** Whether the decoded string is @p s; decodes only if escaped. */
        bool equals(std::string_view s) const;
    };

    explicit JsonLexer(std::string_view text) : text(text) {}

    /**
     * Skip whitespace and classify the value that starts here. The
     * literals carry nothing more and are consumed; any other value
     * is left for beginObject(), beginArray(), string() or number(),
     * or for skip().
     */
    Kind
    value()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return Kind::OBJECT;
        if (c == '[')
            return Kind::ARRAY;
        if (c == '"')
            return Kind::STRING;
        if (c == '-' || (c >= '0' && c <= '9'))
            return Kind::NUMBER;
        if (consumeWord("true"))
            return Kind::TRUE;
        if (consumeWord("false"))
            return Kind::FALSE;
        if (consumeWord("null"))
            return Kind::NUL;
        fail("expected a JSON value");
    }

    void
    beginObject()
    {
        expect('{');
        opened = true;
    }

    /**
     * Step to the next member of the open object: true with its key
     * in @p key and the cursor past the ':', or false past the
     * closing '}'.
     */
    bool
    nextMember(Str &key)
    {
        if (!nextItem('}'))
            return false;
        skipWs();
        if (peek() != '"')
            fail("expected object key string");
        key = string();
        skipWs();
        expect(':');
        return true;
    }

    void
    beginArray()
    {
        expect('[');
        opened = true;
    }

    /** Step to the next element of the open array: true if one
     *  follows, false past the closing ']'. */
    bool nextElement() { return nextItem(']'); }

    /** The string token that starts here, escapes validated. */
    Str
    string()
    {
        expect('"');
        Str s;
        const std::size_t start = pos;
        const char *const end = text.data() + text.size();
        while (true) {
            const char *p = stringStop(text.data() + pos, end);
            pos = static_cast<std::size_t>(p - text.data());
            if (p == end)
                fail("unterminated string");
            if (*p == '"')
                break;
            s.escaped = true;
            skipEscape();
        }
        s.raw = std::string_view(text.data() + start, pos - start);
        pos++;
        return s;
    }

    /**
     * The number token that starts here: '-' or a digit followed by
     * any run of [0-9.eE+-], which must convert as a whole.
     */
    double number();

    /** Skip the rest of a value value() classified as @p k. */
    void skip(Kind k);
    /** Skip the next value, validating all of it. */
    void skipValue() { skip(value()); }

    /** Skip trailing whitespace; anything else left is an error. */
    void
    finish()
    {
        skipWs();
        if (pos != text.size())
            fail("trailing characters after JSON value");
    }

  private:
    [[noreturn]] void fail(const char *what) { throw Error{what, pos}; }

    void
    skipWs()
    {
        const char *p = text.data() + pos;
        const char *const end = text.data() + text.size();
        while (p != end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            p++;
        pos = static_cast<std::size_t>(p - text.data());
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

    /** The separator step shared by objects and arrays: true if an
     *  item follows, false past the @p close bracket. */
    bool
    nextItem(char close)
    {
        skipWs();
        if (opened) {
            opened = false;
            return !consume(close);
        }
        if (consume(','))
            return true;
        expect(close);
        return false;
    }

    /**
     * The first '"' or backslash in [@p p, @p end), or @p end. Scans
     * a word at a time: a byte of w ^ c is zero where w holds c, and
     * (x - 0x01..) & ~x & 0x80.. marks the lowest zero byte of x
     * exactly (marks above it may be borrows), so the lowest mark of
     * either test is the stop.
     */
    static const char *
    stringStop(const char *p, const char *end)
    {
        if constexpr (std::endian::native == std::endian::little) {
            constexpr std::uint64_t ONES = 0x0101010101010101ull;
            for (; end - p >= 8; p += 8) {
                std::uint64_t w;
                std::memcpy(&w, p, sizeof(w));
                const std::uint64_t q = w ^ (ONES * '"');
                const std::uint64_t b = w ^ (ONES * '\\');
                const std::uint64_t stop =
                        ((q - ONES) & ~q) | ((b - ONES) & ~b);
                if (stop & (ONES << 7))
                    return p + std::countr_zero(stop & (ONES << 7)) / 8;
            }
        }
        while (p != end && *p != '"' && *p != '\\')
            p++;
        return p;
    }

    /** Validate the escape at the cursor (a backslash) and step past. */
    void skipEscape();

    std::string_view text;
    std::size_t pos = 0;
    /** A bracket was just opened: the next item needs no comma. */
    bool opened = false;
};

/** A JSON value: null, bool, number, string, array, or object. */
class Json
{
  public:
    enum class Type
    {
        NUL,
        BOOL,
        NUMBER,
        STRING,
        ARRAY,
        OBJECT,
    };

    Json() : type_(Type::NUL) {}
    Json(bool b) : type_(Type::BOOL), bool_(b) {}
    Json(double d) : type_(Type::NUMBER), num_(d) {}
    Json(int i) : type_(Type::NUMBER), num_(i) {}
    Json(std::int64_t i)
        : type_(Type::NUMBER), num_(static_cast<double>(i)) {}
    Json(std::uint64_t u)
        : type_(Type::NUMBER), num_(static_cast<double>(u)) {}
    Json(const char *s) : type_(Type::STRING), str_(s) {}
    Json(std::string s) : type_(Type::STRING), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::ARRAY; return j; }
    static Json object() { Json j; j.type_ = Type::OBJECT; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::NUL; }

    // ----- Scalar access (fatal() on type mismatch) -----
    bool asBool() const;
    double asDouble() const;
    /** The number truncated toward zero; fatal() if it does not fit. */
    std::int64_t asInt() const;
    /** The number truncated toward zero; fatal() if it does not fit. */
    std::uint64_t asUint() const;
    const std::string &asString() const;

    // ----- Array access -----
    /** Append an element (array only). */
    Json &push(Json v);
    std::size_t size() const;
    const Json &at(std::size_t i) const;

    // ----- Object access (insertion-ordered) -----
    /** Set @p key to @p v, replacing an existing entry in place. */
    Json &set(std::string key, Json v);
    /**
     * The one keyed lookup: the value under @p key, or nullptr if
     * this is not an object or has no such key. The accessors below
     * are wrappers around it.
     */
    const Json *find(std::string_view key) const;
    bool contains(std::string_view key) const;
    /** Look @p key up; fatal() if absent. */
    const Json &at(std::string_view key) const;
    /** Look @p key up; @p fallback if absent. */
    double numberOr(std::string_view key, double fallback) const;
    /** Look @p key up; @p fallback if absent. */
    bool boolOr(std::string_view key, bool fallback) const;
    /** Look @p key up; @p fallback if absent. */
    std::string stringOr(std::string_view key,
                         const std::string &fallback) const;
    const std::vector<std::pair<std::string, Json>> &items() const;

    /**
     * Serialize. @p indent < 0 emits compact single-line output;
     * otherwise pretty-print with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /** Parse @p text; fatal() with a line/column message on error. */
    static Json parse(std::string_view text);

    /**
     * Parse @p text into @p out, returning false on malformed input
     * instead of exiting. For readers of files the process does not
     * own — the persistent cell store must treat a corrupted or
     * truncated cache entry as a miss, never as a fatal error.
     * @p out is untouched on failure.
     */
    static bool tryParse(std::string_view text, Json &out);

    bool operator==(const Json &o) const;

  private:
    friend class JsonParser;

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * The writer's canonical number formatting (integers without a
 * decimal point, everything else %.17g), exposed so the CSV emitter
 * produces byte-identical numbers to the JSON one.
 */
std::string jsonNumberText(double d);

} // namespace ltrf::harness

#endif // LTRF_HARNESS_JSON_HH
