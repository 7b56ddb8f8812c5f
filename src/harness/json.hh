/**
 * @file
 * Minimal JSON value type for the experiment harness: a writer with
 * deterministic output (insertion-ordered object keys, canonical
 * number formatting) and a strict parser.
 *
 * Determinism is a hard requirement here, not a nicety: CI diffs the
 * `ltrf_run` smoke-sweep output against a golden file and against a
 * run with a different thread count, so dumping the same value twice
 * must produce byte-identical text.
 */

#ifndef LTRF_HARNESS_JSON_HH
#define LTRF_HARNESS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ltrf::harness
{

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
