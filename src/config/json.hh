/**
 * @file
 * Minimal dependency-free JSON reader/writer. MAD-Max's user-facing
 * configuration (model architecture, distributed system, task +
 * parallelization strategy — §IV-A) is JSON, matching the paper's
 * interface; this keeps the library free of external dependencies.
 *
 * Supported: null, booleans, finite doubles, strings (with the common
 * escapes), arrays, objects. Not supported: comments, NaN/Inf,
 * \u escapes beyond Latin-1. Container nesting is capped at 200
 * levels (a ConfigError beyond that): parsing recurses per level,
 * and the serving layer feeds network input to this parser, so a
 * hostile '[[[[...' document must not overflow the stack.
 */

#ifndef MADMAX_CONFIG_JSON_HH
#define MADMAX_CONFIG_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace madmax
{

/**
 * A parsed JSON value. Value-semantic tree; object keys are kept in
 * sorted order (std::map) for deterministic dumps.
 */
class JsonValue
{
  public:
    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    /** Construct null. */
    JsonValue() : value_(nullptr) {}
    JsonValue(std::nullptr_t) : value_(nullptr) {}
    JsonValue(bool b) : value_(b) {}
    JsonValue(double d) : value_(d) {}
    JsonValue(int i) : value_(static_cast<double>(i)) {}
    JsonValue(long l) : value_(static_cast<double>(l)) {}
    JsonValue(const char *s) : value_(std::string(s)) {}
    JsonValue(std::string s) : value_(std::move(s)) {}
    JsonValue(Array a) : value_(std::move(a)) {}
    JsonValue(Object o) : value_(std::move(o)) {}

    /** Parse a JSON document. @throws ConfigError on malformed input. */
    static JsonValue parse(const std::string &text);

    /** Parse the contents of a file. @throws ConfigError */
    static JsonValue parseFile(const std::string &path);

    bool isNull() const;
    bool isBool() const;
    bool isNumber() const;
    bool isString() const;
    bool isArray() const;
    bool isObject() const;

    /** Typed accessors. @throws ConfigError on type mismatch. */
    bool asBool() const;
    double asDouble() const;

    /**
     * The number as an integer. @throws ConfigError unless it is
     * integral and fits a long (asInt: an int); a bare cast would turn
     * 2.5 into 2 and 2^32 + 16 into 16, and is undefined for 1e300.
     */
    long asLong() const;
    int asInt() const;

    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member access. @throws ConfigError if missing. */
    const JsonValue &at(const std::string &key) const;

    /** True if this is an object containing @p key. */
    bool has(const std::string &key) const;

    /** Object member with fallback when absent. */
    double numberOr(const std::string &key, double fallback) const;
    long longOr(const std::string &key, long fallback) const;
    int intOr(const std::string &key, int fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Array element access. @throws ConfigError if out of range. */
    const JsonValue &at(size_t idx) const;

    size_t size() const;

    /** Mutable object insertion (builder-style). */
    JsonValue &set(const std::string &key, JsonValue v);

    /** Mutable object member, inserted as null when absent (builder-
     *  style; like set(), a non-object becomes an empty object). */
    JsonValue &member(const std::string &key);

    /** Mutable array element. @throws ConfigError if out of range. */
    JsonValue &element(size_t idx);

    /** Mutable array append. */
    JsonValue &append(JsonValue v);

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        value_;
};

} // namespace madmax

#endif // MADMAX_CONFIG_JSON_HH
