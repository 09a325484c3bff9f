#include "config/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal(strfmt("JSON parse error at line %zu col %zu: %s", line, col,
                     why.c_str()));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(strfmt("expected '%c'", c));
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    /**
     * Depth cap shared by parseObject/parseArray: parsing recurses
     * per nesting level, and the serving layer feeds network input
     * to this parser — an unbounded '[[[[...' body must be a
     * ConfigError, not a stack overflow that kills the resident
     * process. 200 levels is far beyond any real config and well
     * within any thread's stack.
     */
    void
    enterContainer()
    {
        if (depth_ >= 200)
            fail("nesting deeper than 200 levels");
        ++depth_;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue(nullptr);
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        enterContainer();
        expect('{');
        JsonValue::Object obj;
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return JsonValue(std::move(obj));
        }
        while (true) {
            if (peek() != '"')
                fail("object key must be a string");
            std::string key = parseString();
            expect(':');
            obj.emplace(std::move(key), parseValue());
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                --depth_;
                return JsonValue(std::move(obj));
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray()
    {
        enterContainer();
        expect('[');
        JsonValue::Array arr;
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return JsonValue(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                --depth_;
                return JsonValue(std::move(arr));
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
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
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                if (code > 0xFF)
                    fail("\\u escape beyond Latin-1 unsupported");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipWs();
        size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool any = false;
        auto digits = [&]() {
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                any = true;
            }
        };
        digits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            digits();
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '-' || text_[pos_] == '+')) {
                ++pos_;
            }
            digits();
        }
        if (!any)
            fail("invalid number");
        double d = 0.0;
        try {
            d = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("number out of range");
        }
        return JsonValue(d);
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0; ///< Current container nesting (capped at 200).
};

std::string
escapeString(const std::string &in)
{
    std::string out = "\"";
    for (char c : in) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

std::string
dumpNumber(double d)
{
    // Range first: casting a double outside long long is undefined.
    if (std::abs(d) < 1e15 &&
        d == static_cast<double>(static_cast<long long>(d))) {
        return strfmt("%lld", static_cast<long long>(d));
    }
    return strfmt("%.17g", d);
}

/**
 * @p v as a signed integer of @p digits value bits, so in
 * [-2^digits, 2^digits): both bounds are exact doubles, unlike
 * LONG_MAX. The !(in-range) form also rejects NaN and infinities.
 * @throws ConfigError
 */
long
checkedInteger(double v, int digits)
{
    if (v != std::trunc(v))
        fatal(strfmt("JSON number %.17g is not an integer", v));
    const double limit = std::ldexp(1.0, digits);
    if (!(v >= -limit && v < limit)) {
        fatal(strfmt("JSON number %.17g is outside [-2^%d, 2^%d)", v,
                     digits, digits));
    }
    return static_cast<long>(v);
}

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open JSON file: " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

bool JsonValue::isNull() const
{
    return std::holds_alternative<std::nullptr_t>(value_);
}
bool JsonValue::isBool() const
{
    return std::holds_alternative<bool>(value_);
}
bool JsonValue::isNumber() const
{
    return std::holds_alternative<double>(value_);
}
bool JsonValue::isString() const
{
    return std::holds_alternative<std::string>(value_);
}
bool JsonValue::isArray() const
{
    return std::holds_alternative<Array>(value_);
}
bool JsonValue::isObject() const
{
    return std::holds_alternative<Object>(value_);
}

bool
JsonValue::asBool() const
{
    if (!isBool())
        fatal("JSON value is not a boolean");
    return std::get<bool>(value_);
}

double
JsonValue::asDouble() const
{
    if (!isNumber())
        fatal("JSON value is not a number");
    return std::get<double>(value_);
}

long
JsonValue::asLong() const
{
    return checkedInteger(asDouble(), std::numeric_limits<long>::digits);
}

int
JsonValue::asInt() const
{
    return static_cast<int>(
        checkedInteger(asDouble(), std::numeric_limits<int>::digits));
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        fatal("JSON value is not a string");
    return std::get<std::string>(value_);
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (!isArray())
        fatal("JSON value is not an array");
    return std::get<Array>(value_);
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (!isObject())
        fatal("JSON value is not an object");
    return std::get<Object>(value_);
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const Object &obj = asObject();
    auto it = obj.find(key);
    if (it == obj.end())
        fatal("missing JSON key: " + key);
    return it->second;
}

bool
JsonValue::has(const std::string &key) const
{
    return isObject() && asObject().count(key) > 0;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asDouble() : fallback;
}

long
JsonValue::longOr(const std::string &key, long fallback) const
{
    return has(key) ? at(key).asLong() : fallback;
}

int
JsonValue::intOr(const std::string &key, int fallback) const
{
    return has(key) ? at(key).asInt() : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

const JsonValue &
JsonValue::at(size_t idx) const
{
    const Array &arr = asArray();
    if (idx >= arr.size())
        fatal(strfmt("JSON array index %zu out of range", idx));
    return arr[idx];
}

size_t
JsonValue::size() const
{
    if (isArray())
        return std::get<Array>(value_).size();
    if (isObject())
        return std::get<Object>(value_).size();
    fatal("JSON size() on non-container");
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue v)
{
    if (!isObject())
        value_ = Object{};
    std::get<Object>(value_)[key] = std::move(v);
    return *this;
}

JsonValue &
JsonValue::member(const std::string &key)
{
    if (!isObject())
        value_ = Object{};
    return std::get<Object>(value_)[key];
}

JsonValue &
JsonValue::element(size_t idx)
{
    return const_cast<JsonValue &>(std::as_const(*this).at(idx));
}

JsonValue &
JsonValue::append(JsonValue v)
{
    if (!isArray())
        value_ = Array{};
    std::get<Array>(value_).push_back(std::move(v));
    return *this;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent * d), ' ');
        }
    };

    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += std::get<bool>(value_) ? "true" : "false";
    } else if (isNumber()) {
        out += dumpNumber(std::get<double>(value_));
    } else if (isString()) {
        out += escapeString(std::get<std::string>(value_));
    } else if (isArray()) {
        const Array &arr = std::get<Array>(value_);
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
    } else {
        const Object &obj = std::get<Object>(value_);
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            out += escapeString(k);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

} // namespace madmax
