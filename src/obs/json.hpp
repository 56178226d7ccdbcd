/**
 * @file
 * Minimal JSON support for machine-readable run artifacts.
 *
 * Writer: streaming, append-only, with deterministic number formatting —
 * doubles are printed with the shortest representation that round-trips,
 * so identical values always serialize to identical bytes (the JSONL
 * byte-identity contract leans on this).
 *
 * Parser: a small recursive-descent reader covering the JSON the writer
 * emits (objects, arrays, strings, numbers, booleans, null). It exists
 * for the round-trip tests and the trace_inspect tool; it is not a
 * general-purpose validating parser.
 */

#ifndef HCLOUD_OBS_JSON_HPP
#define HCLOUD_OBS_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hcloud::obs {

/** Shortest decimal form of @p v that parses back to the same bits. */
std::string formatDouble(double v);

/** @p s with JSON string escapes applied (no surrounding quotes). */
std::string escapeJson(std::string_view s);

/**
 * Streaming JSON writer building into an internal buffer.
 *
 * Usage: begin/end Object/Array nest freely; key() names the next value
 * inside an object; commas are inserted automatically.
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    void key(std::string_view name);
    void value(std::string_view s);
    void value(const char* s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);
    void valueNull();

    /**
     * Format doubles with std::to_chars instead of the snprintf/strtod
     * shortest-round-trip search. Same parsed values, not the same
     * bytes — only for streams that are re-parsed, never byte-compared
     * (the session journal hot path).
     */
    void rawDoubles(bool on) { rawDoubles_ = on; }

    /** Shorthand for key(name) followed by value(v). */
    template <typename T>
    void field(std::string_view name, T&& v)
    {
        key(name);
        value(std::forward<T>(v));
    }

    const std::string& str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void comma();

    std::string out_;
    /** One entry per open container: does the next item need a comma? */
    std::vector<bool> needComma_;
    bool pendingKey_ = false;
    bool rawDoubles_ = false;
};

/** Parsed JSON value (order-preserving object representation). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member of an object, or nullptr when absent / not an object. */
    const JsonValue* find(std::string_view name) const;

    double numberOr(double fallback) const
    {
        return type == Type::Number ? number : fallback;
    }
    std::string stringOr(std::string fallback) const
    {
        return type == Type::String ? string : std::move(fallback);
    }
    bool boolOr(bool fallback) const
    {
        return type == Type::Bool ? boolean : fallback;
    }
};

/**
 * Deepest nesting of arrays and objects parseJson() accepts. The parser
 * recurses once per level, so without a cap a request body or journal
 * line of a few hundred thousand '[' overflows the stack. The deepest
 * document the program writes nests about 7 levels.
 */
inline constexpr std::size_t kMaxJsonDepth = 64;

/**
 * Parse one JSON document from @p text.
 * @throws std::runtime_error on malformed input, including nesting
 *         deeper than kMaxJsonDepth.
 */
JsonValue parseJson(std::string_view text);

} // namespace hcloud::obs

#endif // HCLOUD_OBS_JSON_HPP
