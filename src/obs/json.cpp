#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hcloud::obs {

std::string
formatDouble(double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        return "null";
    }
    char buf[40];
    // Shortest precision that survives a strtod round trip; 17 always
    // does (IEEE-754 double), shorter usually suffices and reads better.
    // Round-tripping is monotone in precision (more digits parse back
    // at least as close), so binary search finds the same minimal
    // precision as a linear scan — identical bytes, ~5 probes instead
    // of up to 17 (this sits on the report/trace/journal hot paths).
    int lo = 1, hi = 17;
    while (lo < hi) {
        const int mid = (lo + hi) / 2;
        std::snprintf(buf, sizeof(buf), "%.*g", mid, v);
        if (std::strtod(buf, nullptr) == v)
            hi = mid;
        else
            lo = mid + 1;
    }
    std::snprintf(buf, sizeof(buf), "%.*g", lo, v);
    return buf;
}

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already placed the comma
    }
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    needComma_.push_back(false);
}

void
JsonWriter::endObject()
{
    needComma_.pop_back();
    out_ += '}';
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    needComma_.push_back(false);
}

void
JsonWriter::endArray()
{
    needComma_.pop_back();
    out_ += ']';
}

void
JsonWriter::key(std::string_view name)
{
    comma();
    out_ += '"';
    out_ += escapeJson(name);
    out_ += "\":";
    pendingKey_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    comma();
    out_ += '"';
    out_ += escapeJson(s);
    out_ += '"';
}

void
JsonWriter::value(double v)
{
    comma();
    if (rawDoubles_ && std::isfinite(v)) {
        // Shortest round-trip via to_chars: ~10x cheaper than the
        // snprintf/strtod search, different bytes (exponent style).
        char buf[40];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
        return;
    }
    out_ += formatDouble(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    comma();
    out_ += std::to_string(v);
}

void
JsonWriter::value(std::int64_t v)
{
    comma();
    out_ += std::to_string(v);
}

void
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
}

void
JsonWriter::valueNull()
{
    comma();
    out_ += "null";
}

const JsonValue*
JsonValue::find(std::string_view name) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto& [key, value] : object) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const char* what)
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    std::string parseString()
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
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // The writer only escapes control characters; decode
                // basic-plane codepoints as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    /** @p depth: arrays and objects enclosing the value at pos_. */
    JsonValue parseValue(std::size_t depth = 0)
    {
        skipWs();
        JsonValue v;
        char c = peek();
        if ((c == '{' || c == '[') && depth == kMaxJsonDepth)
            fail("nesting too deep");
        if (c == '{') {
            ++pos_;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.object.emplace_back(std::move(key),
                                      parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++pos_;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.array.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            v.string = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        // Number.
        const char* start = text_.data() + pos_;
        char* end = nullptr;
        v.number = std::strtod(start, &end);
        if (end == start)
            fail("expected a value");
        v.type = JsonValue::Type::Number;
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace hcloud::obs
