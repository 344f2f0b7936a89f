#include "bwc/server/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bwc/support/error.h"

namespace bwc::server {

namespace {

/// Nesting depth cap: frames are length-capped upstream, but a few KiB of
/// '[' would still recurse thousands of frames deep without this.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("[bad-json] " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate object key \"" + key +
                                         "\"");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return obj;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return arr;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("bad escape character");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return v;
  }

  /// \uXXXX (with surrogate pairing) to UTF-8.
  void append_unicode_escape(std::string& out) {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("unpaired surrogate");
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number fraction");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("bad number exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    if (!std::isfinite(v)) fail("number out of range");
    return JsonValue::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  BWC_CHECK(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  BWC_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  BWC_CHECK(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  BWC_CHECK(kind_ == Kind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  BWC_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_string())
    throw Error("[bad-json] field \"" + key + "\" must be a string");
  return v->as_string();
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number())
    throw Error("[bad-json] field \"" + key + "\" must be a number");
  return v->as_number();
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool())
    throw Error("[bad-json] field \"" + key + "\" must be a boolean");
  return v->as_bool();
}

void JsonValue::push_back(JsonValue v) {
  BWC_CHECK(kind_ == Kind::kArray, "push_back on a non-array JSON value");
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  BWC_CHECK(kind_ == Kind::kObject, "set on a non-object JSON value");
  members_.emplace_back(std::move(key), std::move(v));
}

std::string JsonValue::render() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return bool_ ? "true" : "false";
    case Kind::kNumber: {
      // Integral values render without a fraction so counters stay exact
      // and stable; everything else gets round-trip precision.
      if (number_ == static_cast<double>(static_cast<std::int64_t>(number_))) {
        return std::to_string(static_cast<std::int64_t>(number_));
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      return buf;
    }
    case Kind::kString: return json_quote(string_);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ",";
        out += items_[i].render();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ",";
        out += json_quote(members_[i].first) + ":" +
               members_[i].second.render();
      }
      return out + "}";
    }
  }
  return "null";
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace bwc::server
