// Minimal JSON reader/writer for the bwcd wire protocol (server/protocol.h).
//
// The daemon consumes untrusted bytes, so the parser is strict and
// bounded: full RFC 8259 value grammar, UTF-8 passed through opaquely,
// nesting depth capped, duplicate object keys rejected. Malformed input
// has exactly one legal outcome, a thrown bwc::Error prefixed
// "[bad-json]" -- the same contract as ir::parse_program, and the one the
// frame fuzzer (tests/fuzz/frame_fuzz.cpp) enforces.
//
// This is deliberately not a general-purpose JSON library: numbers are
// doubles, object key order is preserved (rendering round-trips), and
// there is no streaming -- protocol frames are small and length-capped
// before they ever reach the parser.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bwc/support/json_escape.h"

namespace bwc::server {

/// One JSON value; a tagged union over the six JSON kinds.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Accessors check the kind and throw bwc::Error on mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// Typed member lookup with a fallback for absent keys; a present key
  /// of the wrong kind throws (a misspelled value should not be silently
  /// defaulted).
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

  /// Compact rendering (no whitespace); parse_json(render()) round-trips.
  std::string render() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one JSON document. The whole input must be consumed (trailing
/// garbage is an error). Throws bwc::Error prefixed "[bad-json]".
JsonValue parse_json(const std::string& text);

}  // namespace bwc::server
