// Minimal JSON reader/writer helpers for the harness layer.
//
// Just enough JSON to round-trip the machine-readable records this repo
// emits (scenario results, the engine benchmark record): objects, arrays,
// strings with standard escapes, numbers, booleans, null. Not a general
// validator — malformed input is rejected with a position, nothing more.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mr::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered; duplicate keys keep the first occurrence on find().
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Parses `text` as one JSON value (trailing whitespace allowed). On
/// failure returns nullopt and, when `error` is non-null, stores a
/// message with the byte offset of the problem.
std::optional<Value> parse(const std::string& text, std::string* error);

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes). Non-ASCII bytes pass through (UTF-8 is valid JSON).
std::string escape(const std::string& s);

/// Formats a double the way the repo's JSON writers do: shortest form
/// that round-trips integers exactly ("3" not "3.000000").
std::string number_to_string(double v);

}  // namespace mr::json
