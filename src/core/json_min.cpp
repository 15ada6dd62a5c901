#include "core/json_min.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mr::json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string error;

  explicit Parser(const std::string& text) : s(text) {}

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool fail(const std::string& msg) {
    if (error.empty()) error = msg + " at offset " + std::to_string(i);
    return false;
  }
  bool expect(char c) {
    skip_ws();
    if (i >= s.size() || s[i] != c)
      return fail(std::string("expected '") + c + "'");
    ++i;
    return true;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      char ch = s[i++];
      if (ch == '\\') {
        if (i >= s.size()) return fail("bad escape");
        const char esc = s[i++];
        switch (esc) {
          case '"': ch = '"'; break;
          case '\\': ch = '\\'; break;
          case '/': ch = '/'; break;
          case 'n': ch = '\n'; break;
          case 't': ch = '\t'; break;
          case 'r': ch = '\r'; break;
          case 'b': ch = '\b'; break;
          case 'f': ch = '\f'; break;
          case 'u': {
            // Only the BMP code points our writers never emit; decode to
            // UTF-8 so round-trips stay lossless anyway.
            if (i + 4 > s.size()) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int d = 0; d < 4; ++d) {
              const char h = s[i++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            continue;
          }
          default:
            return fail("bad escape");
        }
      }
      out.push_back(ch);
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '"') {
      out.kind = Value::Kind::String;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string word = c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (s.compare(i, word.size(), word) != 0) return fail("bad literal");
      i += word.size();
      out.kind = c == 'n' ? Value::Kind::Null : Value::Kind::Bool;
      out.boolean = c == 't';
      return true;
    }
    if (c == '{') {
      out.kind = Value::Kind::Object;
      ++i;
      skip_ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      for (;;) {
        std::string key;
        if (!parse_string(key)) return false;
        if (!expect(':')) return false;
        Value member;
        if (!parse_value(member, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(member));
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        return expect('}');
      }
    }
    if (c == '[') {
      out.kind = Value::Kind::Array;
      ++i;
      skip_ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      for (;;) {
        Value element;
        if (!parse_value(element, depth + 1)) return false;
        out.array.push_back(std::move(element));
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        return expect(']');
      }
    }
    // number
    const std::size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E'))
      ++i;
    if (i == start) return fail("expected value");
    try {
      out.number = std::stod(s.substr(start, i - start));
    } catch (...) {
      return fail("bad number");
    }
    out.kind = Value::Kind::Number;
    return true;
  }
};

}  // namespace

std::optional<Value> parse(const std::string& text, std::string* error) {
  Parser p(text);
  Value v;
  if (!p.parse_value(v, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    if (error != nullptr)
      *error = "trailing garbage at offset " + std::to_string(p.i);
    return std::nullopt;
  }
  return v;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

std::string number_to_string(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)))
    return std::to_string(static_cast<std::int64_t>(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace mr::json
