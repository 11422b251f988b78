#include "quest/io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace quest::io {

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw Parse_error(std::string("JSON type mismatch: expected ") + expected);
}

/// Converts a scanned number token (`-?digits[.digits][(e|E)[+-]digits]`,
/// digits possibly empty) exactly as strtod would, without copying it.
/// from_chars reports underflow as out of range where strtod rounds
/// toward zero and succeeds, so that one case defers to strtod; overflow
/// and malformed tokens are refused either way.
bool parse_number_token(std::string_view token, double& value) {
  const char* const last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error == std::errc::result_out_of_range) {
    const std::string copy(token);
    char* copy_end = nullptr;
    value = std::strtod(copy.c_str(), &copy_end);
    return copy_end == copy.c_str() + copy.size() && std::isfinite(value);
  }
  return error == std::errc{} && end == last;
}

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_whitespace();
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return value;
  }

 private:
  static constexpr int max_depth = 128;

  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream out;
    out << "JSON parse error at line " << line << ", column " << column
        << ": " << message;
    throw Parse_error(out.str());
  }

  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_whitespace() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value(int depth) {
    if (depth > max_depth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object object;
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated object");
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(object));
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array array;
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    for (;;) {
      skip_whitespace();
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated array");
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char escape = next();
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed for quest documents but are rejected loudly).
            if (code >= 0xD800 && code <= 0xDFFF) {
              fail("surrogate pairs are not supported");
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("invalid escape sequence");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      out.push_back(c);
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    double value = 0.0;
    if (!parse_number_token(token, value)) {
      fail("invalid number '" + std::string(token) + "'");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  QUEST_EXPECTS(std::isfinite(d), "JSON numbers must be finite");
  // Integers print without a fraction; everything else round-trips via
  // max_digits10. Byte-identical to printf's "%.0f" / "%.17g", without
  // its locale and format-string overhead.
  char buffer[32];
  std::to_chars_result written{};
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    written = std::to_chars(buffer, buffer + sizeof buffer,
                            static_cast<std::int64_t>(d));
  } else {
    written = std::to_chars(buffer, buffer + sizeof buffer, d,
                            std::chars_format::general, 17);
  }
  out.append(buffer, written.ptr);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw Parse_error("JSON object is missing key '" + std::string(key) +
                      "'");
  }
  return *found;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) type_error("object");
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::size_t index) const {
  const Array& array = as_array();
  if (index >= array.size()) {
    throw Parse_error("JSON array index out of range");
  }
  return array[index];
}

void Json::set(std::string key, Json value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) type_error("object");
  std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  if (!is_array()) type_error("array");
  std::get<Array>(value_).push_back(std::move(value));
}

namespace {

void dump_value(const Json& json, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_value(const Json& json, std::string& out, int indent, int depth) {
  if (json.is_null()) {
    out += "null";
  } else if (json.is_bool()) {
    out += json.as_bool() ? "true" : "false";
  } else if (json.is_number()) {
    dump_number(json.as_number(), out);
  } else if (json.is_string()) {
    dump_string(json.as_string(), out);
  } else if (json.is_array()) {
    const auto& array = json.as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      dump_value(array[i], out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& object = json.as_object();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(key, out);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      dump_value(value, out, indent, depth + 1);
    }
    newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Parse_error("cannot open file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw Parse_error("error while reading '" + path + "'");
  }
  return buffer.str();
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Parse_error("cannot open file '" + path + "' for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out.good()) throw Parse_error("error while writing '" + path + "'");
}

}  // namespace quest::io
