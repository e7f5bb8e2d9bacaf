#include "json/parse.hpp"

#include <cmath>
#include <cstdlib>
#include <optional>

#include "common/strings.hpp"

namespace vp::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    Value out;
    if (!ParseInto(&out)) return *error_;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters after document");
    return out;
  }

 private:
  // The recursion (ParseInto → ParseArrayInto / ParseObjectInto →
  // ParseInto) runs once per nesting level, on handler fibers too
  // (JSON.parse). Each level writes into its output in place and leaves
  // temporaries to non-recursive helpers, so its frames stay small.

  /// Parse one value into `*out`; false on error (see error_).
  bool ParseInto(Value* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Reject(Fail("unexpected end of input"));
    const char c = text_[pos_];
    if (c != '[' && c != '{') return ParseScalarInto(out);
    if (depth_ == kMaxParseDepth) return RejectNesting();
    ++depth_;
    const bool ok = c == '[' ? ParseArrayInto(out) : ParseObjectInto(out);
    --depth_;
    return ok;
  }

  bool ParseArrayInto(Value* out) {
    ++pos_;  // '['
    *out = Value::MakeArray();
    Value::Array& arr = out->AsArray();
    while (true) {
      SkipWhitespace();
      if (Peek() == ']') {  // empty, or a trailing comma
        ++pos_;
        return true;
      }
      arr.emplace_back();
      if (!ParseInto(&arr.back())) return false;
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Reject(Fail("expected ',' or ']' in array"));
    }
  }

  bool ParseObjectInto(Value* out) {
    ++pos_;  // '{'
    *out = Value::MakeObject();
    Value::Object& obj = out->AsObject();
    while (true) {
      SkipWhitespace();
      if (Peek() == '}') {  // empty, or a trailing comma
        ++pos_;
        return true;
      }
      Value* slot = ParseKey(obj);
      if (slot == nullptr || !ParseInto(slot)) return false;
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Reject(Fail("expected ',' or '}' in object"));
    }
  }

  /// `"key":` — the member's slot in `obj` (a repeated key overwrites),
  /// or nullptr on error.
  Value* ParseKey(Value::Object& obj) {
    if (Peek() != '"') {
      Reject(Fail("expected object key string"));
      return nullptr;
    }
    auto key = ParseString();
    if (!key.ok()) {
      Reject(key.error());
      return nullptr;
    }
    SkipWhitespace();
    if (Peek() != ':') {
      Reject(Fail("expected ':' after key"));
      return nullptr;
    }
    ++pos_;
    return &obj[*key];
  }

  bool ParseScalarInto(Value* out) {
    switch (text_[pos_]) {
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return Reject(s.error());
        *out = Value(std::move(*s));
        return true;
      }
      case 't':
        if (!Match("true")) return Reject(Fail("invalid literal"));
        *out = Value(true);
        return true;
      case 'f':
        if (!Match("false")) return Reject(Fail("invalid literal"));
        *out = Value(false);
        return true;
      case 'n':
        if (!Match("null")) return Reject(Fail("invalid literal"));
        *out = Value(nullptr);
        return true;
      default: {
        auto n = ParseNumber();
        if (!n.ok()) return Reject(n.error());
        *out = std::move(*n);
        return true;
      }
    }
  }

  bool Reject(Error error) {
    error_.emplace(std::move(error));
    return false;
  }

  bool RejectNesting() {
    return Reject(Fail(Format("nesting deeper than %d", kMaxParseDepth)));
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
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
          case 'u': {
            if (pos_ + 4 > text_.size()) return FailStr("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return FailStr("bad hex digit in \\u escape");
            }
            pos_ += 4;
            // Encode as UTF-8 (BMP only; surrogate pairs are passed
            // through as two 3-byte sequences — enough for our configs).
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
            return FailStr("unknown escape character");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return FailStr("unterminated string");
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      return Fail("invalid number '" + token + "'");
    }
    return Value(v);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
        continue;
      }
      // `//` line comment extension.
      if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Match(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Error Fail(const std::string& what) const { return FailStr(what); }

  Error FailStr(const std::string& what) const {
    size_t line = 1;
    size_t col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return ParseError(Format("json:%zu:%zu: %s", line, col, what.c_str()));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open around pos_
  std::optional<Error> error_;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace vp::json
