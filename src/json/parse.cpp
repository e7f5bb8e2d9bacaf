#include "json/parse.hpp"

#include <cmath>
#include <cstdlib>
#include <optional>

#include "common/strings.hpp"

namespace vp::json {
namespace {

/// kBuild: parse into a Value tree. Otherwise only check — every
/// output pointer is null and nothing is built — with the same
/// verdict and error.
template <bool kBuild>
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Parse the whole document into `*out` (null when validating).
  Status ParseDocument(Value* out) {
    if (!ParseInto(out)) return Status(*error_);
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status(Fail("trailing characters after document"));
    }
    return Status::Ok();
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
    Value::Array* arr = nullptr;
    if constexpr (kBuild) {
      *out = Value::MakeArray();
      arr = &out->AsArray();
    }
    while (true) {
      SkipWhitespace();
      if (Peek() == ']') {  // empty, or a trailing comma
        ++pos_;
        return true;
      }
      Value* item = nullptr;
      if constexpr (kBuild) item = &arr->emplace_back();
      if (!ParseInto(item)) return false;
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
    Value::Object* obj = nullptr;
    if constexpr (kBuild) {
      *out = Value::MakeObject();
      obj = &out->AsObject();
    }
    while (true) {
      SkipWhitespace();
      if (Peek() == '}') {  // empty, or a trailing comma
        ++pos_;
        return true;
      }
      Value* slot = nullptr;
      if (!ParseKey(obj, &slot) || !ParseInto(slot)) return false;
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

  /// `"key":` — sets `*slot` to the member's slot in `obj` (a repeated
  /// key overwrites); false on error.
  bool ParseKey(Value::Object* obj, Value** slot) {
    if (Peek() != '"') return Reject(Fail("expected object key string"));
    std::string key;
    if (!ParseString(&key)) return false;
    SkipWhitespace();
    if (Peek() != ':') return Reject(Fail("expected ':' after key"));
    ++pos_;
    if constexpr (kBuild) *slot = &(*obj)[key];
    return true;
  }

  bool ParseScalarInto(Value* out) {
    switch (text_[pos_]) {
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        if constexpr (kBuild) *out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!Match("true")) return Reject(Fail("invalid literal"));
        if constexpr (kBuild) *out = Value(true);
        return true;
      case 'f':
        if (!Match("false")) return Reject(Fail("invalid literal"));
        if constexpr (kBuild) *out = Value(false);
        return true;
      case 'n':
        if (!Match("null")) return Reject(Fail("invalid literal"));
        if constexpr (kBuild) *out = Value(nullptr);
        return true;
      default: {
        std::optional<double> n = ParseNumber();
        if (!n.has_value()) return false;
        if constexpr (kBuild) *out = Value(*n);
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

  /// Appends a decoded string to `*out` (left empty when validating);
  /// false on error.
  bool ParseString(std::string* out) {
    const auto put = [out](char c) {
      if constexpr (kBuild) *out += c;
    };
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': put('"'); break;
          case '\\': put('\\'); break;
          case '/': put('/'); break;
          case 'b': put('\b'); break;
          case 'f': put('\f'); break;
          case 'n': put('\n'); break;
          case 'r': put('\r'); break;
          case 't': put('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Reject(Fail("bad \\u escape"));
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Reject(Fail("bad hex digit in \\u escape"));
            }
            pos_ += 4;
            // Encode as UTF-8 (BMP only; surrogate pairs are passed
            // through as two 3-byte sequences — enough for our configs).
            if (code < 0x80) {
              put(static_cast<char>(code));
            } else if (code < 0x800) {
              put(static_cast<char>(0xC0 | (code >> 6)));
              put(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              put(static_cast<char>(0xE0 | (code >> 12)));
              put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              put(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Reject(Fail("unknown escape character"));
        }
        continue;
      }
      put(c);
      ++pos_;
    }
    return Reject(Fail("unterminated string"));
  }

  /// The number at pos_; nullopt on error (see error_).
  std::optional<double> ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Reject(Fail("expected a value"));
      return std::nullopt;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      Reject(Fail("invalid number '" + token + "'"));
      return std::nullopt;
    }
    return v;
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

  Error Fail(const std::string& what) const {
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
  Value out;
  Status status = Parser<true>(text).ParseDocument(&out);
  if (!status.ok()) return status.error();
  return out;
}

Status Validate(std::string_view text) {
  return Parser<false>(text).ParseDocument(nullptr);
}

}  // namespace vp::json
