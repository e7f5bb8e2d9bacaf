#include "json/write.hpp"

#include <charconv>
#include <cmath>
#include <string_view>

namespace vp::json {
namespace {

// A sink that keeps only the number of bytes a std::string would have
// received; WriteImpl takes either.
struct ByteCounter {
  size_t size = 0;
  ByteCounter& operator+=(char) {
    ++size;
    return *this;
  }
  ByteCounter& operator+=(std::string_view s) {
    size += s.size();
    return *this;
  }
  void append(size_t n, char) { size += n; }
};

// Integers below 1e15 print as printf's "%lld", everything else finite
// as "%.17g" (round-trips every double). std::to_chars is specified to
// produce exactly those bytes in the C locale. JSON has no spelling
// for NaN or ±inf: they write null, as JSON.stringify does.
std::string_view FormatNumber(double d, char (&buf)[32]) {
  if (!std::isfinite(d)) return "null";
  char* const last = buf + sizeof buf;
  const std::to_chars_result r =
      d == std::floor(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, last, static_cast<long long>(d))
          : std::to_chars(buf, last, d, std::chars_format::general, 17);
  return {buf, static_cast<size_t>(r.ptr - buf)};
}

// Appends `s` quoted, escaping in place: unescaped runs go out whole.
template <typename Sink>
void WriteString(Sink& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out += s.substr(run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out += std::string_view(esc, sizeof esc);
      }
    }
  }
  out += s.substr(run);
  out += '"';
}

template <typename Sink>
void WriteImpl(const Value& v, int indent, int depth, Sink& out) {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case Type::kNumber: {
      char buf[32];
      out += FormatNumber(v.AsDouble(), buf);
      break;
    }
    case Type::kString:
      WriteString(out, v.AsString());
      break;
    case Type::kArray: {
      const auto& arr = v.AsArray();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        WriteImpl(arr[i], indent, depth + 1, out);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = v.AsObject();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, val] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        WriteString(out, k);
        out += ':';
        if (pretty) out += ' ';
        WriteImpl(val, indent, depth + 1, out);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Write(const Value& v, int indent) {
  std::string out;
  WriteImpl(v, indent, 0, out);
  if (indent >= 0) out += '\n';
  return out;
}

size_t WrittenSize(const Value& v) {
  ByteCounter counter;
  WriteImpl(v, -1, 0, counter);
  return counter.size;
}

}  // namespace vp::json
