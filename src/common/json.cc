#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace trap::common {

namespace {

constexpr int kMaxDepth = 32;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool Fail(const std::string& why) {
    if (error.empty()) {
      error = StrFormat("%s at offset %zu", why.c_str(), pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool Literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return Fail("bad literal");
    pos += lit.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos >= text.size() || text[pos] != '"') return Fail("expected '\"'");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return Fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are not needed by
          // this protocol; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' ||
            text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return Fail("expected number");
    const std::string buf(text.substr(start, pos - start));
    char* end = nullptr;
    out->number_value = std::strtod(buf.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos >= text.size() || text[pos] != ':') return Fail("expected ':'");
        ++pos;
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) return false;
        out->members.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos >= text.size()) return Fail("unterminated object");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        JsonValue item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
        SkipSpace();
        if (pos >= text.size()) return Fail("unterminated array");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }
};

void WriteValue(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.bool_value ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      *out += StrFormat("%.17g", v.number_value);
      return;
    case JsonValue::Kind::kString:
      *out += JsonQuote(v.string_value);
      return;
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, m] : v.members) {
        if (!first) out->push_back(',');
        first = false;
        *out += JsonQuote(k);
        out->push_back(':');
        WriteValue(m, out);
      }
      out->push_back('}');
      return;
    }
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items) {
        if (!first) out->push_back(',');
        first = false;
        WriteValue(item, out);
      }
      out->push_back(']');
      return;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> JsonValue::NumberAt(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kNumber) return std::nullopt;
  return v->number_value;
}

std::optional<std::int64_t> JsonValue::IntAt(std::string_view key) const {
  // -2^63 is a double; 2^63 is the first one past int64's top.
  constexpr double kTwo63 = 9223372036854775808.0;
  std::optional<double> d = NumberAt(key);
  if (!d.has_value() || !std::isfinite(*d) || std::trunc(*d) != *d ||
      *d < -kTwo63 || *d >= kTwo63) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(*d);
}

std::optional<bool> JsonValue::BoolAt(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kBool) return std::nullopt;
  return v->bool_value;
}

std::optional<std::string> JsonValue::StringAt(std::string_view key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind != Kind::kString) return std::nullopt;
  return v->string_value;
}

std::optional<std::uint64_t> JsonValue::HexAt(std::string_view key) const {
  std::optional<std::string> s = StringAt(key);
  if (!s.has_value() || s->substr(0, 2) != "0x") return std::nullopt;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s->c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0' || end == s->c_str() + 2) {
    return std::nullopt;
  }
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind = Kind::kArray;
  return v;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind = Kind::kBool;
  v.bool_value = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind = Kind::kNumber;
  v.number_value = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind = Kind::kString;
  v.string_value = std::move(s);
  return v;
}

JsonValue JsonValue::Hex(std::uint64_t u) {
  JsonValue v;
  v.kind = Kind::kString;
  v.string_value =
      StrFormat("0x%016llx", static_cast<unsigned long long>(u));
  return v;
}

JsonValue& JsonValue::Set(std::string_view key, JsonValue v) {
  kind = Kind::kObject;
  for (auto& [k, m] : members) {
    if (k == key) {
      m = std::move(v);
      return *this;
    }
  }
  members.emplace_back(std::string(key), std::move(v));
  return *this;
}

JsonValue& JsonValue::Push(JsonValue v) {
  kind = Kind::kArray;
  items.push_back(std::move(v));
  return *this;
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  Parser p{text, 0, {}};
  JsonValue out;
  if (!p.ParseValue(&out, 0)) {
    return Status::InvalidArgument("json: " + p.error);
  }
  p.SkipSpace();
  if (p.pos != text.size()) {
    return Status::InvalidArgument("json: trailing bytes");
  }
  return out;
}

std::string WriteJson(const JsonValue& v) {
  std::string out;
  WriteValue(v, &out);
  return out;
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace trap::common
