#include "telemetry/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dsps::telemetry {

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {
int64_t g_nonfinite_values = 0;
}  // namespace

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    ++g_nonfinite_values;
    return "null";
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    ++g_nonfinite_values;
    return "null";
  }
  return std::string(buf, ptr);
}

int64_t NonfiniteJsonValues() { return g_nonfinite_values; }

void ResetNonfiniteJsonValues() { g_nonfinite_values = 0; }

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_value_.back()) out_.push_back(',');
  has_value_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += JsonQuote(key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += JsonQuote(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  MaybeComma();
  out_ += JsonNumber(value);
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string
                                                    : std::string(fallback);
}

namespace {

/// Cursor over the input; all Parse* helpers advance it.
struct Parser {
  std::string_view text;
  size_t pos = 0;

  common::Status Error(const char* what) const {
    return common::Status::InvalidArgument(
        std::string("JSON parse error at byte ") + std::to_string(pos) + ": " +
        what);
  }

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  common::Result<JsonValue> ParseValue(int depth) {
    if (depth > 64) return Error("nesting too deep");
    SkipWs();
    if (pos >= text.size()) return Error("unexpected end of input");
    char c = text[pos];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  common::Result<JsonValue> ParseObject(int depth) {
    ++pos;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return out;
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      out.members.emplace_back(std::move(key.value().string),
                               std::move(value).value());
      SkipWs();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  common::Result<JsonValue> ParseArray(int depth) {
    ++pos;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return out;
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      out.items.push_back(std::move(value).value());
      SkipWs();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  common::Result<JsonValue> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.string.push_back(c);
        continue;
      }
      if (pos >= text.size()) return Error("dangling escape");
      char e = text[pos++];
      switch (e) {
        case '"':
          out.string.push_back('"');
          break;
        case '\\':
          out.string.push_back('\\');
          break;
        case '/':
          out.string.push_back('/');
          break;
        case 'b':
          out.string.push_back('\b');
          break;
        case 'f':
          out.string.push_back('\f');
          break;
        case 'n':
          out.string.push_back('\n');
          break;
        case 'r':
          out.string.push_back('\r');
          break;
        case 't':
          out.string.push_back('\t');
          break;
        case 'u': {
          if (pos + 4 > text.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // ASCII decodes exactly; anything wider is kept as UTF-8.
          if (code < 0x80) {
            out.string.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.string.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.string.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.string.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  common::Result<JsonValue> ParseBool() {
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      out.boolean = true;
      return out;
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      out.boolean = false;
      return out;
    }
    return Error("expected 'true' or 'false'");
  }

  common::Result<JsonValue> ParseNull() {
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      return JsonValue{};
    }
    return Error("expected 'null'");
  }

  common::Result<JsonValue> ParseNumber() {
    size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return Error("expected a value");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + pos, out.number);
    if (ec != std::errc() || ptr != text.data() + pos) {
      return Error("malformed number");
    }
    return out;
  }
};

}  // namespace

common::Result<JsonValue> ParseJson(std::string_view text) {
  Parser parser{text};
  auto value = parser.ParseValue(0);
  if (!value.ok()) return value.status();
  parser.SkipWs();
  if (parser.pos != text.size()) {
    return parser.Error("trailing characters after document");
  }
  return value;
}

}  // namespace dsps::telemetry
