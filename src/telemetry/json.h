#ifndef DSPS_TELEMETRY_JSON_H_
#define DSPS_TELEMETRY_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dsps::telemetry {

/// Escapes `s` per RFC 8259 string rules and wraps it in double quotes.
std::string JsonQuote(std::string_view s);

/// Formats a double as a JSON number (shortest round-trippable form).
/// JSON has no Inf/NaN, so non-finite values render as `null` and bump
/// the process-wide counter below — silently writing 0 would let bad
/// math hide inside otherwise-plausible bench numbers.
std::string JsonNumber(double v);

/// Number of non-finite doubles JsonNumber has rendered as null since
/// process start (or the last reset). BenchReport folds this into a
/// `telemetry.nonfinite_values` counter so it shows up in bench JSON.
int64_t NonfiniteJsonValues();
void ResetNonfiniteJsonValues();

/// Minimal streaming JSON writer. Emits syntactically valid JSON as long
/// as calls respect the grammar (the writer inserts commas, the caller
/// supplies structure). Used by the metric/trace sinks and the bench
/// reports; deterministic byte-for-byte for identical call sequences.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Emits an object key (must be followed by a value or Begin*).
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Number(double value);
  /// Embeds `json` verbatim as one value (must itself be valid JSON).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void MaybeComma();

  std::string out_;
  /// Whether the current nesting level already holds a value (comma needed).
  std::vector<bool> has_value_{false};
  bool after_key_ = false;
};

/// A parsed JSON document. Object member order is preserved as written,
/// so parse(serialize(x)) round-trips deterministically.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                             // kArray
  std::vector<std::pair<std::string, JsonValue>> members;   // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;
  /// Member `key` as a number, or `fallback` when absent / wrong type.
  double NumberOr(std::string_view key, double fallback) const;
  /// Member `key` as a string, or `fallback` when absent / wrong type.
  std::string StringOr(std::string_view key, std::string_view fallback) const;
};

/// Recursive-descent parser for the JSON subset this repo emits (which is
/// all of RFC 8259 minus \u surrogate pairs, decoded as-is). Returns
/// InvalidArgument with a byte offset on malformed input.
common::Result<JsonValue> ParseJson(std::string_view text);

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_JSON_H_
