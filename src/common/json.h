#ifndef TRAP_COMMON_JSON_H_
#define TRAP_COMMON_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace trap::common {

// Minimal JSON document model shared by the serve runtime's frames and the
// BENCH_*.json reports. Self-contained by design: a serve frame crosses a
// process boundary the system deliberately distrusts (clients are
// arbitrary), so every frame is parsed defensively into this tree and then
// field-checked, never pointer-cast.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, in order
  std::vector<JsonValue> items;                            // kArray

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  std::optional<double> NumberAt(std::string_view key) const;
  // nullopt also when the number is not an integer that int64 holds.
  std::optional<std::int64_t> IntAt(std::string_view key) const;
  std::optional<bool> BoolAt(std::string_view key) const;
  std::optional<std::string> StringAt(std::string_view key) const;
  // 64-bit values ride as "0x..." strings: a JSON number is a double and
  // cannot carry a full uint64 (fingerprints, seeds, salts) exactly.
  std::optional<std::uint64_t> HexAt(std::string_view key) const;

  // Tree builders, for code that assembles a document instead of string
  // concatenation. Set replaces an existing member of the same key so a
  // document can never carry duplicates.
  static JsonValue Object();
  static JsonValue Array();
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue Str(std::string v);
  static JsonValue Hex(std::uint64_t v);  // kString, "0x%016x" form
  JsonValue& Set(std::string_view key, JsonValue v);   // object member
  JsonValue& Push(JsonValue v);                        // array element
};

StatusOr<JsonValue> ParseJson(std::string_view text);

// Serializes a tree in member/item order, with no whitespace. Numbers use
// %.17g so strtod round-trips the exact bits: serve requests and responses
// carry weights, costs and budgets that must survive the process boundary
// bit-exactly.
std::string WriteJson(const JsonValue& v);

// Quotes and escapes `s` as a JSON string literal.
std::string JsonQuote(std::string_view s);

}  // namespace trap::common

#endif  // TRAP_COMMON_JSON_H_
