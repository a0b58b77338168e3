#ifndef CLOUDVIEWS_STORAGE_VALUE_H_
#define CLOUDVIEWS_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"

namespace cloudviews {

enum class DataType {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeName(DataType type);

// A dynamically typed scalar cell. Null is represented as the monostate
// alternative. The executor works on typed columns (storage/column.h), whose
// cell-level helpers replicate these methods bit for bit; Values remain the
// unit of row-at-a-time evaluation (Expr::Evaluate), of Table's row view and
// of mixed-type column storage.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  DataType type() const;

  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  // Numeric coercion: int64 and double both read as double.
  double NumericValue() const;

  // Total ordering used by sort/merge-join/group-by. Nulls sort first; values
  // of different types order by type tag (the engine's analyzer prevents
  // mixed-type comparisons in well-formed plans, but ordering stays total).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  // Feeds this value into a hasher (used by hash join/aggregate).
  void HashInto(Hasher* hasher) const;

  // Approximate in-memory footprint in bytes; drives the simulated IO and
  // storage accounting.
  size_t ByteSize() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

// Hash of a key formed by a subset of row columns.
uint64_t HashRowKey(const Row& row, const std::vector<int>& key_indices);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_VALUE_H_
