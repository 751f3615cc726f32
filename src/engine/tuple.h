#ifndef DSPS_ENGINE_TUPLE_H_
#define DSPS_ENGINE_TUPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"

namespace dsps::engine {

/// Types a tuple field can hold.
enum class ValueType { kInt64, kDouble, kString };

/// A single field value.
using Value = std::variant<int64_t, double, std::string>;

/// Returns the value as a double for numeric types; strings return 0.
double AsDouble(const Value& v);

/// Returns the value as int64 (doubles truncate, strings return 0).
int64_t AsInt64(const Value& v);

/// One field of a schema.
struct Field {
  std::string name;
  ValueType type = ValueType::kDouble;
};

/// An ordered, named list of fields describing one stream or one operator
/// output. Schemas are immutable after construction.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or -1.
  int IndexOf(const std::string& name) const;

  /// Indices of all numeric (int64/double) fields, in schema order. The
  /// interest boxes of a stream are defined over exactly these dimensions.
  std::vector<int> NumericFieldIndices() const;

 private:
  std::vector<Field> fields_;
};

/// A data tuple flowing through the system.
struct Tuple {
  /// The originating stream (kept through operators for provenance).
  common::StreamId stream = common::kInvalidStream;
  /// Source emission time (simulated seconds); basis for latency and for
  /// time-based windows.
  double timestamp = 0.0;
  /// Telemetry trace this tuple belongs to; 0 = untraced (the default —
  /// tracing is sampled at the source). Purely observational: carries no
  /// wire size and never influences processing.
  int64_t trace_id = 0;
  std::vector<Value> values;

  /// Approximate wire size in bytes (drives bandwidth costs).
  int64_t SizeBytes() const;
};

/// Every value of `tuple` as a double (AsDouble), in field order: the point
/// the dissemination and entity layers stab their interest indexes with.
/// Projected once per published tuple and shared by every hop after.
std::shared_ptr<const std::vector<double>> ProjectPoint(const Tuple& tuple);

/// Copies the numeric fields of `tuple` (per `numeric_indices`, as returned
/// by Schema::NumericFieldIndices) into `out`, resizing it. Used to match
/// tuples against interest boxes.
void ExtractNumeric(const Tuple& tuple, const std::vector<int>& numeric_indices,
                    std::vector<double>* out);

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_TUPLE_H_
