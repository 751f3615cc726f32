#include "engine/tuple.h"

namespace dsps::engine {

double AsDouble(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<int64_t>(&v)) return static_cast<double>(*i);
  return 0.0;
}

int64_t AsInt64(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) return static_cast<int64_t>(*d);
  return 0;
}

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> Schema::NumericFieldIndices() const {
  std::vector<int> out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].type != ValueType::kString) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

int64_t Tuple::SizeBytes() const {
  // Fixed header (stream id + timestamp) plus per-field payload.
  int64_t size = 12;
  for (const Value& v : values) {
    if (const auto* s = std::get_if<std::string>(&v)) {
      size += 4 + static_cast<int64_t>(s->size());
    } else {
      size += 8;
    }
  }
  return size;
}

std::shared_ptr<const std::vector<double>> ProjectPoint(const Tuple& tuple) {
  auto point = std::make_shared<std::vector<double>>();
  point->reserve(tuple.values.size());
  for (const Value& v : tuple.values) point->push_back(AsDouble(v));
  return point;
}

double NumericField(const Tuple& tuple, int index) {
  return index >= 0 && static_cast<size_t>(index) < tuple.values.size()
             ? AsDouble(tuple.values[index])
             : 0.0;
}

}  // namespace dsps::engine
