#include "engine/operators.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dsps::engine {

void Operator::Process(int port, const Tuple& tuple, std::vector<Tuple>* out) {
  DSPS_DCHECK(port >= 0 && port < num_inputs());
  size_t before = out->size();
  DoProcess(port, tuple, out);
  in_count_ += 1;
  out_count_ += static_cast<int64_t>(out->size() - before);
}

double Operator::observed_selectivity() const {
  if (in_count_ == 0) return estimated_selectivity_;
  return static_cast<double>(out_count_) / static_cast<double>(in_count_);
}

// ---------------------------------------------------------------- FilterOp

FilterOp::FilterOp(std::vector<int> numeric_indices, interest::Box box)
    : numeric_indices_(std::move(numeric_indices)), box_(std::move(box)) {
  DSPS_CHECK(numeric_indices_.size() == box_.size());
  set_cost_per_tuple(1e-6);
}

void FilterOp::DoProcess(int /*port*/, const Tuple& tuple,
                         std::vector<Tuple>* out) {
  ExtractNumeric(tuple, numeric_indices_, &scratch_);
  if (interest::BoxContains(box_, scratch_.data())) out->push_back(tuple);
}

std::unique_ptr<Operator> FilterOp::Clone() const {
  auto copy = std::make_unique<FilterOp>(numeric_indices_, box_);
  CopyModelTo(copy.get());
  return copy;
}

// ------------------------------------------------------------ WindowJoinOp

WindowJoinOp::WindowJoinOp(double window_s, int left_key, int right_key)
    : window_s_(window_s) {
  DSPS_CHECK(window_s > 0);
  key_[0] = left_key;
  key_[1] = right_key;
  set_cost_per_tuple(5e-6);
}

void WindowJoinOp::Evict(Side* side, double watermark) {
  while (!side->arrival_order.empty() &&
         side->arrival_order.front().first < watermark) {
    auto [ts, key] = side->arrival_order.front();
    side->arrival_order.pop_front();
    auto it = side->by_key.find(key);
    if (it != side->by_key.end() && !it->second.empty()) {
      side->state_bytes -= it->second.front().SizeBytes();
      it->second.pop_front();
      if (it->second.empty()) side->by_key.erase(it);
    }
  }
}

void WindowJoinOp::DoProcess(int port, const Tuple& tuple,
                             std::vector<Tuple>* out) {
  DSPS_DCHECK(port == 0 || port == 1);
  int other = 1 - port;
  double watermark = tuple.timestamp - window_s_;
  Evict(&sides_[other], watermark);
  Evict(&sides_[port], watermark);

  int key_field = key_[port];
  int64_t key = key_field >= 0 &&
                        static_cast<size_t>(key_field) < tuple.values.size()
                    ? AsInt64(tuple.values[key_field])
                    : 0;
  auto it = sides_[other].by_key.find(key);
  if (it != sides_[other].by_key.end()) {
    for (const Tuple& match : it->second) {
      Tuple joined;
      // Keep the left input's stream id for provenance; timestamp is the
      // later of the two so downstream windows see monotone-ish time.
      joined.stream = port == 0 ? tuple.stream : match.stream;
      joined.timestamp = std::max(tuple.timestamp, match.timestamp);
      const Tuple& left = port == 0 ? tuple : match;
      const Tuple& right = port == 0 ? match : tuple;
      joined.values.reserve(left.values.size() + right.values.size());
      joined.values.insert(joined.values.end(), left.values.begin(),
                           left.values.end());
      joined.values.insert(joined.values.end(), right.values.begin(),
                           right.values.end());
      out->push_back(std::move(joined));
    }
  }
  sides_[port].by_key[key].push_back(tuple);
  sides_[port].arrival_order.emplace_back(tuple.timestamp, key);
  sides_[port].state_bytes += tuple.SizeBytes();
}

int64_t WindowJoinOp::StateBytes() const {
  return sides_[0].state_bytes + sides_[1].state_bytes;
}

std::unique_ptr<Operator> WindowJoinOp::Clone() const {
  auto copy = std::make_unique<WindowJoinOp>(window_s_, key_[0], key_[1]);
  CopyModelTo(copy.get());
  return copy;
}

// ------------------------------------------------------- WindowAggregateOp

WindowAggregateOp::WindowAggregateOp(double window_s, Func func, int key_field,
                                     int value_field)
    : window_s_(window_s),
      func_(func),
      key_field_(key_field),
      value_field_(value_field) {
  DSPS_CHECK(window_s > 0);
  set_cost_per_tuple(2e-6);
  set_estimated_selectivity(0.1);
}

void WindowAggregateOp::EmitWindow(double window_start,
                                   std::vector<Tuple>* out) {
  for (const auto& [key, g] : groups_) {
    double agg = 0.0;
    switch (func_) {
      case Func::kCount:
        agg = static_cast<double>(g.count);
        break;
      case Func::kSum:
        agg = g.sum;
        break;
      case Func::kAvg:
        agg = g.count > 0 ? g.sum / static_cast<double>(g.count) : 0.0;
        break;
      case Func::kMin:
        agg = g.min;
        break;
      case Func::kMax:
        agg = g.max;
        break;
    }
    Tuple t;
    t.stream = last_stream_;
    t.timestamp = window_start + window_s_;
    t.values = {Value{key}, Value{agg}, Value{window_start + window_s_}};
    out->push_back(std::move(t));
  }
  groups_.clear();
}

void WindowAggregateOp::DoProcess(int /*port*/, const Tuple& tuple,
                                  std::vector<Tuple>* out) {
  double window_start =
      std::floor(tuple.timestamp / window_s_) * window_s_;
  if (current_window_start_ < 0) {
    current_window_start_ = window_start;
  } else if (window_start > current_window_start_) {
    EmitWindow(current_window_start_, out);
    current_window_start_ = window_start;
  }
  last_stream_ = tuple.stream;
  int64_t key =
      key_field_ >= 0 && static_cast<size_t>(key_field_) < tuple.values.size()
          ? AsInt64(tuple.values[key_field_])
          : 0;
  double v = value_field_ >= 0 &&
                     static_cast<size_t>(value_field_) < tuple.values.size()
                 ? AsDouble(tuple.values[value_field_])
                 : 0.0;
  auto [it, inserted] = groups_.try_emplace(key);
  Group& g = it->second;
  if (inserted) {
    g.min = v;
    g.max = v;
  } else {
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  g.count += 1;
  g.sum += v;
}

int64_t WindowAggregateOp::StateBytes() const {
  return static_cast<int64_t>(groups_.size()) * 40;
}

std::unique_ptr<Operator> WindowAggregateOp::Clone() const {
  auto copy = std::make_unique<WindowAggregateOp>(window_s_, func_, key_field_,
                                                  value_field_);
  CopyModelTo(copy.get());
  return copy;
}

}  // namespace dsps::engine
