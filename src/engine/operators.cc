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

// ------------------------------------------------------------------- MapOp

MapOp::MapOp(std::vector<int> keep_indices, double scale)
    : keep_indices_(std::move(keep_indices)), scale_(scale) {
  set_cost_per_tuple(5e-7);
}

void MapOp::DoProcess(int /*port*/, const Tuple& tuple,
                      std::vector<Tuple>* out) {
  Tuple result;
  result.stream = tuple.stream;
  result.timestamp = tuple.timestamp;
  result.values.reserve(keep_indices_.size());
  for (int idx : keep_indices_) {
    if (idx < 0 || static_cast<size_t>(idx) >= tuple.values.size()) {
      result.values.emplace_back(int64_t{0});
      continue;
    }
    Value v = tuple.values[idx];
    if (scale_ != 1.0) {
      if (auto* d = std::get_if<double>(&v)) {
        *d *= scale_;
      } else if (auto* i = std::get_if<int64_t>(&v)) {
        *i = static_cast<int64_t>(static_cast<double>(*i) * scale_);
      }
    }
    result.values.push_back(std::move(v));
  }
  out->push_back(std::move(result));
}

std::unique_ptr<Operator> MapOp::Clone() const {
  auto copy = std::make_unique<MapOp>(keep_indices_, scale_);
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

// ------------------------------------------------- SlidingWindowAggregateOp

SlidingWindowAggregateOp::SlidingWindowAggregateOp(double window_s,
                                                   double slide_s, Func func,
                                                   int key_field,
                                                   int value_field)
    : window_s_(window_s),
      slide_s_(slide_s),
      func_(func),
      key_field_(key_field),
      value_field_(value_field) {
  DSPS_CHECK(window_s > 0);
  DSPS_CHECK(slide_s > 0);
  set_cost_per_tuple(3e-6);
  set_estimated_selectivity(0.2);
}

void SlidingWindowAggregateOp::EmitAt(double emit_time,
                                      std::vector<Tuple>* out) {
  // Evict entries older than the window ending at emit_time.
  while (!buffer_.empty() && buffer_.front().ts < emit_time - window_s_) {
    buffer_.pop_front();
  }
  std::map<int64_t, std::pair<int64_t, double>> count_sum;
  std::map<int64_t, std::pair<double, double>> min_max;
  for (const Entry& e : buffer_) {
    if (e.ts >= emit_time) continue;  // not yet part of this window
    auto [it, inserted] = count_sum.try_emplace(e.key, 0, 0.0);
    it->second.first += 1;
    it->second.second += e.value;
    auto [mit, minserted] = min_max.try_emplace(e.key, e.value, e.value);
    if (!minserted) {
      mit->second.first = std::min(mit->second.first, e.value);
      mit->second.second = std::max(mit->second.second, e.value);
    }
  }
  for (const auto& [key, cs] : count_sum) {
    double agg = 0.0;
    switch (func_) {
      case Func::kCount:
        agg = static_cast<double>(cs.first);
        break;
      case Func::kSum:
        agg = cs.second;
        break;
      case Func::kAvg:
        agg = cs.first > 0 ? cs.second / static_cast<double>(cs.first) : 0.0;
        break;
      case Func::kMin:
        agg = min_max.at(key).first;
        break;
      case Func::kMax:
        agg = min_max.at(key).second;
        break;
    }
    Tuple t;
    t.stream = last_stream_;
    t.timestamp = emit_time;
    t.values = {Value{key}, Value{agg}, Value{emit_time}};
    out->push_back(std::move(t));
  }
}

void SlidingWindowAggregateOp::DoProcess(int /*port*/, const Tuple& tuple,
                                         std::vector<Tuple>* out) {
  last_stream_ = tuple.stream;
  if (next_emit_ < 0) {
    next_emit_ =
        (std::floor(tuple.timestamp / slide_s_) + 1.0) * slide_s_;
  }
  while (tuple.timestamp >= next_emit_) {
    EmitAt(next_emit_, out);
    next_emit_ += slide_s_;
  }
  int64_t key =
      key_field_ >= 0 && static_cast<size_t>(key_field_) < tuple.values.size()
          ? AsInt64(tuple.values[key_field_])
          : 0;
  double v = value_field_ >= 0 &&
                     static_cast<size_t>(value_field_) < tuple.values.size()
                 ? AsDouble(tuple.values[value_field_])
                 : 0.0;
  buffer_.push_back(Entry{tuple.timestamp, key, v});
}

int64_t SlidingWindowAggregateOp::StateBytes() const {
  return static_cast<int64_t>(buffer_.size()) * 24;
}

std::unique_ptr<Operator> SlidingWindowAggregateOp::Clone() const {
  auto copy = std::make_unique<SlidingWindowAggregateOp>(
      window_s_, slide_s_, func_, key_field_, value_field_);
  CopyModelTo(copy.get());
  return copy;
}

// ---------------------------------------------------------------- DistinctOp

DistinctOp::DistinctOp(double window_s, int key_field)
    : window_s_(window_s), key_field_(key_field) {
  DSPS_CHECK(window_s > 0);
  set_cost_per_tuple(1e-6);
  set_estimated_selectivity(0.3);
}

void DistinctOp::DoProcess(int /*port*/, const Tuple& tuple,
                           std::vector<Tuple>* out) {
  int64_t key =
      key_field_ >= 0 && static_cast<size_t>(key_field_) < tuple.values.size()
          ? AsInt64(tuple.values[key_field_])
          : 0;
  auto it = last_seen_.find(key);
  bool fresh =
      it == last_seen_.end() || tuple.timestamp - it->second > window_s_;
  last_seen_[key] = tuple.timestamp;
  if (fresh) out->push_back(tuple);
  // Opportunistic eviction keeps the map bounded by live keys.
  if (last_seen_.size() > 4096) {
    for (auto e = last_seen_.begin(); e != last_seen_.end();) {
      if (tuple.timestamp - e->second > window_s_) {
        e = last_seen_.erase(e);
      } else {
        ++e;
      }
    }
  }
}

int64_t DistinctOp::StateBytes() const {
  return static_cast<int64_t>(last_seen_.size()) * 16;
}

std::unique_ptr<Operator> DistinctOp::Clone() const {
  auto copy = std::make_unique<DistinctOp>(window_s_, key_field_);
  CopyModelTo(copy.get());
  return copy;
}

// -------------------------------------------------------------------- TopKOp

TopKOp::TopKOp(double window_s, int k, int key_field, int value_field)
    : window_s_(window_s),
      k_(k),
      key_field_(key_field),
      value_field_(value_field) {
  DSPS_CHECK(window_s > 0);
  DSPS_CHECK(k >= 1);
  set_cost_per_tuple(2e-6);
  set_estimated_selectivity(0.05);
}

void TopKOp::EmitWindow(double window_start, std::vector<Tuple>* out) {
  std::vector<std::pair<double, int64_t>> ranked;
  ranked.reserve(sums_.size());
  for (const auto& [key, sum] : sums_) ranked.emplace_back(sum, key);
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < ranked.size() && i < static_cast<size_t>(k_); ++i) {
    Tuple t;
    t.stream = last_stream_;
    t.timestamp = window_start + window_s_;
    t.values = {Value{ranked[i].second}, Value{ranked[i].first},
                Value{window_start + window_s_}};
    out->push_back(std::move(t));
  }
  sums_.clear();
}

void TopKOp::DoProcess(int /*port*/, const Tuple& tuple,
                       std::vector<Tuple>* out) {
  double window_start = std::floor(tuple.timestamp / window_s_) * window_s_;
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
  sums_[key] += v;
}

int64_t TopKOp::StateBytes() const {
  return static_cast<int64_t>(sums_.size()) * 16;
}

std::unique_ptr<Operator> TopKOp::Clone() const {
  auto copy = std::make_unique<TopKOp>(window_s_, k_, key_field_, value_field_);
  CopyModelTo(copy.get());
  return copy;
}

// ----------------------------------------------------------------- UnionOp

UnionOp::UnionOp(int num_inputs) : num_inputs_(num_inputs) {
  DSPS_CHECK(num_inputs >= 1);
  set_cost_per_tuple(2e-7);
}

void UnionOp::DoProcess(int /*port*/, const Tuple& tuple,
                        std::vector<Tuple>* out) {
  out->push_back(tuple);
}

std::unique_ptr<Operator> UnionOp::Clone() const {
  auto copy = std::make_unique<UnionOp>(num_inputs_);
  CopyModelTo(copy.get());
  return copy;
}

// ------------------------------------------------------- PredicateFilterOp

PredicateFilterOp::PredicateFilterOp(Predicate pred, std::string label)
    : pred_(std::move(pred)), label_(std::move(label)) {
  DSPS_CHECK(pred_ != nullptr);
  set_cost_per_tuple(1e-6);
}

void PredicateFilterOp::DoProcess(int /*port*/, const Tuple& tuple,
                                  std::vector<Tuple>* out) {
  if (pred_(tuple)) out->push_back(tuple);
}

std::unique_ptr<Operator> PredicateFilterOp::Clone() const {
  auto copy = std::make_unique<PredicateFilterOp>(pred_, label_);
  CopyModelTo(copy.get());
  return copy;
}

}  // namespace dsps::engine
