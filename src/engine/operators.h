#ifndef DSPS_ENGINE_OPERATORS_H_
#define DSPS_ENGINE_OPERATORS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "engine/tuple.h"
#include "interest/interval.h"

namespace dsps::engine {

/// Base class for continuous-query operators.
///
/// Operators are push-based: Process() consumes one input tuple on a given
/// input port and appends any output tuples to `out`. Each operator carries
/// a cost model (CPU seconds per input tuple, expected selectivity) used by
/// the placement and ordering optimizers, and tracks observed input/output
/// counts so adaptive components can refresh their estimates.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Number of input ports (1 for unary operators, 2 for joins, ...).
  virtual int num_inputs() const { return 1; }

  /// Consumes `tuple` arriving on `port` and appends outputs to `out`.
  /// Updates observed statistics.
  void Process(int port, const Tuple& tuple, std::vector<Tuple>* out);

  /// Estimated CPU seconds to process one input tuple.
  double cost_per_tuple() const { return cost_per_tuple_; }
  void set_cost_per_tuple(double c) { cost_per_tuple_ = c; }

  /// Estimated output/input tuple ratio (the optimizer's prior).
  double estimated_selectivity() const { return estimated_selectivity_; }
  void set_estimated_selectivity(double s) { estimated_selectivity_ = s; }

  /// Observed output/input ratio; falls back to the estimate before any
  /// input has been seen.
  double observed_selectivity() const;

  int64_t in_count() const { return in_count_; }
  int64_t out_count() const { return out_count_; }

  /// Bytes of operator state (window contents); migration cost proxy.
  virtual int64_t StateBytes() const { return 0; }

  /// Operator kind, for logs ("Filter", "WindowJoin", ...).
  virtual const char* name() const = 0;

  /// Deep copy with *empty* runtime state (fresh windows), preserving the
  /// cost model. Used to instantiate plans into fragments.
  virtual std::unique_ptr<Operator> Clone() const = 0;

 protected:
  virtual void DoProcess(int port, const Tuple& tuple,
                         std::vector<Tuple>* out) = 0;

  void CopyModelTo(Operator* dst) const {
    dst->cost_per_tuple_ = cost_per_tuple_;
    dst->estimated_selectivity_ = estimated_selectivity_;
  }

 private:
  double cost_per_tuple_ = 1e-6;
  double estimated_selectivity_ = 1.0;
  int64_t in_count_ = 0;
  int64_t out_count_ = 0;
};

/// Selection by an axis-aligned box over the tuple's numeric fields —
/// declarative, so the query's interest and the dissemination tree's
/// early filters can be derived from it.
class FilterOp : public Operator {
 public:
  /// `box` has one interval per entry of `numeric_indices`; a tuple passes
  /// if every selected numeric field falls inside its interval.
  FilterOp(std::vector<int> numeric_indices, interest::Box box);

  const interest::Box& box() const { return box_; }
  const std::vector<int>& numeric_indices() const { return numeric_indices_; }

  const char* name() const override { return "Filter"; }
  std::unique_ptr<Operator> Clone() const override;

 protected:
  void DoProcess(int port, const Tuple& tuple,
                 std::vector<Tuple>* out) override;

 private:
  std::vector<int> numeric_indices_;
  interest::Box box_;
  std::vector<double> scratch_;
};

/// Sliding-window symmetric hash equi-join on an int64 key field. Output
/// tuples concatenate the left and right tuples' values; the output
/// timestamp is the newer input's.
class WindowJoinOp : public Operator {
 public:
  /// Joins input 0 (key at `left_key`) with input 1 (key at `right_key`),
  /// matching tuples whose timestamps differ by at most `window_s`.
  WindowJoinOp(double window_s, int left_key, int right_key);

  double window_s() const { return window_s_; }
  int left_key() const { return key_[0]; }
  int right_key() const { return key_[1]; }

  int num_inputs() const override { return 2; }
  int64_t StateBytes() const override;

  const char* name() const override { return "WindowJoin"; }
  std::unique_ptr<Operator> Clone() const override;

 protected:
  void DoProcess(int port, const Tuple& tuple,
                 std::vector<Tuple>* out) override;

 private:
  struct Side {
    std::map<int64_t, std::deque<Tuple>> by_key;
    std::deque<std::pair<double, int64_t>> arrival_order;  // (ts, key)
    int64_t state_bytes = 0;
  };
  void Evict(Side* side, double watermark);

  double window_s_;
  int key_[2];
  Side sides_[2];
};

/// Aggregation over tumbling windows, grouped by an int64 key field.
/// Emits one tuple (key, aggregate, window_end) per group when a window
/// closes (i.e., when a tuple at or past the window boundary arrives).
class WindowAggregateOp : public Operator {
 public:
  enum class Func { kCount, kSum, kAvg, kMin, kMax };

  /// Aggregates `value_field` with `func` over windows of `window_s`
  /// seconds, grouped by `key_field` (-1 for a single global group).
  WindowAggregateOp(double window_s, Func func, int key_field, int value_field);

  double window_s() const { return window_s_; }
  Func func() const { return func_; }
  int key_field() const { return key_field_; }
  int value_field() const { return value_field_; }

  int64_t StateBytes() const override;

  const char* name() const override { return "WindowAggregate"; }
  std::unique_ptr<Operator> Clone() const override;

 protected:
  void DoProcess(int port, const Tuple& tuple,
                 std::vector<Tuple>* out) override;

 private:
  struct Group {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  void EmitWindow(double window_start, std::vector<Tuple>* out);

  double window_s_;
  Func func_;
  int key_field_;
  int value_field_;
  double current_window_start_ = -1.0;
  common::StreamId last_stream_ = common::kInvalidStream;
  std::map<int64_t, Group> groups_;
};

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_OPERATORS_H_
