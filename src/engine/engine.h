#ifndef DSPS_ENGINE_ENGINE_H_
#define DSPS_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "engine/fragment.h"

namespace dsps::engine {

/// A fragment output tagged with the fragment that produced it (needed by
/// engines that buffer work across fragments). Ids, not a pointer: an
/// output may be delivered after its fragment is gone.
struct TaggedOutput {
  common::FragmentId fragment = -1;
  /// The producing fragment's FragmentInstance::tag.
  uint32_t tag = 0;
  FragmentInstance::Output output;
};

/// Abstract single-site stream processing engine.
///
/// The paper assumes each entity may run a different engine (STREAM,
/// TelegraphCQ, ...) and that all intra-entity techniques stay platform
/// independent. This interface is that boundary: the entity runtime and the
/// Adaptation Module only talk to engines through it. Two implementations
/// with genuinely different processing models are provided (BasicEngine,
/// BatchEngine); both must produce the same logical outputs.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Engine family name ("basic", "batch").
  virtual const char* name() const = 0;

  /// Deploys a fragment. Fails on duplicate fragment id.
  virtual common::Status Install(std::unique_ptr<FragmentInstance> fragment);

  /// Undeploys a fragment and returns it (with its state) for migration;
  /// buffered work for it is flushed into `out` first.
  virtual common::Result<std::unique_ptr<FragmentInstance>> Remove(
      common::FragmentId id, std::vector<TaggedOutput>* out);

  /// The deployed fragment, or nullptr.
  FragmentInstance* Find(common::FragmentId id);

  /// Ids of all deployed fragments.
  std::vector<common::FragmentId> fragment_ids() const;

  /// Feeds one tuple to (op, port) of `fragment`, which must be deployed
  /// here (checked against FragmentInstance::host): the caller holds the
  /// handle (the entity resolves it when a query is installed or moved),
  /// so no lookup runs. Boundary outputs may be appended to `out` now or
  /// on a later call/Flush (batching engines).
  virtual common::Status Inject(FragmentInstance& fragment,
                                common::OperatorId op, int port,
                                const Tuple& tuple,
                                std::vector<TaggedOutput>* out) = 0;

  /// The same by fragment id: resolves it, then injects. NotFound if no
  /// such fragment is deployed (e.g. it was removed while the tuple was
  /// in flight).
  common::Status Inject(common::FragmentId fragment, common::OperatorId op,
                        int port, const Tuple& tuple,
                        std::vector<TaggedOutput>* out);

  /// Completes any buffered work, appending outputs to `out`.
  virtual void Flush(std::vector<TaggedOutput>* out) = 0;

  /// CPU-seconds consumed since the last drain (simulated accounting).
  virtual double DrainCpuCost() = 0;

 protected:
  std::map<common::FragmentId, std::unique_ptr<FragmentInstance>> fragments_;
};

/// Tuple-at-a-time engine: every injected tuple runs through its fragment
/// immediately. CPU cost is the operators' modeled cost, unmodified.
class BasicEngine : public ExecutionEngine {
 public:
  const char* name() const override { return "basic"; }

  using ExecutionEngine::Inject;
  common::Status Inject(FragmentInstance& fragment, common::OperatorId op,
                        int port, const Tuple& tuple,
                        std::vector<TaggedOutput>* out) override;
  void Flush(std::vector<TaggedOutput>* out) override;
  double DrainCpuCost() override;

 private:
  double pending_cost_ = 0.0;
};

/// Micro-batching engine: buffers up to `batch_size` injected tuples and
/// runs them together, paying a fixed per-batch overhead but a discounted
/// per-tuple cost. Demonstrates a different processing model behind the
/// same interface (logical outputs are identical to BasicEngine's).
class BatchEngine : public ExecutionEngine {
 public:
  /// `cpu_discount` scales the per-tuple cost (amortization); each flush
  /// additionally costs `batch_overhead_s`.
  explicit BatchEngine(int batch_size = 32, double cpu_discount = 0.7,
                       double batch_overhead_s = 2e-6);

  const char* name() const override { return "batch"; }

  using ExecutionEngine::Inject;
  common::Status Inject(FragmentInstance& fragment, common::OperatorId op,
                        int port, const Tuple& tuple,
                        std::vector<TaggedOutput>* out) override;
  void Flush(std::vector<TaggedOutput>* out) override;
  double DrainCpuCost() override;

  common::Result<std::unique_ptr<FragmentInstance>> Remove(
      common::FragmentId id, std::vector<TaggedOutput>* out) override;

 private:
  /// Holds the fragment's handle: Remove flushes the buffer before it
  /// gives a fragment up, so no buffered entry outlives its fragment.
  struct Buffered {
    FragmentInstance* fragment;
    common::OperatorId op;
    int port;
    Tuple tuple;
  };

  void RunBatch(std::vector<TaggedOutput>* out);

  int batch_size_;
  double cpu_discount_;
  double batch_overhead_s_;
  std::vector<Buffered> buffer_;
  double pending_cost_ = 0.0;
};

}  // namespace dsps::engine

#endif  // DSPS_ENGINE_ENGINE_H_
