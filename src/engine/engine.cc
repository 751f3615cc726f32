#include "engine/engine.h"

#include <utility>

#include "common/check.h"

namespace dsps::engine {

common::Status ExecutionEngine::Install(
    std::unique_ptr<FragmentInstance> fragment) {
  DSPS_CHECK(fragment != nullptr);
  common::FragmentId id = fragment->id();
  if (fragments_.count(id) > 0) {
    return common::Status::AlreadyExists("fragment already installed");
  }
  fragment->host_ = this;
  fragments_[id] = std::move(fragment);
  return common::Status::OK();
}

common::Result<std::unique_ptr<FragmentInstance>> ExecutionEngine::Remove(
    common::FragmentId id, std::vector<TaggedOutput>* out) {
  (void)out;
  auto it = fragments_.find(id);
  if (it == fragments_.end()) {
    return common::Status::NotFound("fragment not installed");
  }
  std::unique_ptr<FragmentInstance> frag = std::move(it->second);
  fragments_.erase(it);
  frag->host_ = nullptr;
  return frag;
}

FragmentInstance* ExecutionEngine::Find(common::FragmentId id) {
  auto it = fragments_.find(id);
  return it == fragments_.end() ? nullptr : it->second.get();
}

std::vector<common::FragmentId> ExecutionEngine::fragment_ids() const {
  std::vector<common::FragmentId> ids;
  ids.reserve(fragments_.size());
  for (const auto& [id, frag] : fragments_) ids.push_back(id);
  return ids;
}

common::Status ExecutionEngine::Inject(common::FragmentId fragment,
                                       common::OperatorId op, int port,
                                       const Tuple& tuple,
                                       std::vector<TaggedOutput>* out) {
  FragmentInstance* frag = Find(fragment);
  if (frag == nullptr) return common::Status::NotFound("fragment not found");
  return Inject(*frag, op, port, tuple, out);
}

// -------------------------------------------------------------- BasicEngine

common::Status BasicEngine::Inject(FragmentInstance& fragment,
                                   common::OperatorId op, int port,
                                   const Tuple& tuple,
                                   std::vector<TaggedOutput>* out) {
  DSPS_CHECK(fragment.host() == this);
  DSPS_RETURN_IF_ERROR(fragment.Inject(op, port, tuple, &scratch_, out));
  pending_cost_ += fragment.DrainCpuCost();
  return common::Status::OK();
}

void BasicEngine::Flush(std::vector<TaggedOutput>* /*out*/) {}

double BasicEngine::DrainCpuCost() {
  double c = pending_cost_;
  pending_cost_ = 0.0;
  return c;
}

// -------------------------------------------------------------- BatchEngine

BatchEngine::BatchEngine(int batch_size, double cpu_discount,
                         double batch_overhead_s)
    : batch_size_(batch_size),
      cpu_discount_(cpu_discount),
      batch_overhead_s_(batch_overhead_s) {
  DSPS_CHECK(batch_size >= 1);
}

common::Status BatchEngine::Inject(FragmentInstance& fragment,
                                   common::OperatorId op, int port,
                                   const Tuple& tuple,
                                   std::vector<TaggedOutput>* out) {
  DSPS_CHECK(fragment.host() == this);
  if (buffered_ == buffer_.size()) {
    buffer_.push_back(Buffered{&fragment, op, port, tuple});
  } else {
    Buffered& b = buffer_[buffered_];
    b.fragment = &fragment;
    b.op = op;
    b.port = port;
    b.tuple = tuple;
  }
  ++buffered_;
  if (static_cast<int>(buffered_) >= batch_size_) RunBatch(out);
  return common::Status::OK();
}

void BatchEngine::RunBatch(std::vector<TaggedOutput>* out) {
  if (buffered_ == 0) return;
  pending_cost_ += batch_overhead_s_;
  for (size_t i = 0; i < buffered_; ++i) {
    const Buffered& b = buffer_[i];
    FragmentInstance& frag = *b.fragment;
    common::Status s = frag.Inject(b.op, b.port, b.tuple, &scratch_, out);
    DSPS_CHECK_MSG(s.ok(), "%s", s.ToString().c_str());
    pending_cost_ += frag.DrainCpuCost() * cpu_discount_;
  }
  buffered_ = 0;
}

void BatchEngine::Flush(std::vector<TaggedOutput>* out) { RunBatch(out); }

double BatchEngine::DrainCpuCost() {
  double c = pending_cost_;
  pending_cost_ = 0.0;
  return c;
}

common::Result<std::unique_ptr<FragmentInstance>> BatchEngine::Remove(
    common::FragmentId id, std::vector<TaggedOutput>* out) {
  // Flush buffered work first so the migrated fragment carries a state that
  // reflects every tuple it was given.
  RunBatch(out);
  return ExecutionEngine::Remove(id, out);
}

}  // namespace dsps::engine
