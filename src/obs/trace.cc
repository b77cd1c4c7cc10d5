// Copyright (c) NetKernel reproduction authors.

#include "src/obs/trace.h"

#include <string>

#include "src/common/check.h"

namespace netkernel::obs {

const Histogram Tracer::kEmptyHistogram{};

const char* TraceDeltaName(TraceDelta d) {
  switch (d) {
    case TraceDelta::kRingQueueing: return "ring_queueing_ns";
    case TraceDelta::kSwitch: return "switch_ns";
    case TraceDelta::kStackService: return "stack_service_ns";
    case TraceDelta::kCompletion: return "completion_ns";
  }
  return "unknown";
}

Tracer::Tracer(const sim::EventLoop* loop) : loop_(loop) {
  NK_CHECK(loop != nullptr);
}

Cycles Tracer::OnGuestEnqueue(shm::Nqe* nqe) {
  if (sample_every_ == 0) return 0;
  if (enqueues_seen_++ % sample_every_ != 0) return 0;
  uint16_t id = next_id_;
  next_id_ = next_id_ == 65535 ? 1 : next_id_ + 1;
  Record& r = records_[id];
  if (r.active) ++samples_evicted_;
  r = Record{};
  r.active = true;
  r.vm_id = nqe->vm_id;
  r.last_stage = static_cast<int>(TraceStage::kGuestEnqueue);
  r.t[0] = loop_->Now();
  shm::SetNqeTraceId(nqe, id);
  ++samples_started_;
  return kStampCycles;
}

Tracer::Record* Tracer::Find(uint16_t id, TraceStage expected_prev) {
  // A forged id on a tracer that never sampled finds no table.
  if (id == 0 || records_.empty()) return nullptr;
  Record& r = records_[id];
  // A stale id (record evicted, or stamps arriving out of the canonical
  // order after an error path re-used the NQE) is dropped silently: tracing
  // must never make the datapath care about its own bookkeeping.
  if (!r.active || r.last_stage != static_cast<int>(expected_prev)) return nullptr;
  return &r;
}

Cycles Tracer::OnCeDequeue(const shm::Nqe& nqe, uint32_t shard) {
  uint16_t id = shm::NqeTraceId(nqe);
  Record* r = Find(id, TraceStage::kGuestEnqueue);
  if (r == nullptr) return 0;
  SimTime now = loop_->Now();
  r->t[1] = now;
  r->last_stage = static_cast<int>(TraceStage::kCeDequeue);
  uint64_t delta = static_cast<uint64_t>(now - r->t[0]);
  per_vm_[r->vm_id][static_cast<int>(TraceDelta::kRingQueueing)].Record(delta);
  per_shard_[shard][0].Record(delta);
  r->shard = shard;
  return kStampCycles;
}

Cycles Tracer::BeginDispatch(const shm::Nqe& nqe) {
  uint16_t id = shm::NqeTraceId(nqe);
  Record* r = Find(id, TraceStage::kCeDequeue);
  if (r == nullptr) return 0;
  SimTime now = loop_->Now();
  r->t[2] = now;
  r->last_stage = static_cast<int>(TraceStage::kNsmDispatch);
  uint64_t delta = static_cast<uint64_t>(now - r->t[1]);
  per_vm_[r->vm_id][static_cast<int>(TraceDelta::kSwitch)].Record(delta);
  per_shard_[r->shard][1].Record(delta);
  current_dispatch_id_ = id;
  return kStampCycles;
}

Cycles Tracer::TagCompletion(shm::Nqe* completion) {
  if (current_dispatch_id_ == 0) return 0;
  Record* r = Find(current_dispatch_id_, TraceStage::kNsmDispatch);
  if (r == nullptr) return 0;
  SimTime now = loop_->Now();
  r->t[3] = now;
  r->last_stage = static_cast<int>(TraceStage::kCompletionEnqueue);
  per_vm_[r->vm_id][static_cast<int>(TraceDelta::kStackService)].Record(
      static_cast<uint64_t>(now - r->t[2]));
  shm::SetNqeTraceId(completion, current_dispatch_id_);
  // One request traces at most one completion; later completions in the same
  // dispatch scope (e.g. batched accepts) go untraced.
  current_dispatch_id_ = 0;
  return kStampCycles;
}

Cycles Tracer::OnGuestReap(const shm::Nqe& nqe) {
  uint16_t id = shm::NqeTraceId(nqe);
  Record* r = Find(id, TraceStage::kCompletionEnqueue);
  if (r == nullptr) return 0;
  SimTime now = loop_->Now();
  r->t[4] = now;
  per_vm_[r->vm_id][static_cast<int>(TraceDelta::kCompletion)].Record(
      static_cast<uint64_t>(now - r->t[3]));
  r->active = false;
  ++samples_completed_;
  return kStampCycles;
}

const Histogram& Tracer::VmDelta(uint8_t vm_id, TraceDelta d) const {
  auto it = per_vm_.find(vm_id);
  if (it == per_vm_.end()) return kEmptyHistogram;
  return it->second[static_cast<int>(d)];
}

const Histogram& Tracer::ShardDelta(uint32_t shard, TraceDelta d) const {
  int idx = d == TraceDelta::kRingQueueing ? 0 : d == TraceDelta::kSwitch ? 1 : -1;
  if (idx < 0) return kEmptyHistogram;
  auto it = per_shard_.find(shard);
  if (it == per_shard_.end()) return kEmptyHistogram;
  return it->second[idx];
}

std::vector<uint8_t> Tracer::TracedVms() const {
  std::vector<uint8_t> out;
  out.reserve(per_vm_.size());
  for (const auto& [vm, hists] : per_vm_) out.push_back(vm);
  return out;
}

std::vector<uint32_t> Tracer::TracedShards() const {
  std::vector<uint32_t> out;
  out.reserve(per_shard_.size());
  for (const auto& [shard, hists] : per_shard_) out.push_back(shard);
  return out;
}

void Tracer::RegisterInto(MetricsRegistry* registry) const {
  registry->RegisterCounter("trace.samples_started",
                            [this] { return static_cast<double>(samples_started_); },
                            "NQEs stamped at guest-enqueue");
  registry->RegisterCounter("trace.samples_completed",
                            [this] { return static_cast<double>(samples_completed_); },
                            "traces that reached guest-reap");
  registry->RegisterCounter("trace.samples_evicted",
                            [this] { return static_cast<double>(samples_evicted_); },
                            "trace records overwritten by id reuse");
  for (const auto& [vm, hists] : per_vm_) {
    for (int d = 0; d < kNumTraceDeltas; ++d) {
      std::string name = "trace.vm" + std::to_string(vm) + "." +
                         TraceDeltaName(static_cast<TraceDelta>(d));
      registry->RegisterHistogram(name, &hists[d], "per-stage NQE latency");
    }
  }
  for (const auto& [shard, hists] : per_shard_) {
    registry->RegisterHistogram(
        "trace.shard" + std::to_string(shard) + ".ring_queueing_ns", &hists[0],
        "per-stage NQE latency");
    registry->RegisterHistogram("trace.shard" + std::to_string(shard) + ".switch_ns",
                                &hists[1], "per-stage NQE latency");
  }
}

}  // namespace netkernel::obs
