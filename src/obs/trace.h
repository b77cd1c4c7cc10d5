// Copyright (c) NetKernel reproduction authors.
// nkobs part 2: sampled NQE lifecycle tracing.
//
// One in every `sample_every` guest-enqueued NQEs gets a 16-bit trace id
// stamped into its spare reserved bytes (shm::NqeTraceId). The id indexes a
// side table of virtual-time timestamps taken at five points on the datapath:
//
//   T0 guest-enqueue   (GuestLib rings the NQE into a send/job queue)
//   T1 CE-dequeue      (a CoreEngine shard pulls it off the VM ring)
//   T2 NSM-dispatch    (ServiceLib hands it to the stack)
//   T3 completion-enq  (ServiceLib rings the completion back toward the VM)
//   T4 guest-reap      (GuestLib consumes the completion)
//
// Consecutive stamps feed four per-stage latency histograms — ring queueing
// delay (T1-T0), switch latency (T2-T1), stack service time (T3-T2) and
// completion delay (T4-T3) — kept per VM and, for the switch-side stages, per
// shard. This is the Table 5 / §7.7 latency decomposition the paper gestures
// at but per-component counters cannot measure.
//
// Tracing off (sample_every == 0) costs one predictable branch per enqueue;
// untraced NQEs carry id 0 and every later hook returns on the first compare.
// Each stamp on a traced NQE additionally charges kStampCycles of modeled CPU
// to whoever took it, so bench_obs_overhead measures a real (simulated)
// perturbation rather than a tautological zero.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/shm/nqe.h"
#include "src/sim/event_loop.h"

namespace netkernel::obs {

enum class TraceStage : uint8_t {
  kGuestEnqueue = 0,
  kCeDequeue = 1,
  kNsmDispatch = 2,
  kCompletionEnqueue = 3,
  kGuestReap = 4,
};
inline constexpr int kNumTraceStages = 5;

// The four per-stage deltas between consecutive stamps.
enum class TraceDelta : uint8_t {
  // T0 -> T1: time on the VM ring before the switch polled it, including
  // the wait for a busy switch core to finish its current round.
  kRingQueueing = 0,
  // T1 -> T2: the polling round's own switching cost, then NSM ring
  // residency and wakeup. A shard charges one round at a time, so the wait
  // for a busy switch core falls in T0 -> T1, not here.
  kSwitch = 1,
  kStackService = 2,  // T2 -> T3: stack processing until the completion ringed
  kCompletion = 3,    // T3 -> T4: completion ring residency until guest reap
};
inline constexpr int kNumTraceDeltas = 4;

const char* TraceDeltaName(TraceDelta d);

class Tracer {
 public:
  // Modeled cost of taking one stamp on a traced NQE (a clock read plus a
  // table write), charged to the stamping component's core accounting.
  static constexpr Cycles kStampCycles = 24;

  explicit Tracer(const sim::EventLoop* loop);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // 0 disables tracing entirely; N samples one in every N guest enqueues.
  // The record table is allocated on the first nonzero N, so a host that
  // never samples never pays for it.
  void set_sample_every(uint32_t n) {
    if (n != 0 && records_.empty()) records_.resize(kNumIds);
    sample_every_ = n;
  }
  uint32_t sample_every() const { return sample_every_; }
  bool enabled() const { return sample_every_ != 0; }

  // T0. Maybe assigns a trace id to `nqe` and stamps guest-enqueue.
  // Returns the modeled stamp cost in cycles (0 when the NQE is not sampled).
  Cycles OnGuestEnqueue(shm::Nqe* nqe);

  // T1. The owning CoreEngine shard dequeued a (traced) NQE from a VM ring.
  Cycles OnCeDequeue(const shm::Nqe& nqe, uint32_t shard);

  // T2. ServiceLib is dispatching the NQE into the stack. Opens a dispatch
  // scope: completions enqueued synchronously before EndDispatch() inherit
  // this NQE's trace id.
  Cycles BeginDispatch(const shm::Nqe& nqe);
  void EndDispatch() { current_dispatch_id_ = 0; }

  // T3. A completion NQE is being ringed toward the VM from inside a dispatch
  // scope: tags it with the in-flight trace id and stamps completion-enqueue.
  Cycles TagCompletion(shm::Nqe* completion);

  // T4. GuestLib reaped a completion; records the final delta and retires the
  // trace record.
  Cycles OnGuestReap(const shm::Nqe& nqe);

  // Per-VM and per-shard stage histograms (nanoseconds). Shard histograms are
  // populated for the switch-side deltas (ring queueing, switch latency).
  const Histogram& VmDelta(uint8_t vm_id, TraceDelta d) const;
  const Histogram& ShardDelta(uint32_t shard, TraceDelta d) const;
  std::vector<uint8_t> TracedVms() const;
  std::vector<uint32_t> TracedShards() const;

  uint64_t samples_started() const { return samples_started_; }
  uint64_t samples_completed() const { return samples_completed_; }
  // Records overwritten by id reuse before reaching guest-reap (uncompleted
  // async ops, drops): the table is bounded, reuse is the eviction policy.
  uint64_t samples_evicted() const { return samples_evicted_; }

  // Registers trace.* counters and per-VM/per-shard stage histograms.
  void RegisterInto(MetricsRegistry* registry) const;

 private:
  struct Record {
    bool active = false;
    uint8_t vm_id = 0;
    int last_stage = -1;
    uint32_t shard = 0;  // set at T1 so the T2 delta lands on the same shard
    SimTime t[kNumTraceStages] = {};
  };

  static constexpr size_t kNumIds = 65536;  // every 16-bit trace id
  static const Histogram kEmptyHistogram;

  Record* Find(uint16_t id, TraceStage expected_prev);

  const sim::EventLoop* loop_;
  uint32_t sample_every_ = 0;
  uint64_t enqueues_seen_ = 0;
  uint16_t next_id_ = 1;  // 0 means untraced; ids wrap 1..65535
  uint64_t samples_started_ = 0;
  uint64_t samples_completed_ = 0;
  uint64_t samples_evicted_ = 0;
  uint16_t current_dispatch_id_ = 0;
  std::vector<Record> records_;  // indexed by trace id; empty until enabled
  std::map<uint8_t, std::array<Histogram, kNumTraceDeltas>> per_vm_;
  std::map<uint32_t, std::array<Histogram, 2>> per_shard_;  // queueing, switch
};

}  // namespace netkernel::obs

#endif  // SRC_OBS_TRACE_H_
