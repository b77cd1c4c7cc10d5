// Copyright (c) NetKernel reproduction authors.
// nkguard: adversarial-guest NQE validation at the ring-consume boundary.
//
// Threat model (ROADMAP item 7): the CoreEngine and NSMs are shared
// infrastructure consuming shared-memory rings that untrusted tenant VMs
// write. Nothing stops a buggy or hostile guest from enqueuing an NQE with a
// bogus op byte, a chunk offset outside its pool (or inside it but free, or
// already submitted once), a forged vm_id/queue_set naming a co-tenant, or a
// datagram credit return for bytes it was never delivered. Before nkguard,
// each of those was "whatever the first switch statement happens to do".
//
// NqeValidator is the single audited choke point for that boundary. It is
// invoked by CoreEngineShard at ring-consume time (PollVm, before routing).
// Its admission tables read the op contract table (shm::kOpTraits in
// src/shm/nqe.h), so they cannot drift from it. ServiceLib, the
// NSM-side driver of every NSM kind, additionally applies the
// IsGuestToNsmOp() prefilter on its consume path as defense in depth.
//
// Checks, in order, per inbound guest NQE:
//   identity   vm_id/queue_set must match the device+ring the NQE was
//              consumed from. A forged identity is corrected in place before
//              any completion is synthesized, so the reject lands on the
//              real offender — this is also what makes connection and dgram
//              socket ids unforgeable: CoreEngine keys every table by
//              (vm_id, vm_sock), and vm_id is pinned here.
//   op         the op byte must be admitted by that ring's table (send ring:
//              the four send-family ops; job ring: the control/dgram ops).
//   chunk      for carries-chunk ops with a registered pool: data_ptr must
//              be a currently-allocated chunk and size within its capacity.
//   replay     the chunk's allocation generation (HugepagePool::Generation)
//              must not have been consumed by a previously accepted NQE —
//              resubmitting the same incarnation is a credit replay.
//   credit     kRecvFrom may not return more datagram receive credit than
//              the engine has actually delivered to that VM.
//
// Policy on violation (GuardPolicy): kCount rejects and synthesizes the
// usual reclaim/error completion; kDrop rejects silently; kQuarantine
// additionally trips a per-VM quarantine once the violation count crosses
// the threshold — the engine stops consuming the offender's rings and the
// host tears its NSM-side state down without disturbing co-tenants.

#ifndef SRC_GUARD_NQE_VALIDATOR_H_
#define SRC_GUARD_NQE_VALIDATOR_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "src/common/counters.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nqe.h"

namespace netkernel::guard {

// What to do beyond rejecting when a guest NQE fails validation.
enum class GuardPolicy : uint8_t {
  kCount = 0,       // reject + synthesize reclaim/error completion + count
  kDrop = 1,        // reject silently (no completion back to the guest)
  kQuarantine = 2,  // reject + count; trip per-VM quarantine at threshold
};

enum class Verdict : uint8_t {
  kOk = 0,
  kBadOp = 1,         // op byte not admitted by this ring/direction
  kBadIdentity = 2,   // forged vm_id / queue_set
  kBadChunk = 3,      // data_ptr not an allocated chunk, or size too large
  kReplayedChunk = 4, // chunk incarnation already consumed by an accepted NQE
  kBadCredit = 5,     // dgram credit return exceeds delivered bytes
};

struct GuardConfig {
  bool enabled = true;
  GuardPolicy policy = GuardPolicy::kCount;
  // kQuarantine only: violations before the VM is quarantined.
  uint32_t quarantine_threshold = 16;
};

// Aggregate guard counters, exported as guard.<name>.
struct GuardStats {
  uint64_t validated = 0;          // guest NQEs that passed every check
  uint64_t rejects = 0;            // guest NQEs refused (sum of the verdicts)
  uint64_t bad_op = 0;
  uint64_t bad_identity = 0;
  uint64_t bad_chunk = 0;
  uint64_t replayed_chunk = 0;
  uint64_t credit_violations = 0;
  uint64_t flags_scrubbed = 0;     // NQEs with guest-written flag bytes zeroed
  uint64_t nsm_bad_op = 0;         // NSM-ring NQEs with a non-nsm->guest op
  uint64_t quarantines = 0;        // quarantine trips (operator or threshold)
  uint64_t quarantine_drops = 0;   // NQEs drained from quarantined VMs' rings
};

inline constexpr CounterRow<GuardStats> kGuardCounters[] = {
    {"validated", &GuardStats::validated, "guest NQEs admitted at the ring boundary"},
    {"rejects", &GuardStats::rejects, "guest NQEs refused at the ring boundary"},
    {"bad_op", &GuardStats::bad_op, "ops not admissible for their ring/direction"},
    {"bad_identity", &GuardStats::bad_identity,
     "NQEs with a forged vm_id/queue_set (corrected in place)"},
    {"bad_chunk", &GuardStats::bad_chunk,
     "chunk references outside the owning pool or unallocated"},
    {"replayed_chunk", &GuardStats::replayed_chunk,
     "resubmissions of an already-consumed chunk incarnation"},
    {"credit_violations", &GuardStats::credit_violations,
     "datagram receive credits claimed beyond what was delivered"},
    {"flags_scrubbed", &GuardStats::flags_scrubbed,
     "guest NQEs whose reserved flag bytes were zeroed at consume"},
    {"nsm_bad_op", &GuardStats::nsm_bad_op,
     "NSM-emitted NQEs with ops outside the nsm->guest contract"},
    {"quarantines", &GuardStats::quarantines, "VMs tripped into quarantine by repeat violations"},
    {"quarantine_drops", &GuardStats::quarantine_drops, "NQEs drained from quarantined VMs' rings"},
};
static_assert(CoversEveryField(kGuardCounters),
              "kGuardCounters must name every GuardStats field exactly once");

// Per-VM counter slice (field names deliberately mirror GuardStats), exported
// as guard.vm<id>.<name>.
struct GuardVmStats {
  uint64_t rejects = 0;
  uint64_t bad_op = 0;
  uint64_t bad_identity = 0;
  uint64_t bad_chunk = 0;
  uint64_t replayed_chunk = 0;
  uint64_t credit_violations = 0;
};

inline constexpr CounterRow<GuardVmStats> kGuardVmCounters[] = {
    {"rejects", &GuardVmStats::rejects},
    {"bad_op", &GuardVmStats::bad_op},
    {"bad_identity", &GuardVmStats::bad_identity},
    {"bad_chunk", &GuardVmStats::bad_chunk},
    {"replayed_chunk", &GuardVmStats::replayed_chunk},
    {"credit_violations", &GuardVmStats::credit_violations},
};
static_assert(CoversEveryField(kGuardVmCounters),
              "kGuardVmCounters must name every GuardVmStats field exactly once");

// ---- Admission tables -------------------------------------------------
// Reads of shm::kOpTraits. A byte with no row (kInvalid, retired wire
// numbers, holes) is admitted nowhere.

// Ops a guest may legitimately place on its send ring.
bool IsSendRingOp(shm::NqeOp op);
// Ops a guest may legitimately place on its job ring.
bool IsJobRingOp(shm::NqeOp op);
// Union of the two: any op a guest->nsm consume path may dispatch.
bool IsGuestToNsmOp(shm::NqeOp op);
// Ops an NSM may legitimately send toward a guest (completion/receive ring).
bool IsNsmToGuestOp(shm::NqeOp op);
// carries-chunk guest->nsm ops (chunk ownership crosses with the NQE).
bool CarriesGuestChunk(shm::NqeOp op);

class NqeValidator {
 public:
  explicit NqeValidator(const GuardConfig& config = {});

  bool enabled() const { return config_.enabled; }
  const GuardConfig& config() const { return config_; }
  void set_policy(GuardPolicy policy) { config_.policy = policy; }
  void set_quarantine_threshold(uint32_t n) { config_.quarantine_threshold = n; }

  // Associates a VM with its hugepage pool so chunk/replay checks can run.
  // VMs without a registered pool (raw-device tests, bench harnesses) skip
  // the chunk checks — there is no pool to validate against.
  void RegisterVmPool(uint8_t vm_id, const shm::HugepagePool* pool);

  // Zeroes the guest-writable flag bytes of an inbound NQE: reserved[0]
  // (orig-op echo) and reserved[2] (NSM processing queue set) are
  // infrastructure-owned on completions and must never be guest-seeded;
  // reserved[1] is zeroed except for kListen, whose reuseport flag is the
  // one legitimate guest use. The trace id (reserved[3..4]) is preserved.
  // Returns true when any byte was scrubbed (counted once in stats).
  bool ScrubGuestFlags(shm::Nqe* nqe);

  // Full admission check for an NQE consumed from `from_send_ring` of the
  // device registered under `dev_vm_id`, queue set `qset`. On a forged
  // identity the NQE's vm_id/queue_set are corrected in place (so any
  // synthesized completion targets the actual offender's rings). Pure with
  // respect to the ledgers: an accepted NQE may stay ring-resident across a
  // throttle/backpressure round and be re-validated — only CommitGuestNqe
  // (called when the NQE actually dequeues) spends state.
  Verdict ValidateGuestNqe(shm::Nqe* nqe, bool from_send_ring,
                           uint8_t dev_vm_id, uint8_t qset);

  // Ledger commit for an accepted, actually-dequeued guest NQE: records the
  // chunk incarnation as consumed (replay detection) and deducts returned
  // datagram credit.
  void CommitGuestNqe(uint8_t vm_id, const shm::Nqe& nqe);

  // NSM->guest direction check for NQEs consumed from NSM device rings.
  bool ValidateNsmNqe(const shm::Nqe& nqe);

  // Ledger feed: the engine accepted a datagram delivery of `bytes` toward
  // `vm_id`; that much receive credit may later come back via kRecvFrom.
  void OnDgramDelivered(uint8_t vm_id, uint64_t bytes);

  // True when the rejected NQE's chunk is still legitimately the guest's to
  // reclaim: allocated, inside the pool, and not an incarnation a previously
  // accepted NQE already consumed. Gates kNqeFlagChunkUnconsumed on
  // synthesized error completions — flagging a bogus or replayed offset
  // would make the guest double-free it.
  bool ChunkReclaimable(uint8_t vm_id, const shm::Nqe& nqe) const;

  // Counts a violation against `vm_id`. Returns true exactly when this
  // violation trips quarantine (policy kQuarantine, threshold reached, VM
  // not already quarantined) — the caller owns the deregistration side.
  bool RecordViolation(uint8_t vm_id, Verdict v);

  // kDrop rejects silently; the other policies answer the guest.
  bool ShouldSynthesizeError() const {
    return config_.policy != GuardPolicy::kDrop;
  }

  // Quarantine flag. Setting it true counts a quarantine trip; clearing it
  // resets the VM's violation count so re-quarantine needs fresh evidence.
  void SetQuarantined(uint8_t vm_id, bool quarantined);
  bool IsQuarantined(uint8_t vm_id) const;
  void CountQuarantineDrop() { ++stats_.quarantine_drops; }

  const GuardStats& stats() const { return stats_; }
  GuardVmStats VmStats(uint8_t vm_id) const;

 private:
  struct VmState {
    const shm::HugepagePool* pool = nullptr;
    // offset -> allocation generation consumed by an accepted NQE. A stale
    // entry (generation no longer current) is a past incarnation and does
    // not block reuse after free+realloc.
    std::unordered_map<uint64_t, uint16_t> chunk_gen_seen;
    uint64_t dgram_outstanding = 0;  // delivered dgram bytes not yet credited
    uint32_t violations = 0;
    bool quarantined = false;
    GuardVmStats stats;
  };

  Verdict CheckChunk(const VmState& st, const shm::Nqe& nqe) const;

  GuardConfig config_;
  GuardStats stats_;
  // By 8-bit VM id. A VM never registered reads as a default VmState: no
  // pool, not quarantined, zero stats.
  std::array<VmState, 256> vms_;
};

}  // namespace netkernel::guard

#endif  // SRC_GUARD_NQE_VALIDATOR_H_
