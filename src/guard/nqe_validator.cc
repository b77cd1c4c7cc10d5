// Copyright (c) NetKernel reproduction authors.

#include "src/guard/nqe_validator.h"

namespace netkernel::guard {

using shm::Nqe;
using shm::NqeOp;

// ---- Admission tables: reads of shm::kOpTraits ---------------------------
// FindOpTraits has no row for kInvalid or any non-op byte, so a hostile byte
// is admitted nowhere.

bool IsSendRingOp(NqeOp op) { return shm::OpRides(op, shm::RingKind::kSend); }

bool IsJobRingOp(NqeOp op) { return shm::OpRides(op, shm::RingKind::kJob); }

bool IsGuestToNsmOp(NqeOp op) { return IsSendRingOp(op) || IsJobRingOp(op); }

bool IsNsmToGuestOp(NqeOp op) {
  const shm::OpTraits* t = shm::FindOpTraits(op);
  return t != nullptr && !t->ToNsm();
}

bool CarriesGuestChunk(NqeOp op) {
  const shm::OpTraits* t = shm::FindOpTraits(op);
  return t != nullptr && t->ToNsm() && t->carries_chunk;
}

// ------------------------------------------------------------------------

NqeValidator::NqeValidator(const GuardConfig& config) : config_(config) {}

void NqeValidator::RegisterVmPool(uint8_t vm_id, const shm::HugepagePool* pool) {
  vms_[vm_id].pool = pool;
}

bool NqeValidator::ScrubGuestFlags(Nqe* nqe) {
  bool keep_r1 = nqe->Op() == NqeOp::kListen;  // reuseport flag is guest-legit
  bool scrubbed = nqe->reserved[0] != 0 || nqe->reserved[2] != 0 ||
                  (!keep_r1 && nqe->reserved[1] != 0);
  nqe->reserved[0] = 0;
  if (!keep_r1) nqe->reserved[1] = 0;
  nqe->reserved[2] = 0;
  if (scrubbed) ++stats_.flags_scrubbed;
  return scrubbed;
}

Verdict NqeValidator::CheckChunk(const VmState& st, const Nqe& nqe) const {
  if (st.pool == nullptr) return Verdict::kOk;  // no pool: nothing to check
  const shm::HugepagePool* pool = st.pool;
  if (!pool->IsAllocated(nqe.data_ptr)) return Verdict::kBadChunk;
  if (nqe.size > pool->ChunkCapacity(nqe.data_ptr)) return Verdict::kBadChunk;
  auto it = st.chunk_gen_seen.find(nqe.data_ptr);
  if (it != st.chunk_gen_seen.end() &&
      it->second == pool->Generation(nqe.data_ptr)) {
    return Verdict::kReplayedChunk;  // this incarnation was already submitted
  }
  return Verdict::kOk;
}

Verdict NqeValidator::ValidateGuestNqe(Nqe* nqe, bool from_send_ring,
                                       uint8_t dev_vm_id, uint8_t qset) {
  // Identity first: vm_id/queue_set are pinned to the device+ring the NQE
  // was physically consumed from. Correct a forgery in place so everything
  // downstream (completions, counters, quarantine) targets the offender.
  if (nqe->vm_id != dev_vm_id || nqe->queue_set != qset) {
    nqe->vm_id = dev_vm_id;
    nqe->queue_set = qset;
    return Verdict::kBadIdentity;
  }
  NqeOp op = nqe->Op();
  if (from_send_ring ? !IsSendRingOp(op) : !IsJobRingOp(op)) {
    return Verdict::kBadOp;
  }
  const VmState& st = vms_[dev_vm_id];
  if (CarriesGuestChunk(op)) {
    Verdict v = CheckChunk(st, *nqe);
    if (v != Verdict::kOk) return v;
  }
  if (op == NqeOp::kRecvFrom && st.pool != nullptr) {
    // Datagram receive-credit return: op_data bytes are handed back to the
    // NSM. Refuse credit for bytes that were never delivered. (Pool-less
    // raw-device harnesses have no delivery ledger — skip, like chunks.)
    if (nqe->op_data > st.dgram_outstanding) return Verdict::kBadCredit;
  }
  return Verdict::kOk;
}

void NqeValidator::CommitGuestNqe(uint8_t vm_id, const Nqe& nqe) {
  // Ledger updates live here, NOT in ValidateGuestNqe: an accepted NQE may
  // legitimately stay in its ring (token-bucket throttle, backpressure) and
  // be re-validated on a later polling round. Only the actual dequeue spends
  // the chunk incarnation and the datagram credit.
  ++stats_.validated;
  VmState& st = vms_[vm_id];
  if (st.pool == nullptr) return;
  NqeOp op = nqe.Op();
  if (CarriesGuestChunk(op)) {
    st.chunk_gen_seen[nqe.data_ptr] = st.pool->Generation(nqe.data_ptr);
  }
  if (op == NqeOp::kRecvFrom) {
    st.dgram_outstanding =
        st.dgram_outstanding > nqe.op_data ? st.dgram_outstanding - nqe.op_data : 0;
  }
}

bool NqeValidator::ValidateNsmNqe(const Nqe& nqe) {
  if (IsNsmToGuestOp(nqe.Op())) return true;
  ++stats_.nsm_bad_op;
  return false;
}

void NqeValidator::OnDgramDelivered(uint8_t vm_id, uint64_t bytes) {
  VmState& st = vms_[vm_id];
  if (st.pool != nullptr) st.dgram_outstanding += bytes;
}

bool NqeValidator::ChunkReclaimable(uint8_t vm_id, const Nqe& nqe) const {
  if (!CarriesGuestChunk(nqe.Op())) return false;
  const VmState& st = vms_[vm_id];
  if (st.pool == nullptr) return false;
  if (!st.pool->IsAllocated(nqe.data_ptr)) return false;
  auto git = st.chunk_gen_seen.find(nqe.data_ptr);
  if (git != st.chunk_gen_seen.end() &&
      git->second == st.pool->Generation(nqe.data_ptr)) {
    return false;  // consumed by an accepted submission — not the guest's
  }
  return true;
}

bool NqeValidator::RecordViolation(uint8_t vm_id, Verdict v) {
  VmState& st = vms_[vm_id];
  ++stats_.rejects;
  ++st.stats.rejects;
  switch (v) {
    case Verdict::kBadOp: ++stats_.bad_op; ++st.stats.bad_op; break;
    case Verdict::kBadIdentity: ++stats_.bad_identity; ++st.stats.bad_identity; break;
    case Verdict::kBadChunk: ++stats_.bad_chunk; ++st.stats.bad_chunk; break;
    case Verdict::kReplayedChunk: ++stats_.replayed_chunk; ++st.stats.replayed_chunk; break;
    case Verdict::kBadCredit: ++stats_.credit_violations; ++st.stats.credit_violations; break;
    case Verdict::kOk: break;
  }
  ++st.violations;
  if (config_.policy == GuardPolicy::kQuarantine && !st.quarantined &&
      st.violations >= config_.quarantine_threshold) {
    SetQuarantined(vm_id, true);
    return true;
  }
  return false;
}

void NqeValidator::SetQuarantined(uint8_t vm_id, bool quarantined) {
  VmState& st = vms_[vm_id];
  if (quarantined && !st.quarantined) ++stats_.quarantines;
  if (!quarantined) st.violations = 0;
  st.quarantined = quarantined;
}

bool NqeValidator::IsQuarantined(uint8_t vm_id) const { return vms_[vm_id].quarantined; }

GuardVmStats NqeValidator::VmStats(uint8_t vm_id) const { return vms_[vm_id].stats; }

}  // namespace netkernel::guard
