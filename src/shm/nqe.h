// Copyright (c) NetKernel reproduction authors.
// NetKernel Queue Element (NQE): the fixed 32-byte intermediate representation
// of socket semantics exchanged between GuestLib and ServiceLib (paper §4.2,
// Figure 3).
//
// Byte budget (32 bytes total, Figure 3):
//   8 B op_data | 8 B data pointer | 4 B VM socket ID | 4 B size |
//   1 B op type | 1 B VM ID | 1 B queue set ID | 5 B reserved
//
// `vm_sock` is the handle of the sock structure in the user VM (the paper
// stores a pointer; we store a 32-bit handle). `op_data` carries per-op
// payload such as the ip:port for bind/connect, result codes, or the NSM-side
// connection ID. `data_ptr` is an offset into the shared hugepage region and
// `size` the length of the data it points at.
//
// ---- The op contract: kOpTraits (this header is the source of truth) ----
// Every NqeOp has exactly one row in kOpTraits saying which ring admits it
// (and so which way it travels), whether a hugepage chunk crosses with it,
// which completion answers the request when it dies before any transport
// consumed it, and which kind of socket it acts on. The guard's admission
// tables, the error-completion builder, the receive-ring choice, the chunk
// sweeps, CoreEngine's socket table, ServiceLib's kind check and NqeOpName
// all read this table; the static_asserts below check its internal
// consistency at compile time. Each receiving side dispatches through one
// switch that names every NqeOp and has no `default:` (ServiceLib::Dispatch,
// GuestLib::ApplyInbound), so under -Werror=switch a row added without its
// case does not compile.

#ifndef SRC_SHM_NQE_H_
#define SRC_SHM_NQE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>

namespace netkernel::shm {

// Which of a queue set's four rings an NQE travels on. The job and send
// rings carry guest->NSM requests; the completion and receive rings carry
// NSM->guest results and events. CoreEngine's delivery plan records the ring
// explicitly so parked (backpressured) deliveries retry into exactly the
// ring they were headed for.
enum class RingKind : uint8_t { kJob, kCompletion, kSend, kReceive };

enum class NqeOp : uint8_t {
  kInvalid = 0,
  // VM -> NSM socket operations (wire numbers 1-31).
  kSocket = 1,
  kBind = 2,
  kListen = 3,
  kConnect = 4,
  kAccept = 5,  // pipelined: NSM replies as connections arrive
  // 6-9 are retired (setsockopt/getsockopt/ioctl/shutdown were never
  // emitted); the guard refuses those bytes like any other hole.
  kClose = 10,  // fire-and-forget: no guest thread waits on a close
  kSend = 11,   // data_ptr/size reference hugepage payload
  // Datagram (SOCK_DGRAM) operations: connectionless, so their socket-table
  // entry needs no completion handshake.
  kSocketUdp = 12,  // create a UDP socket in the NSM
  kBindUdp = 13,    // bind ip:port carried in op_data
  kSendTo = 14,     // op_data = packed destination, payload in hugepages
  kRecvFrom = 15,   // datagram receive credit return (op_data = bytes freed)
  // Zero-copy send (registered-buffer datapath): the guest filled the chunk
  // in place and transfers ownership. The NSM's stack transmits (and
  // retransmits) directly from the chunk and frees it into the shared pool
  // only once the byte range is ACKed, answering with kSendZcComplete.
  kSendZc = 16,
  // Zero-copy datagram send: like kSendTo (op_data = packed destination) but
  // the guest filled the chunk in place and transfers ownership; the NSM's
  // UDP stack builds the wire datagram straight from the chunk and frees it
  // once the skb is committed, answering with kSendToResult (orig kSendToZc).
  kSendToZc = 17,
  // NSM -> VM results and events (wire numbers 32-63).
  kOpResult = 32,       // result of a control op
  kConnectResult = 33,
  kAcceptedConn = 34,   // new connection, op_data = NSM conn id
  kSendResult = 35,     // buffer usage can be decreased
  kRecvData = 36,       // data_ptr/size reference received payload
  kFinReceived = 37,    // peer closed
  kSendToResult = 38,   // datagram sent, send credit returned
  kDgramRecv = 39,      // datagram payload; op_data = packed source
  // Zero-copy send completion: the kSendZc byte range was ACKed (or failed).
  // op_data = send-credit bytes to return; size = status (0 or negative
  // errno). The chunk was freed into the shared pool by the NSM — unless
  // reserved[1] carries kNqeFlagChunkUnconsumed (a CoreEngine-synthesized
  // error), in which case the guest still owns it and must free it.
  kSendZcComplete = 40,
  // Zero-copy datagram receive: identical shape to kDgramRecv (op_data =
  // packed source, data_ptr/size = payload chunk) but the chunk was detached
  // from the UDP stack's receive queue — it never crossed a rcvbuf->hugepage
  // copy. Guests treat both alike; the distinct op keeps the fallback copy
  // path observable end to end.
  kDgramRecvZc = 41,
  // Failover notification: the VM's NSM died (or was drained for a rolling
  // upgrade) and the VM was re-homed onto the standby NSM. vm_sock is 0 — the
  // event is per-VM, not per-socket. op_data carries the new NSM id. GuestLib
  // reacts by re-issuing socket/bind for every datagram socket so the standby
  // NSM rebuilds their state under the same guest handles; stream sockets were
  // already errored with FINs by the switch (see `reconnects_required`).
  kNsmRehomed = 42,
  // 64-66 once reserved the paper's control-plane verbs (§5); the control
  // plane rides the typed CeMessage channel instead, so those bytes are holes.
};

// The kind of socket an op acts on. kAny: either kind (close), or no socket
// at all (a per-VM event).
enum class SockKind : uint8_t { kAny, kStream, kDgram };

struct OpTraits {
  NqeOp op;
  const char* name;
  RingKind ring;  // the ring that admits the op; implies its direction
  // data_ptr references a hugepage chunk whose *ownership* crosses with the
  // NQE (send payloads, receives).
  bool carries_chunk;
  // The completion that answers the request (with kNqeFlagChunkUnconsumed
  // for carries-chunk ops) when it dies before any transport consumed it, so
  // the chunk, the send credit and any waiting guest thread find their way
  // home. kInvalid: nothing to answer.
  NqeOp error_completion;
  // CoreEngine forwards a datagram verb whose socket has no table entry
  // without making one; ServiceLib refuses a stream or datagram verb aimed
  // at a socket of the other kind.
  SockKind kind;

  constexpr bool ToNsm() const { return ring == RingKind::kJob || ring == RingKind::kSend; }
};

// One row per op, in wire order.
inline constexpr OpTraits kOpTraits[] = {
    // op                    name                ring                    chunk  error completion        kind
    {NqeOp::kSocket,         "socket",           RingKind::kJob,         false, NqeOp::kOpResult,       SockKind::kStream},
    {NqeOp::kBind,           "bind",             RingKind::kJob,         false, NqeOp::kOpResult,       SockKind::kStream},
    {NqeOp::kListen,         "listen",           RingKind::kJob,         false, NqeOp::kOpResult,       SockKind::kStream},
    {NqeOp::kConnect,        "connect",          RingKind::kJob,         false, NqeOp::kConnectResult,  SockKind::kStream},
    {NqeOp::kAccept,         "accept",           RingKind::kJob,         false, NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kClose,          "close",            RingKind::kJob,         false, NqeOp::kInvalid,        SockKind::kAny},
    {NqeOp::kSend,           "send",             RingKind::kSend,        true,  NqeOp::kSendResult,     SockKind::kStream},
    {NqeOp::kSocketUdp,      "socket_udp",       RingKind::kJob,         false, NqeOp::kOpResult,       SockKind::kDgram},
    {NqeOp::kBindUdp,        "bind_udp",         RingKind::kJob,         false, NqeOp::kOpResult,       SockKind::kDgram},
    {NqeOp::kSendTo,         "sendto",           RingKind::kSend,        true,  NqeOp::kSendToResult,   SockKind::kDgram},
    {NqeOp::kRecvFrom,       "recvfrom",         RingKind::kJob,         false, NqeOp::kInvalid,        SockKind::kDgram},
    {NqeOp::kSendZc,         "send_zc",          RingKind::kSend,        true,  NqeOp::kSendZcComplete, SockKind::kStream},
    {NqeOp::kSendToZc,       "sendto_zc",        RingKind::kSend,        true,  NqeOp::kSendToResult,   SockKind::kDgram},
    {NqeOp::kOpResult,       "op_result",        RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kAny},
    {NqeOp::kConnectResult,  "connect_result",   RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kAcceptedConn,   "accepted_conn",    RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kSendResult,     "send_result",      RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kRecvData,       "recv_data",        RingKind::kReceive,     true,  NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kFinReceived,    "fin_received",     RingKind::kReceive,     false, NqeOp::kInvalid,        SockKind::kAny},
    {NqeOp::kSendToResult,   "sendto_result",    RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kDgram},
    {NqeOp::kDgramRecv,      "dgram_recv",       RingKind::kReceive,     true,  NqeOp::kInvalid,        SockKind::kDgram},
    {NqeOp::kSendZcComplete, "send_zc_complete", RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kStream},
    {NqeOp::kDgramRecvZc,    "dgram_recv_zc",    RingKind::kReceive,     true,  NqeOp::kInvalid,        SockKind::kDgram},
    {NqeOp::kNsmRehomed,     "nsm_rehomed",      RingKind::kCompletion,  false, NqeOp::kInvalid,        SockKind::kAny},
};

namespace detail {

constexpr uint8_t kNoOpRow = 0xff;

// Op byte -> row in kOpTraits (kNoOpRow for holes), so a lookup off a hostile
// ring is one load, whatever the byte.
constexpr std::array<uint8_t, 256> BuildOpRowIndex() {
  std::array<uint8_t, 256> index{};
  index.fill(kNoOpRow);
  for (size_t i = 0; i < std::size(kOpTraits); ++i) {
    index[static_cast<uint8_t>(kOpTraits[i].op)] = static_cast<uint8_t>(i);
  }
  return index;
}

inline constexpr std::array<uint8_t, 256> kOpRowIndex = BuildOpRowIndex();

}  // namespace detail

// The row for a raw op byte, or nullptr for kInvalid and every byte that is
// not an op — the hostile-ring safety net every consumer relies on.
constexpr const OpTraits* FindOpTraits(uint8_t byte) {
  const uint8_t row = detail::kOpRowIndex[byte];
  return row == detail::kNoOpRow ? nullptr : &kOpTraits[row];
}
constexpr const OpTraits* FindOpTraits(NqeOp op) {
  return FindOpTraits(static_cast<uint8_t>(op));
}

// True when `op` is an op that rides `ring`.
constexpr bool OpRides(NqeOp op, RingKind ring) {
  const OpTraits* t = FindOpTraits(op);
  return t != nullptr && t->ring == ring;
}

// NSM->guest ops whose data_ptr hands a received-payload chunk to the guest.
constexpr bool CarriesRxChunk(NqeOp op) {
  const OpTraits* t = FindOpTraits(op);
  return t != nullptr && t->carries_chunk && !t->ToNsm();
}

// True when `op` is the error completion of a carries-chunk request: with
// kNqeFlagChunkUnconsumed set it hands the request's chunk back to the guest.
constexpr bool IsChunkReclaim(NqeOp op) {
  for (const OpTraits& t : kOpTraits) {
    if (t.carries_chunk && t.ToNsm() && t.error_completion == op) return true;
  }
  return false;
}

// ---- Compile-time checks over the table ----
// Written over row indices, not FindOpTraits pointers: under
// -fsanitize=undefined GCC will not fold an object's address against
// nullptr inside a constant expression.
namespace detail {

constexpr bool EveryRow(bool (*pred)(size_t row)) {
  for (size_t i = 0; i < std::size(kOpTraits); ++i) {
    if (!pred(i)) return false;
  }
  return true;
}

constexpr uint8_t RowOf(NqeOp op) { return kOpRowIndex[static_cast<uint8_t>(op)]; }

}  // namespace detail

static_assert(detail::EveryRow([](size_t i) {
                return kOpTraits[i].op != NqeOp::kInvalid && detail::RowOf(kOpTraits[i].op) == i;
              }),
              "kOpTraits: one row per op, and none for kInvalid");
static_assert(detail::EveryRow([](size_t i) {
                return (static_cast<uint8_t>(kOpTraits[i].op) < 32) == kOpTraits[i].ToNsm();
              }),
              "kOpTraits: every guest op (wire 1-31) rides a guest ring (job or send), every "
              "NSM op (wire 32+) a guest-facing one (completion or receive)");
static_assert(detail::EveryRow([](size_t i) {
                const OpTraits& t = kOpTraits[i];
                return !t.ToNsm() || t.carries_chunk == (t.ring == RingKind::kSend);
              }),
              "kOpTraits: a guest op carries a chunk exactly when it rides the send ring");
static_assert(detail::EveryRow([](size_t i) {
                const OpTraits& t = kOpTraits[i];
                return !(t.ToNsm() && t.carries_chunk) || t.error_completion != NqeOp::kInvalid;
              }),
              "kOpTraits: every carries-chunk guest op needs an error completion to reclaim it");
static_assert(detail::EveryRow([](size_t i) {
                const OpTraits& t = kOpTraits[i];
                const uint8_t row = detail::RowOf(t.error_completion);
                return t.error_completion == NqeOp::kInvalid ||
                       (t.ToNsm() && row != detail::kNoOpRow &&
                        kOpTraits[row].ring == RingKind::kCompletion);
              }),
              "kOpTraits: error completions answer guest ops and are NSM->guest ops on the "
              "completion ring");
static_assert(detail::EveryRow([](size_t i) {
                const uint8_t row = detail::RowOf(kOpTraits[i].error_completion);
                return row == detail::kNoOpRow || kOpTraits[row].kind == SockKind::kAny ||
                       kOpTraits[row].kind == kOpTraits[i].kind;
              }),
              "kOpTraits: an error completion acts on its request's socket kind (or either)");

// reserved[1] flag on NSM->VM completions: the operation failed inside the
// switch before any consumer saw it, so the payload chunk referenced by
// data_ptr was never consumed — GuestLib must free it and reclaim the send
// credit. Set by CoreEngine-synthesized error completions (never by a real
// NSM, whose completions always carry data_ptr == 0).
constexpr uint8_t kNqeFlagChunkUnconsumed = 1;

// op_data packing helpers for address-carrying ops (ip in high 32 bits,
// port in low 16).
constexpr uint64_t PackAddr(uint32_t ip, uint16_t port) {
  return (static_cast<uint64_t>(ip) << 32) | port;
}
constexpr uint32_t AddrIp(uint64_t op_data) { return static_cast<uint32_t>(op_data >> 32); }
constexpr uint16_t AddrPort(uint64_t op_data) { return static_cast<uint16_t>(op_data & 0xffff); }

// Fields are ordered wide-to-narrow so every member sits at its natural
// alignment and the struct is exactly 32 bytes without packing pragmas —
// packed misaligned fields are UB to bind references to (and slower to
// load on most ISAs). The byte budget matches Figure 3 exactly.
struct Nqe {
  uint64_t op_data = 0;   // operation payload / result
  uint64_t data_ptr = 0;  // offset into the shared hugepage region
  uint32_t vm_sock = 0;   // socket handle in the user VM
  uint32_t size = 0;      // size of the data pointed at
  uint8_t op = 0;         // NqeOp
  uint8_t vm_id = 0;      // originating VM (or NSM for responses)
  uint8_t queue_set = 0;  // queue set the NQE was enqueued on
  uint8_t reserved[5] = {0, 0, 0, 0, 0};

  NqeOp Op() const { return static_cast<NqeOp>(op); }
  void SetOp(NqeOp o) { op = static_cast<uint8_t>(o); }
};

static_assert(sizeof(Nqe) == 32, "NQE must be exactly 32 bytes (paper Figure 3)");

// Trace id carried in reserved[3..4] (little-endian 16-bit). The other
// reserved bytes are spoken for: reserved[0] echoes the original op on
// completions, reserved[1] carries the reuseport flag / kNqeFlagChunkUnconsumed,
// reserved[2] carries the NSM-side processing queue set. Id 0 means "not
// traced" — MakeNqe zero-initializes reserved, so every NQE is untraced until
// the sampling tracer stamps it at guest-enqueue (nkobs lifecycle tracing).
constexpr uint16_t NqeTraceId(const Nqe& n) {
  return static_cast<uint16_t>(n.reserved[3] | (n.reserved[4] << 8));
}
inline void SetNqeTraceId(Nqe* n, uint16_t id) {
  n->reserved[3] = static_cast<uint8_t>(id & 0xff);
  n->reserved[4] = static_cast<uint8_t>(id >> 8);
}

inline Nqe MakeNqe(NqeOp op, uint8_t vm_id, uint8_t queue_set, uint32_t vm_sock,
                   uint64_t op_data = 0, uint64_t data_ptr = 0, uint32_t size = 0) {
  Nqe n;
  n.SetOp(op);
  n.vm_id = vm_id;
  n.queue_set = queue_set;
  n.vm_sock = vm_sock;
  n.op_data = op_data;
  n.data_ptr = data_ptr;
  n.size = size;
  return n;
}

// The completion that answers guest request `orig` when it dies before any
// transport consumed it: CoreEngine could not route it, nkguard rejected it,
// a quarantine sweep drained it, or ServiceLib refused it. It mirrors a real
// NSM response: `result` (a negative errno) in `size` and the original op in
// reserved[0]. A carries-chunk request returns its send credit in op_data
// and hands its untouched chunk back under kNqeFlagChunkUnconsumed, so the
// guest frees it. `vm_id` is the VM owning the ring `orig` came from, never a
// byte the guest wrote. Returns false when the op needs no answer (or the
// byte is no op at all).
inline bool BuildErrorCompletion(const Nqe& orig, uint8_t vm_id, int32_t result, Nqe* out) {
  const OpTraits* traits = FindOpTraits(orig.op);
  if (traits == nullptr || traits->error_completion == NqeOp::kInvalid) return false;
  *out = MakeNqe(traits->error_completion, vm_id, orig.queue_set, orig.vm_sock);
  out->size = static_cast<uint32_t>(result);
  out->reserved[0] = orig.op;
  if (traits->carries_chunk) {
    out->op_data = orig.size;  // send credit to return
    out->data_ptr = orig.data_ptr;
    out->reserved[1] = kNqeFlagChunkUnconsumed;
  }
  return true;
}

inline std::string NqeOpName(NqeOp op) {
  const OpTraits* t = FindOpTraits(op);
  return t != nullptr ? t->name : "unknown";
}

}  // namespace netkernel::shm

#endif  // SRC_SHM_NQE_H_
