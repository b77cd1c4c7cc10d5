// Copyright (c) NetKernel reproduction authors.
// Wire-level types for the TCP implementation: segments, four-tuples, flags.
//
// Sequence numbers are 64-bit and absolute (no wraparound) — a simulation
// simplification that removes modular-arithmetic edge cases without changing
// any of the behaviour the paper evaluates.

#ifndef SRC_TCPSTACK_TCP_TYPES_H_
#define SRC_TCPSTACK_TCP_TYPES_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/units.h"
#include "src/netsim/packet.h"
#include "src/tcpstack/byte_buffer.h"

namespace netkernel::tcp {

using netsim::IpAddr;
using SeqNum = uint64_t;
using SocketId = uint32_t;
constexpr SocketId kInvalidSocket = 0;

// Maximum segment size (payload bytes per on-wire segment) and the TSO chunk
// the stack hands to the NIC in one go (Linux GSO/TSO default of 64 KB).
constexpr uint32_t kMss = 1448;
constexpr uint32_t kTsoChunk = 64 * 1024;
// Per-MSS on-wire overhead: Ethernet (38 incl. preamble/IFG) + IP (20) +
// TCP (20 + 12 options).
constexpr uint32_t kWireOverheadPerSeg = 90;

inline uint32_t WireBytes(uint32_t payload) {
  uint32_t segs = payload == 0 ? 1 : (payload + kMss - 1) / kMss;
  return payload + segs * kWireOverheadPerSeg;
}

struct FourTuple {
  IpAddr local_ip = 0;
  uint16_t local_port = 0;
  IpAddr remote_ip = 0;
  uint16_t remote_port = 0;

  bool operator==(const FourTuple& o) const {
    return local_ip == o.local_ip && local_port == o.local_port && remote_ip == o.remote_ip &&
           remote_port == o.remote_port;
  }
};

struct FourTupleHash {
  size_t operator()(const FourTuple& t) const {
    uint64_t h = (static_cast<uint64_t>(t.local_ip) << 32) | t.remote_ip;
    h ^= (static_cast<uint64_t>(t.local_port) << 16) | t.remote_port;
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

enum TcpFlags : uint8_t {
  kSyn = 1 << 0,
  kAck = 1 << 1,
  kFin = 1 << 2,
  kRst = 1 << 3,
  kEce = 1 << 4,  // ECN echo (DCTCP feedback)
  kCwr = 1 << 5,
};

// A TCP segment. May carry up to kTsoChunk payload bytes; the fabric treats it
// as the equivalent back-to-back train of MSS-sized packets (wire_bytes
// accounts for per-MSS header overhead). The payload is a list of slices of
// the sender's send-buffer blocks, not a copy of their bytes. A busy
// stream's appends fill 64 KiB blocks, so its 64 KiB segments hold at most
// two slices.
struct Segment {
  FourTuple tuple;  // from the *sender's* perspective
  uint8_t flags = 0;
  SeqNum seq = 0;
  SeqNum ack = 0;
  uint64_t rwnd = 0;           // advertised receive window, bytes
  SimTime ts = 0;              // timestamp option (echoed for RTT)
  SimTime ts_echo = 0;
  SliceList payload;

  bool Has(TcpFlags f) const { return (flags & f) != 0; }
};

// Segments are built with sim::MakePooled, so the segment and its control
// block come from the small-object pool, as does its slice list.
using SegmentPtr = std::shared_ptr<const Segment>;

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

// Socket-level error codes surfaced through the API (values mirror errno).
enum TcpError : int {
  kOk = 0,
  kConnRefused = -111,
  kConnReset = -104,
  kTimedOut = -110,
  kAddrInUse = -98,
  kNotConnected = -107,
  kWouldBlock = -11,
  kInvalidArg = -22,  // e.g. an unknown zero-copy loan handle
};

}  // namespace netkernel::tcp

#endif  // SRC_TCPSTACK_TCP_TYPES_H_
