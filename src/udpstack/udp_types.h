// Copyright (c) NetKernel reproduction authors.
// Wire-level types for the UDP implementation: datagrams and fragmentation
// accounting. A datagram larger than one MTU is IP-fragmented on the wire;
// the fabric carries it as a single Packet whose wire_bytes accounts for the
// per-fragment header overhead (mirroring how tcpstack treats a TSO chunk as
// a back-to-back MSS train). Losing the packet loses the whole datagram,
// exactly like losing any one IP fragment of a real datagram.

#ifndef SRC_UDPSTACK_UDP_TYPES_H_
#define SRC_UDPSTACK_UDP_TYPES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/netsim/packet.h"

namespace netkernel::udp {

using netsim::IpAddr;
using SocketId = uint32_t;
constexpr SocketId kInvalidSocket = 0;

// Payload bytes of the first fragment of a 1500-byte-MTU datagram
// (1500 - 20 IP - 8 UDP); subsequent fragments carry marginally more, which
// we ignore for a uniform per-fragment model.
constexpr uint32_t kMtuPayload = 1472;
// Largest UDP payload (64 KiB IP datagram minus IP + UDP headers).
constexpr uint32_t kMaxDatagram = 65507;
// Per-fragment on-wire overhead: Ethernet (38 incl. preamble/IFG) + IP (20) +
// UDP (8; kept on every fragment for a uniform model).
constexpr uint32_t kWireOverheadPerFrag = 66;

inline uint32_t FragCount(uint32_t payload) {
  return payload == 0 ? 1 : (payload + kMtuPayload - 1) / kMtuPayload;
}

inline uint32_t WireBytes(uint32_t payload) {
  return payload + FragCount(payload) * kWireOverheadPerFrag;
}

// A UDP datagram as carried by the fabric (addresses from the sender's
// perspective).
struct Datagram {
  IpAddr src_ip = 0;
  IpAddr dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::vector<uint8_t> payload;
};

// Datagrams are built with sim::MakePooled, so the datagram and its control
// block come from the small-object pool.
using DatagramPtr = std::shared_ptr<const Datagram>;

// Socket-level error codes surfaced through the API (values mirror errno).
enum UdpError : int {
  kOk = 0,
  kAddrInUse = -98,
  kMsgSize = -90,
  kBadSocket = -9,  // EBADF
};

}  // namespace netkernel::udp

#endif  // SRC_UDPSTACK_UDP_TYPES_H_
