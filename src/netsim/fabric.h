// Copyright (c) NetKernel reproduction authors.
// Convenience assembly of a small datacenter fabric: N host-facing ports on
// one switch, each port a full-duplex pair of links to a NIC. All benchmark
// topologies (two hosts on 100G, fan-in onto a 10G bottleneck, ...) are built
// from this. The fabric also numbers the addresses its hosts use.

#ifndef SRC_NETSIM_FABRIC_H_
#define SRC_NETSIM_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/netsim/link.h"
#include "src/netsim/nic.h"
#include "src/netsim/switch.h"
#include "src/sim/event_loop.h"

namespace netkernel::netsim {

struct HostPort {
  Nic* nic = nullptr;
  Link* up = nullptr;    // host -> switch
  Link* down = nullptr;  // switch -> host
};

class Fabric {
 public:
  explicit Fabric(sim::EventLoop* loop) : loop_(loop), switch_("fabric") {}

  // Hands out this fabric's next unused address: 10.0.0.1, 10.0.0.2, ...,
  // 10.0.1.0, ... Numbering is per fabric, so a topology's addresses (and
  // the flow hashes that pick stack cores) depend on its own construction
  // order only, never on what else the process built.
  IpAddr AllocIp() {
    NK_CHECK(next_ip_suffix_ < (1u << 24));  // the 10.0.0.0/8 space is spent
    const uint32_t s = next_ip_suffix_++;
    return MakeIp(10, static_cast<uint8_t>(s >> 16), static_cast<uint8_t>(s >> 8),
                  static_cast<uint8_t>(s));
  }

  // Adds a host port: creates a NIC with `ip` connected to the fabric switch
  // by a full-duplex link pair with the given per-direction config.
  HostPort AddHost(const std::string& name, IpAddr ip, Link::Config config) {
    auto nic = std::make_unique<Nic>(name, ip);
    auto up = std::make_unique<Link>(loop_, name + ".up", config);
    auto down = std::make_unique<Link>(loop_, name + ".down", config);
    // Host TX -> up link -> switch; switch -> down link -> host RX.
    Nic* nic_ptr = nic.get();
    Link* down_ptr = down.get();
    up->SetSink([this](Packet p) { switch_.Forward(std::move(p)); });
    down->SetSink([nic_ptr](Packet p) { nic_ptr->Receive(std::move(p)); });
    switch_.AddRoute(ip, down_ptr);

    // The NIC transmits onto its up link rather than straight into the
    // switch, so the host's own port speed is the first bottleneck.
    struct UplinkShim : public Switch {
      explicit UplinkShim(Link* l) : Switch("uplink-shim"), link(l) {}
      Link* link;
    };
    auto shim = std::make_unique<UplinkShim>(up.get());
    shim->SetDefaultRoute(up.get());
    nic->AttachSwitch(shim.get());

    Link* up_ptr = up.get();
    nics_.push_back(std::move(nic));
    links_.push_back(std::move(up));
    links_.push_back(std::move(down));
    shims_.push_back(std::move(shim));
    return HostPort{nic_ptr, up_ptr, down_ptr};
  }

  // Routes an additional address (e.g. a NetKernel VM's IP) to an existing
  // port (its NSM's down link).
  void AddRoute(IpAddr ip, Link* down_link) { switch_.AddRoute(ip, down_link); }

  Switch* fabric_switch() { return &switch_; }
  Link* link(size_t i) { return links_[i].get(); }
  size_t num_links() const { return links_.size(); }

  // Down link (switch -> host) for host index i, in AddHost order.
  Link* down_link(size_t host_index) { return links_[host_index * 2 + 1].get(); }
  Link* up_link(size_t host_index) { return links_[host_index * 2].get(); }

 private:
  sim::EventLoop* loop_;
  Switch switch_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Switch>> shims_;
  uint32_t next_ip_suffix_ = 1;
};

}  // namespace netkernel::netsim

#endif  // SRC_NETSIM_FABRIC_H_
