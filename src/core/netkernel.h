// Copyright (c) NetKernel reproduction authors.
// Umbrella header: include this to use the whole NetKernel library.
//
// Quick tour (see examples/quickstart.cpp for runnable code):
//   sim::EventLoop loop;                       // the virtual timeline
//   netsim::Fabric fabric(&loop);              // the datacenter network
//   core::Host host(&loop, &fabric, "host0");  // hypervisor + CoreEngine
//   auto* nsm = host.CreateNsm("nsm0", 1, core::NsmKind::kKernel);
//   auto* vm  = host.CreateNetkernelVm("vm0", 1, nsm);
//   // vm->api() is a BSD-socket-shaped coroutine API; applications written
//   // against it also run on host.CreateBaselineVm(...) unchanged.

#ifndef SRC_CORE_NETKERNEL_H_
#define SRC_CORE_NETKERNEL_H_

#include "src/apps/trace.h"
#include "src/apps/workloads.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/token_bucket.h"
#include "src/common/units.h"
#include "src/core/baseline_api.h"
#include "src/core/coreengine.h"
#include "src/core/guestlib.h"
#include "src/core/host.h"
#include "src/core/servicelib.h"
#include "src/core/socket_api.h"
#include "src/netsim/fabric.h"
#include "src/shm/hugepage_pool.h"
#include "src/shm/nk_device.h"
#include "src/shm/nqe.h"
#include "src/shm/spsc_ring.h"
#include "src/sim/cpu.h"
#include "src/sim/event_loop.h"
#include "src/sim/task.h"
#include "src/tcpstack/stack.h"
#include "src/udpstack/stack.h"
#include "src/udpstack/udp_types.h"

#endif  // SRC_CORE_NETKERNEL_H_
