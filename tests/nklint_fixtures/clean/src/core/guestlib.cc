// Fixture: guest-side reap switch — one case per NSM->guest op.
#include "src/shm/nqe.h"
void GuestLib::ApplyInbound(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kOpResult:
      ReapControl(nqe);
      break;
    case NqeOp::kSendResult:
      ReapSend(nqe);
      break;
    case NqeOp::kRecvData:
      ReapPayload(nqe);
      break;
    default:
      break;
  }
}
