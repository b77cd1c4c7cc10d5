// Fixture: NSM-side dispatch switch — one case per guest->NSM op.
#include "src/shm/nqe.h"
void ServiceLib::Dispatch(const Nqe& nqe) {
  switch (nqe.Op()) {
    case NqeOp::kSend:
      DoSend(nqe);
      break;
    case NqeOp::kBind:
      DoBind(nqe);
      break;
    default:
      break;
  }
}
