// Fixture: flight-event emission and metric registration.
#include "src/core/coreengine.h"

void CoreEngineShard::RouteNsmNqe(const Nqe& nqe) {
  recorder_.Record(FlightEventType::kDrop, nqe.vm_id);
}

void Host::BuildMetricsRegistry(MetricsRegistry* registry) {
  registry->RegisterCounter(p + "nqes_switched", source);
  registry->RegisterCounter(p + "nqes_dropped", source);
}
