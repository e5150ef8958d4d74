// Workload entry points. Each fills `out` with the metrics of its run:
// the end-to-end set when opt.trace is false, the per-layer set when true.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// device_churn, device_pressure, device_contended.
void run_device(const Options& opt, Outcome* out);
/// OS workers the device workload runs its launches on.
std::uint32_t device_workers(const std::string& workload);

/// host_tenants.
void run_host(const Options& opt, Outcome* out);

}  // namespace perfbench
