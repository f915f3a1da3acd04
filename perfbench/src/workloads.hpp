#pragma once

// Entry points of the three workloads; each prints its report and returns
// the process exit code (non-zero on any failed output check).

#include "common.hpp"

namespace pb {

/// kernels-coarse.
int run_kernel_workload(const Options& opt);

/// service-mixed.
int run_service_workload(const Options& opt);

}  // namespace pb
