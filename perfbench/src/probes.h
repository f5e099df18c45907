// Probes of public layer functions at the workloads' key sizes, run once
// per traced run: Montgomery exponentiation, the planner's calibration
// micro-probes, the wire codec over a recorded transcript, and EXPLAIN.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "common.h"
#include "core/testbed.h"

namespace perfbench {

void RunLayerProbes(secmed::MediationTestbed* tb, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
