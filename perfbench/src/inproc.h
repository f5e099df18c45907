// In-process pieces shared by cold-mix and warm-service: the query, the
// correctness check of an outcome, and the per-layer metrics both
// in-process workloads report the same way.

#ifndef PERFBENCH_INPROC_H_
#define PERFBENCH_INPROC_H_

#include <string>
#include <vector>

#include "common.h"
#include "net/message.h"
#include "service/query_service.h"

namespace perfbench {

secmed::QueryService::Query MakeQuery(const std::string& proto,
                                      const std::string& sql);

/// Fills `rec` from the outcome and checks its digest against
/// `reference`; a mismatch or error is counted as a failure in `r`.
void CheckOutcome(const secmed::QueryOutcome& out, const secmed::Bytes& reference,
                  QueryRec* rec, Report* r);

/// Messages of a recorded QueryOutcome::transcript.
std::vector<secmed::Message> DecodeTranscript(
    const std::vector<secmed::Bytes>& transcript);

/// Per-layer metrics derived the same way on both in-process workloads
/// from the traced queries: net bytes per party and messages, the DAS
/// superset ratio, the planner's wall error and the queue wait split.
void ReportInProcessLayers(const std::vector<QueryRec>& traced, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_INPROC_H_
