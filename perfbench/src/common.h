// Shared pieces of the perfbench driver: the paper-100 dataset, latency
// statistics, the correctness reference, process accounting, the
// benchmark's own span log and the metric report every workload fills.
//
// The driver reaches the system only through its public entry points
// (QueryService, core/remote.h + the secmedd daemons, obs::Scope, the
// kernel counters and the layer functions the probes time).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "relational/relation.h"
#include "relational/workload.h"
#include "util/bytes.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Correctness-gate self-test: compare against a reference with one
  /// tuple removed, so every query must be counted as failed.
  bool perturb_reference = false;
  std::string secmedd;  // path of the daemon binary (tcp-deploy)
  std::string out_dir;  // traces and daemon logs
};

/// The dataset every workload uses: 100 tuples and 40 distinct join
/// values per relation, 20 common values, 2 payload columns, uniform.
secmed::WorkloadConfig Paper100(uint64_t seed);

/// cold-mix and tcp-deploy spread each run over kInstances paper-100
/// instances of the run's seed, so that one unusual draw (the DAS
/// superset, hence its bytes and time, follows the data) moves a run's
/// figures less; warm-service's update e installs instance e's hospital
/// relation. Instance 0 is the seed itself; instance j uses workload seed
/// seed + j * 2^32.
inline constexpr int kInstances = 4;
inline uint64_t InstanceSeed(uint64_t seed, int j) {
  return seed + (uint64_t(j) << 32);
}

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// 10th percentile, median and tail of a latency sample. The tail is the
/// value at the highest percentile that leaves at least ten samples above
/// it, so it exists only for n >= 11.
struct LatencyStats {
  size_t n = 0;
  double p10 = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  bool has_tail = false;
};
LatencyStats Summarize(std::vector<double> v);

/// SHA-256 of the canonically sorted relation — the digest QueryOutcome
/// carries.
secmed::Bytes CanonicalDigest(secmed::Relation r);

/// Plaintext join of the two source relations, qualified like
/// MediationTestbed::ExpectedJoin (the reference after an update).
secmed::Relation PlainJoin(const secmed::Relation& hospital,
                           const secmed::Relation& insurer);

/// The digest every query result must match: the canonical digest of the
/// expected join, or — with `perturb`, the gate's self-test — of the
/// expected join with one tuple dropped.
secmed::Bytes GateDigest(secmed::Relation expected, bool perturb);

/// User+system CPU of a process, in milliseconds (/proc/<pid>/stat).
double ProcessCpuMs(pid_t pid);
/// CPU of this process (CLOCK_PROCESS_CPUTIME_ID), in milliseconds.
double SelfCpuMs();
/// Peak resident set (VmHWM) of a process, in MiB.
double PeakRssMb(pid_t pid);
double NowMs();  // steady clock

/// Top-level program spans of one or more queries, summed by protocol
/// phase (docs/OBSERVABILITY.md span taxonomy). Planning spans
/// (client/plan/*) count as request.
struct PhaseTotals {
  double request_ms = 0, source_ms = 0, mediator_ms = 0, client_ms = 0;
  std::map<std::string, double> op_ms;      // summed over parties
  std::map<std::string, uint64_t> op_items;
  double Sum() const { return request_ms + source_ms + mediator_ms + client_ms; }
  void Scale(double f);
};
PhaseTotals AttributeSpans(const std::vector<secmed::obs::SpanRecord>& spans);

inline const char* const kParties[] = {"client", "mediator", "hospital",
                                       "insurer"};

/// One query (a session on TCP) as the benchmark saw it.
struct QueryRec {
  std::string proto;
  bool ok = false;
  double latency_ms = 0;  // submit to the outcome at the client
  double exec_ms = 0;     // QueryOutcome::latency_ms (in process)
  uint64_t bytes = 0, messages = 0, rows = 0;
  uint64_t muls = 0, sqrs = 0;         // kernel deltas, one in flight only
  double plan_ratio = 0;               // auto: wall error of the plan
  PhaseTotals phases;                  // traced, one in flight only
  std::map<std::string, double> sent;  // traced: bytes sent per party
  double frame_send_ms = 0, frame_wait_ms = 0;  // traced, TCP only
};

/// The queries of a measured interval and what the interval cost.
struct Measured {
  std::vector<QueryRec> recs;
  double interval_ms = 0;
  double cpu_ms = 0;  // every process of the deployment
  size_t Completed() const;
  double Throughput() const;  // completed queries per second
  double MeanBytes() const;   // per completed query
};

/// The benchmark's own spans around each public call it makes. Every
/// span carries a query id and its parent; program spans of a query are
/// attached under the benchmark span that caused them.
class SpanLog {
 public:
  uint64_t Begin(const std::string& name, uint64_t query, uint64_t parent);
  void End(uint64_t id);
  void AddProgramSpans(const std::vector<secmed::obs::SpanRecord>& spans,
                       uint64_t query, uint64_t parent);
  /// Chrome trace JSON (Perfetto) of everything recorded.
  std::string Render() const;

 private:
  struct Rec {
    std::string name;
    uint64_t id, parent, query;
    uint64_t start_ns, end_ns;
    uint32_t tid;
  };
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
  std::map<uint64_t, size_t> open_;
  uint64_t next_id_ = 1;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the end-to-end metrics (untraced runs), the
/// per-layer metrics (traced runs), failure counts and human notes.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Per-layer metrics that do not apply to this workload (reported 0).
  std::map<std::string, std::string> not_applicable;
  std::vector<std::string> lines;  // human-readable output

  void E2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void Layer(const std::string& name, double v) { layer[name].value = v; }
  void Na(const std::string& prefix, const std::string& why) {
    not_applicable[prefix] = why;
  }
  void Line(const std::string& s) { lines.push_back(s); }
  void Fail(const std::string& why);
};

/// Name and unit of every per-layer metric, in report order. Every traced
/// run reports each of them (0 where not applicable).
const std::vector<std::pair<std::string, std::string>>& LayerMetricList();

/// The end-to-end metrics of an untraced run: commutative.p10_ms and
/// das.p10_ms, throughput_qps, `wire_bytes` as wire_bytes_per_query and
/// cpu_ms_per_query; every protocol's p10, p50 and tail is printed with
/// its sample count and the tail's percentile.
///
/// The gated latency is the 10th percentile, not the median: on a shared
/// host, contention arrives in episodes of seconds that slow every query
/// in them 1.5-2x, and the share of a run they cover varies from run to
/// run. Sub-millisecond warm hits then fall into two modes with the
/// median between them; the 10th percentile stays in the uncontended
/// mode unless nine tenths of a run are contended.
void ReportEndToEnd(const Measured& run, double wire_bytes, Report* r);

/// bigint.<proto>.{mul,sqr}_calls: the median over the protocol's queries.
void ReportKernelCounts(const std::vector<QueryRec>& recs,
                        const std::vector<std::string>& protos, Report* r);

/// Layer-residual baseline from one-in-flight traced queries: for each
/// protocol the median-latency query's phases (core.<proto>.*, the
/// residual printed with its share) and its operations (core.pm.*,
/// core.commutative.encrypt_ms, das.*), plus core.client_decrypt_ms as
/// the mean over all queries.
void ReportMedianBreakdown(const std::vector<QueryRec>& recs,
                           const std::vector<std::string>& protos,
                           const std::string& note, Report* r);

std::string Fmt(const char* fmt, ...);

/// Workloads.
Report RunColdMix(const Args& args);
Report RunWarmService(const Args& args);
Report RunTcpDeploy(const Args& args);

/// Writes the Chrome trace of a traced run under Args::out_dir and
/// prints its path.
void WriteTrace(const Args& args, const std::string& json, Report* r);

/// Runs `procs` CPU-bound child processes at once and returns
/// procs * t(1 alone) / t(procs together). The children only compute, so
/// forking with other threads alive is safe.
double EffectiveParallelism(int procs);
double LoadAverage();

/// Host CPU time (all CPUs, /proc/stat) in clock ticks: `steal` is time
/// the hypervisor ran something else while a virtual CPU wanted to run.
struct HostCpu {
  double total = 0, steal = 0;
};
HostCpu ReadHostCpu();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
