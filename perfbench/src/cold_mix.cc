// cold-mix: one closed-loop client, one query in flight, every query on
// a freshly built QueryService (built and torn down outside the measured
// interval), so its prepared cache is empty and the query pays all
// delivery crypto. A seeded sequence repeats the cycle
// 4 commutative : 4 das : 4 auto : 1 pm, and a run measures whole cycles.
// Within a cycle the four queries of a protocol run on the four data
// instances (pm, whose cost and bytes do not depend on the data, on
// instance 0), so every cycle carries the same work.

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <random>

#include "bigint/mont_kernel.h"
#include "common.h"
#include "inproc.h"
#include "obs/scope.h"
#include "probes.h"

namespace perfbench {
namespace {

using secmed::MediationTestbed;
using secmed::QueryService;

std::vector<std::string> NextCycle(std::mt19937_64* rng) {
  std::vector<std::string> cycle;
  for (const char* p : {"commutative", "das", "auto"}) {
    cycle.insert(cycle.end(), 4, p);
  }
  cycle.push_back("pm");
  std::shuffle(cycle.begin(), cycle.end(), *rng);
  return cycle;
}

/// One paper-100 instance and the digest its queries must match.
struct Instance {
  secmed::Relation hospital, insurer;
  secmed::Bytes reference;
};

/// Installs `inst` at both sources (outside the measured interval).
void Load(MediationTestbed* tb, const Instance& inst) {
  tb->source1().AddRelation(tb->options().table1, inst.hospital);
  tb->source2().AddRelation(tb->options().table2, inst.insurer);
}

/// A fresh service: cache on, 1 thread per session, and one worker, since
/// one query is in flight and every worker of a fresh service is a new
/// thread.
QueryService::Options FreshOptions(secmed::obs::Scope* scope) {
  QueryService::Options opt;
  opt.max_concurrent = 1;
  opt.obs = scope;
  opt.record_transcripts = scope != nullptr;
  return opt;
}

struct ColdRun : Measured {
  uint64_t hits = 0, misses = 0, max_depth = 0, shed = 0;
  double resident_mb = 0;  // summed over the per-query services
};

ColdRun Measure(MediationTestbed* tb, const std::vector<Instance>& instances,
                double seconds, bool traced, std::mt19937_64* seq,
                SpanLog* spans, uint64_t* qid, Report* r) {
  ColdRun run;
  const std::string sql = tb->JoinSql();
  size_t loaded = 0;
  while (run.interval_ms < seconds * 1000.0) {
    std::map<std::string, size_t> nth;  // queries of a protocol so far
    for (const std::string& proto : NextCycle(seq)) {
      const uint64_t id = ++*qid;
      const size_t inst = proto == "pm" ? 0 : nth[proto]++ % instances.size();
      if (inst != loaded) {
        Load(tb, instances[inst]);
        loaded = inst;
      }
      std::unique_ptr<secmed::obs::Scope> scope;
      if (traced) scope = std::make_unique<secmed::obs::Scope>();
      const uint64_t build = spans->Begin("service.construct", id, 0);
      auto svc = std::make_unique<QueryService>(tb, FreshOptions(scope.get()));
      spans->End(build);

      QueryRec rec;
      rec.proto = proto;
      const uint64_t span = spans->Begin("query." + proto, id, 0);
      const auto k0 = secmed::montk::ReadKernelCounters();
      const double cpu0 = SelfCpuMs();
      const double t0 = NowMs();
      auto out = svc->Run(MakeQuery(proto, sql));
      const double t1 = NowMs();
      const double cpu1 = SelfCpuMs();
      const auto k1 = secmed::montk::ReadKernelCounters();
      spans->End(span);

      ++r->attempted;
      run.interval_ms += t1 - t0;
      run.cpu_ms += cpu1 - cpu0;
      rec.latency_ms = t1 - t0;
      rec.muls = k1.muls - k0.muls;
      rec.sqrs = k1.sqrs - k0.sqrs;
      if (!out.ok()) {
        r->Fail(proto + ": " + out.status().ToString());
      } else {
        CheckOutcome(*out, instances[inst].reference, &rec, r);
      }
      if (scope != nullptr) {
        auto snap = scope->tracer().Snapshot();
        rec.phases = AttributeSpans(snap);
        spans->AddProgramSpans(snap, id, span);
      }
      const auto cache = svc->cache().Stats();
      const auto sched = svc->scheduler().stats();
      run.hits += cache.hits;
      run.misses += cache.misses;
      run.resident_mb += double(cache.resident_bytes) / (1 << 20);
      run.max_depth = std::max<uint64_t>(run.max_depth, sched.max_queue_depth);
      run.shed += sched.shed;
      run.recs.push_back(std::move(rec));

      const uint64_t down = spans->Begin("service.destroy", id, 0);
      svc.reset();
      spans->End(down);
    }
  }
  if (loaded != 0) Load(tb, instances[0]);
  return run;
}

void ReportLayers(const ColdRun& untraced, const ColdRun& traced, Report* r) {
  // Kernel counts: one session in flight, and every query runs as
  // session 1 of a fresh service, so a protocol's count is exact.
  std::vector<QueryRec> all = untraced.recs;
  all.insert(all.end(), traced.recs.begin(), traced.recs.end());
  ReportKernelCounts(all, {"commutative", "das", "pm"}, r);
  ReportMedianBreakdown(traced.recs, {"commutative", "das", "pm", "auto"}, "",
                        r);
  ReportInProcessLayers(traced.recs, r);
  const uint64_t lookups = traced.hits + traced.misses;
  r->Layer("service.cache_hits", double(traced.hits));
  r->Layer("service.cache_misses", double(traced.misses));
  r->Layer("service.cache_hit_rate",
           lookups ? double(traced.hits) / double(lookups) : 0);
  r->Layer("service.cache_resident_mb",
           traced.recs.empty() ? 0 : traced.resident_mb / traced.recs.size());
  r->Layer("service.max_queue_depth", double(traced.max_depth));
  r->Layer("service.shed", double(traced.shed));
  r->Na("service.misses_per_update", "no data-owner updates on cold-mix");
  r->Line(Fmt("service.cache: %llu hits, %llu misses over %zu fresh services",
              static_cast<unsigned long long>(traced.hits),
              static_cast<unsigned long long>(traced.misses),
              traced.recs.size()));
}

}  // namespace

Report RunColdMix(const Args& args) {
  Report r;
  SpanLog spans;
  const secmed::Workload workload =
      secmed::GenerateWorkload(Paper100(InstanceSeed(args.seed, 0)));

  // Set-up, five times (it is cheap): key generation + parties, and one
  // service.
  std::vector<double> setup_s, testbed_s;
  std::unique_ptr<MediationTestbed> tb;
  for (int i = 0; i < 5; ++i) {
    tb.reset();
    const uint64_t span = spans.Begin("setup", 0, 0);
    const double t0 = NowMs();
    auto created = MediationTestbed::Create(workload);
    if (!created.ok()) {
      r.Fail("testbed: " + created.status().ToString());
      return r;
    }
    tb = std::move(created).value();
    const double t1 = NowMs();
    { QueryService first(tb.get(), FreshOptions(nullptr)); }
    spans.End(span);
    testbed_s.push_back((t1 - t0) / 1000.0);
    setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  std::vector<Instance> instances(kInstances);
  for (int j = 0; j < kInstances; ++j) {
    secmed::Workload w = j == 0 ? workload
                                : secmed::GenerateWorkload(
                                      Paper100(InstanceSeed(args.seed, j)));
    instances[j].hospital = std::move(w.r1);
    instances[j].insurer = std::move(w.r2);
    instances[j].reference = GateDigest(
        j == 0 ? tb->ExpectedJoin()
               : PlainJoin(instances[j].hospital, instances[j].insurer),
        args.perturb_reference);
  }

  std::mt19937_64 seq(args.seed);
  uint64_t qid = 0;
  if (!args.trace) {
    ColdRun run = Measure(tb.get(), instances, args.seconds, false, &seq,
                          &spans, &qid, &r);
    ReportEndToEnd(run, run.MeanBytes(), &r);
    r.E2e("setup_s", Median(setup_s), "s");
    r.E2e("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  } else {
    ColdRun plain = Measure(tb.get(), instances, args.seconds / 2, false, &seq,
                            &spans, &qid, &r);
    ColdRun traced = Measure(tb.get(), instances, args.seconds / 2, true, &seq,
                             &spans, &qid, &r);
    ReportLayers(plain, traced, &r);
    const double qps_plain = plain.Throughput();
    const double qps_traced = traced.Throughput();
    r.Layer("obs.overhead_pct",
            qps_traced > 0 ? 100.0 * (qps_plain / qps_traced - 1.0) : 0);
    r.Line(Fmt("obs.overhead: untraced %.3f q/s vs traced %.3f q/s",
               qps_plain, qps_traced));
    r.Layer("setup.testbed_s", Median(testbed_s));
    r.Na("setup.daemons_s", "no daemons in process");
    r.Na("setup.warmup_s", "cold-mix keeps no warm cache");
    RunLayerProbes(tb.get(), &r);
    WriteTrace(args, spans.Render(), &r);
  }
  return r;
}

}  // namespace perfbench
