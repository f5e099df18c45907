// warm-service: one long-lived QueryService with the prepared cache on,
// two closed-loop clients against max_concurrent 2 / queue_depth 16 (two
// of each, not one per CPU, so that clients, workers and the misses being
// computed after an update do not outnumber the CPUs; with four and four
// on four CPUs every time metric spread more from run to run).
// Queries are commutative, das, auto and pm in equal shares (a seeded
// shuffle of each block of four). After every 200th query a data-owner
// update runs: in-flight queries finish, one source's relation is replaced
// by a freshly generated one of the same shape (next instance; hospital
// and insurer take turns, so that a run's DAS supersets, and with them
// its DAS bytes and time, do not all follow one draw of the other
// relation), and the clients resume. A run measures whole epochs of 200
// queries.

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "bigint/mont_kernel.h"
#include "common.h"
#include "inproc.h"
#include "obs/report.h"
#include "obs/scope.h"
#include "probes.h"

namespace perfbench {
namespace {

using secmed::MediationTestbed;
using secmed::QueryService;

constexpr uint64_t kEpochQueries = 200;
constexpr int kClients = 2;
constexpr size_t kWorkers = 2;
const char* const kMix[] = {"commutative", "das", "auto", "pm"};

QueryService::Options ServiceOptions(secmed::obs::Scope* scope) {
  QueryService::Options opt;
  opt.max_concurrent = kWorkers;
  opt.queue_depth = 16;
  opt.obs = scope;
  opt.record_transcripts = scope != nullptr;
  return opt;  // default cache budget; paper-100 fits it
}

/// The data every query of the current epoch must agree with.
struct DataState {
  uint64_t seed = 0;
  uint64_t epoch = 0;
  secmed::Relation hospital, insurer;
  secmed::Bytes reference;
  bool perturb = false;
  uint64_t updates = 0;
};

/// Replaces hospital's relation (odd epochs) or insurer's (even epochs)
/// by the next instance's and recomputes the reference.
void DataOwnerUpdate(MediationTestbed* tb, DataState* data) {
  ++data->epoch;
  ++data->updates;
  secmed::Workload next =
      secmed::GenerateWorkload(Paper100(InstanceSeed(data->seed, data->epoch)));
  if (data->epoch % 2 == 1) {
    data->hospital = std::move(next.r1);
    tb->source1().AddRelation(tb->options().table1, data->hospital);
  } else {
    data->insurer = std::move(next.r2);
    tb->source2().AddRelation(tb->options().table2, data->insurer);
  }
  data->reference = GateDigest(PlainJoin(data->hospital, data->insurer),
                               data->perturb);
}

/// Submits `query`, waits for the outcome at the client and checks it.
QueryRec Issue(QueryService* svc, const std::string& proto,
               const std::string& sql, const secmed::Bytes& reference,
               Report* r, std::mutex* report_mu) {
  QueryRec rec;
  rec.proto = proto;
  auto done = std::make_shared<std::promise<secmed::QueryOutcome>>();
  auto future = done->get_future();
  const double t0 = NowMs();
  auto id = svc->Submit(MakeQuery(proto, sql),
                        [done](secmed::QueryOutcome out) {
                          done->set_value(std::move(out));
                        });
  if (!id.ok()) {
    std::lock_guard<std::mutex> lock(*report_mu);
    ++r->attempted;
    r->Fail(proto + ": shed: " + id.status().ToString());
    return rec;
  }
  secmed::QueryOutcome out = future.get();
  rec.latency_ms = NowMs() - t0;
  std::lock_guard<std::mutex> lock(*report_mu);
  ++r->attempted;
  CheckOutcome(out, reference, &rec, r);
  return rec;
}

struct Setup {
  std::unique_ptr<QueryService> svc;
  double warmup_s = 0;
};

/// Service construction plus the pass that fills the cache: one query
/// of each protocol, in flight together.
Setup BuildService(MediationTestbed* tb, secmed::obs::Scope* scope,
                   const DataState& data, SpanLog* spans, Report* r,
                   std::mutex* report_mu) {
  Setup s;
  const uint64_t span = spans->Begin("service.construct", 0, 0);
  s.svc = std::make_unique<QueryService>(tb, ServiceOptions(scope));
  spans->End(span);
  const uint64_t warm = spans->Begin("warmup", 0, 0);
  const double t0 = NowMs();
  std::vector<std::thread> pass;
  for (const char* p : kMix) {
    pass.emplace_back([&, p] {
      Issue(s.svc.get(), p, tb->JoinSql(), data.reference, r, report_mu);
    });
  }
  for (auto& t : pass) t.join();
  s.warmup_s = (NowMs() - t0) / 1000.0;
  spans->End(warm);
  return s;
}

struct WarmRun : Measured {
  uint64_t updates = 0;
  double start_ns = 0;
};

WarmRun Measure(MediationTestbed* tb, QueryService* svc, DataState* data,
                double seconds, std::mt19937_64* seq, SpanLog* spans,
                Report* r, std::mutex* report_mu) {
  WarmRun run;
  std::mutex mu;  // guards everything below
  std::condition_variable cv;
  uint64_t issued = 0, completed = 0, epoch_end = kEpochQueries;
  bool stop = false;
  std::vector<std::string> order;
  const std::string sql = tb->JoinSql();
  const double t_start = NowMs();
  const double cpu_start = SelfCpuMs();
  const uint64_t updates_before = data->updates;
  run.start_ns = t_start * 1e6;

  auto client = [&]() {
    for (;;) {
      std::string proto;
      secmed::Bytes reference;
      uint64_t ticket = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop || issued < epoch_end; });
        if (stop) return;
        ticket = issued++;
        if (order.size() <= ticket) {
          std::vector<std::string> block(std::begin(kMix), std::end(kMix));
          std::shuffle(block.begin(), block.end(), *seq);
          order.insert(order.end(), block.begin(), block.end());
        }
        proto = order[ticket];
        reference = data->reference;
      }
      const uint64_t span = spans->Begin("query." + proto, ticket + 1, 0);
      QueryRec rec = Issue(svc, proto, sql, reference, r, report_mu);
      spans->End(span);
      std::lock_guard<std::mutex> lock(mu);
      run.recs.push_back(std::move(rec));
      if (++completed == epoch_end) {
        // Nothing is in flight: the epoch boundary.
        if (NowMs() - t_start >= seconds * 1000.0) {
          stop = true;
        } else {
          const uint64_t up = spans->Begin("update", 0, 0);
          DataOwnerUpdate(tb, data);
          spans->End(up);
          epoch_end += kEpochQueries;
        }
        cv.notify_all();
      }
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  run.interval_ms = NowMs() - t_start;
  run.cpu_ms = SelfCpuMs() - cpu_start;
  run.updates = data->updates - updates_before;
  return run;
}

/// Per-query kernel counts of each protocol on the warm cache, one query
/// at a time after the measured interval (nothing else in flight).
void KernelCountsWarm(QueryService* svc, const std::string& sql,
                      const secmed::Bytes& reference, Report* r,
                      std::mutex* report_mu) {
  for (const char* p : {"commutative", "das", "pm"}) {
    const auto k0 = secmed::montk::ReadKernelCounters();
    Issue(svc, p, sql, reference, r, report_mu);
    const auto k1 = secmed::montk::ReadKernelCounters();
    r->Layer(std::string("bigint.") + p + ".mul_calls", double(k1.muls - k0.muls));
    r->Layer(std::string("bigint.") + p + ".sqr_calls", double(k1.sqrs - k0.sqrs));
  }
}

void ReportLayers(const WarmRun& run, const secmed::obs::Scope& scope,
                  const secmed::PreparedRegistryStats& before,
                  QueryService* svc, Report* r) {
  // Under concurrency the program's spans cannot be tied to a session:
  // phases are workload totals over the measured interval divided by
  // completed queries, the same figure for every protocol.
  std::vector<secmed::obs::SpanRecord> spans;
  for (const auto& s : scope.tracer().Snapshot()) {
    if (double(s.start_ns) >= run.start_ns) spans.push_back(s);
  }
  PhaseTotals pooled = AttributeSpans(spans);
  const size_t ok = run.Completed();
  if (ok == 0) return;
  std::vector<double> execs;
  std::map<std::string, double> count;  // completed queries per protocol
  double das_rows = 0;
  for (const QueryRec& q : run.recs) {
    if (!q.ok) continue;
    execs.push_back(q.exec_ms);
    count[q.proto] += 1;
    if (q.proto == "das") das_rows += double(q.rows);
  }
  double mean_exec = 0;
  for (double e : execs) mean_exec += e / double(execs.size());
  PhaseTotals per = pooled;
  per.Scale(1.0 / double(ok));
  for (const char* p : {"commutative", "das", "pm", "auto"}) {
    const std::string k = std::string("core.") + p + ".";
    r->Layer(k + "request_ms", per.request_ms);
    r->Layer(k + "source_ms", per.source_ms);
    r->Layer(k + "mediator_ms", per.mediator_ms);
    r->Layer(k + "client_ms", per.client_ms);
    r->Layer(k + "unattributed_ms", mean_exec - per.Sum());
  }
  r->Line(Fmt("core phases pooled over %zu queries (no per-session spans "
              "under concurrency): request %.3f + source %.3f + mediator %.3f"
              " + client %.3f ms vs mean exec %.3f ms",
              ok, per.request_ms, per.source_ms, per.mediator_ms,
              per.client_ms, mean_exec));
  // Protocol-specific operations name their protocol, so these divide by
  // that protocol's queries (auto resolves to one of them and is not
  // separable; its share is left in the totals).
  auto op = [&](const char* name) {
    auto it = pooled.op_ms.find(name);
    return it == pooled.op_ms.end() ? 0.0 : it->second;
  };
  auto per_q = [&](double total, const char* proto) {
    return count[proto] > 0 ? total / count[proto] : 0.0;
  };
  r->Layer("core.pm.evaluate_ms", per_q(op("pm.evaluate"), "pm"));
  r->Layer("core.pm.encrypt_coeffs_ms", per_q(op("pm.encrypt_coeffs"), "pm"));
  r->Layer("core.pm.pool_randomizers_ms",
           per_q(op("pm.pool_randomizers"), "pm"));
  r->Layer("core.commutative.encrypt_ms",
           per_q(op("comm.deliver") + op("comm.double_encrypt"), "commutative"));
  r->Layer("core.client_decrypt_ms", op("decrypt") / double(ok));
  r->Layer("das.encrypt_relation_ms", per_q(op("das.encrypt_relation"), "das"));
  r->Layer("das.client_query_ms",
           per_q(op("das.translate") + op("das.apply_client_query"), "das"));
  auto items = pooled.op_items.find("das.apply_client_query");
  if (das_rows > 0 && items != pooled.op_items.end()) {
    r->Layer("das.superset_ratio", double(items->second) / das_rows);
  }

  ReportInProcessLayers(run.recs, r);
  const auto after = svc->cache().Stats();
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  r->Layer("service.cache_hits", double(hits));
  r->Layer("service.cache_misses", double(misses));
  r->Layer("service.cache_hit_rate",
           hits + misses ? double(hits) / double(hits + misses) : 0);
  r->Layer("service.misses_per_update",
           run.updates ? double(misses) / double(run.updates) : 0);
  r->Layer("service.cache_resident_mb",
           double(after.resident_bytes) / (1 << 20));
  const auto sched = svc->scheduler().stats();
  r->Layer("service.max_queue_depth", double(sched.max_queue_depth));
  r->Layer("service.shed", double(sched.shed));
  r->Line(Fmt("service.cache: %llu hits, %llu misses, %llu updates, "
              "%.2f MiB resident",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(run.updates),
              double(after.resident_bytes) / (1 << 20)));
}

}  // namespace

Report RunWarmService(const Args& args) {
  Report r;
  std::mutex report_mu;
  SpanLog spans;
  const secmed::Workload workload = secmed::GenerateWorkload(Paper100(args.seed));
  DataState data;
  data.seed = args.seed;
  data.perturb = args.perturb_reference;

  // Set-up: key generation + parties, the service, the cache-filling
  // pass. Three times untraced; traced runs build an untraced and a
  // traced service instead.
  std::unique_ptr<MediationTestbed> tb;
  std::vector<double> setup_s, testbed_s, warmup_s;
  auto make_testbed = [&]() -> bool {
    tb.reset();
    const uint64_t span = spans.Begin("testbed.create", 0, 0);
    const double t0 = NowMs();
    auto created = MediationTestbed::Create(workload);
    spans.End(span);
    if (!created.ok()) {
      r.Fail("testbed: " + created.status().ToString());
      return false;
    }
    tb = std::move(created).value();
    data.hospital = workload.r1;
    data.insurer = workload.r2;
    data.reference = GateDigest(tb->ExpectedJoin(), data.perturb);
    testbed_s.push_back((NowMs() - t0) / 1000.0);
    return true;
  };
  std::mt19937_64 seq(args.seed);
  if (!args.trace) {
    Setup s;
    for (int i = 0; i < 3; ++i) {
      s.svc.reset();
      const double t0 = NowMs();
      if (!make_testbed()) return r;
      s = BuildService(tb.get(), nullptr, data, &spans, &r, &report_mu);
      setup_s.push_back((NowMs() - t0) / 1000.0);
    }
    WarmRun run = Measure(tb.get(), s.svc.get(), &data, args.seconds, &seq,
                          &spans, &r, &report_mu);
    ReportEndToEnd(run, run.MeanBytes(), &r);
    r.Line(Fmt("%llu data-owner updates",
               static_cast<unsigned long long>(run.updates)));
    r.E2e("setup_s", Median(setup_s), "s");
    r.E2e("peak_rss_mb", PeakRssMb(getpid()), "MiB");
    return r;
  }

  if (!make_testbed()) return r;
  Setup plain = BuildService(tb.get(), nullptr, data, &spans, &r, &report_mu);
  warmup_s.push_back(plain.warmup_s);
  WarmRun plain_run = Measure(tb.get(), plain.svc.get(), &data,
                              args.seconds / 2, &seq, &spans, &r, &report_mu);
  plain.svc.reset();

  secmed::obs::Scope scope;
  Setup traced = BuildService(tb.get(), &scope, data, &spans, &r, &report_mu);
  warmup_s.push_back(traced.warmup_s);
  const auto before = traced.svc->cache().Stats();
  WarmRun traced_run = Measure(tb.get(), traced.svc.get(), &data,
                               args.seconds / 2, &seq, &spans, &r, &report_mu);
  ReportLayers(traced_run, scope, before, traced.svc.get(), &r);
  KernelCountsWarm(traced.svc.get(), tb->JoinSql(), data.reference, &r,
                   &report_mu);
  const double qps_plain = plain_run.Throughput();
  const double qps_traced = traced_run.Throughput();
  r.Layer("obs.overhead_pct",
          qps_traced > 0 ? 100.0 * (qps_plain / qps_traced - 1.0) : 0);
  r.Line(Fmt("obs.overhead: untraced %.1f q/s vs traced %.1f q/s "
             "(traced also records transcripts)",
             qps_plain, qps_traced));
  r.Layer("setup.testbed_s", Median(testbed_s));
  r.Layer("setup.warmup_s", Median(warmup_s));
  r.Na("setup.daemons_s", "no daemons in process");
  traced.svc.reset();
  RunLayerProbes(tb.get(), &r);
  // The program's spans cannot be tied to a query under concurrency, so
  // they get a lane of their own beside the benchmark's.
  secmed::obs::ChromeTraceOptions copt;
  copt.process_name = "query service";
  std::string merged, error;
  if (secmed::obs::MergeChromeTraces(
          {spans.Render(), secmed::obs::RenderChromeTrace(scope.tracer(), copt)},
          &merged, &error)) {
    WriteTrace(args, merged, &r);
  } else {
    r.Line("trace merge: " + error);
    WriteTrace(args, spans.Render(), &r);
  }
  return r;
}

}  // namespace perfbench
