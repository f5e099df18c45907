#include "common.h"

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "crypto/sha256.h"
#include "relational/algebra.h"

namespace perfbench {

using secmed::Bytes;
using secmed::Relation;

secmed::WorkloadConfig Paper100(uint64_t seed) {
  secmed::WorkloadConfig c;
  c.r1_tuples = c.r2_tuples = 100;
  c.r1_domain = c.r2_domain = 40;
  c.common_values = 20;
  c.r1_extra_columns = c.r2_extra_columns = 2;
  c.skew = 0.0;
  c.seed = seed;
  return c;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencyStats Summarize(std::vector<double> v) {
  LatencyStats s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = Median(v);
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least 10% of the sample at
  // or below it.
  s.p10 = v[(s.n + 9) / 10 - 1];
  if (s.n >= 11) {
    s.has_tail = true;
    s.tail = v[s.n - 11];
    s.tail_pct = 100.0 * double(s.n - 10) / double(s.n);
  }
  return s;
}

Bytes CanonicalDigest(Relation r) {
  r.SortCanonically();
  return secmed::Sha256::Hash(r.Serialize());
}

Relation PlainJoin(const Relation& hospital, const Relation& insurer) {
  // The testbed's default table names, as in ExpectedJoin.
  return secmed::NaturalJoin(secmed::Qualify(hospital, "medical"),
                             secmed::Qualify(insurer, "billing"))
      .value();
}

Bytes GateDigest(Relation expected, bool perturb) {
  if (perturb && !expected.empty()) {
    std::vector<secmed::Tuple> tuples = expected.tuples();
    tuples.pop_back();
    expected = Relation(expected.schema(), std::move(tuples));
  }
  return CanonicalDigest(std::move(expected));
}

void WriteTrace(const Args& args, const std::string& json, Report* r) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream out(path, std::ios::binary);
  out << json;
  if (!out) {
    r->Line("trace: cannot write " + path);
    return;
  }
  r->Line("trace: " + path + " (Chrome trace JSON, open in Perfetto)");
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string tok;
  double ticks = 0;
  // Field 3 (state) comes first; utime and stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field >= 14) ticks += std::stod(tok);
  }
  return ticks * 1000.0 / double(sysconf(_SC_CLK_TCK));
}

double SelfCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PhaseTotals::Scale(double f) {
  request_ms *= f;
  source_ms *= f;
  mediator_ms *= f;
  client_ms *= f;
  for (auto& [k, v] : op_ms) v *= f;
}

PhaseTotals AttributeSpans(const std::vector<secmed::obs::SpanRecord>& spans) {
  PhaseTotals t;
  for (const auto& s : spans) {
    std::vector<std::string> seg;
    std::stringstream ss(s.name);
    for (std::string part; std::getline(ss, part, '/');) seg.push_back(part);
    const double ms = double(s.duration_ns) / 1e6;
    // ParallelFor worker spans ("role/phase/op/worker") nest inside
    // their loop's span; only the pool precompute is kept, as an op.
    if (seg.size() == 4 && seg[3] == "worker") {
      if (seg[2] == "pm.pool_randomizers") t.op_ms[seg[2]] += ms;
      continue;
    }
    if (seg.size() != 3) continue;
    const std::string& role = seg[0];
    const std::string& phase = seg[1];
    t.op_ms[seg[2]] += ms;
    t.op_items[seg[2]] += s.items;
    if (phase == "request" || phase == "plan") {
      t.request_ms += ms;
    } else if (role == "source1" || role == "source2") {
      t.source_ms += ms;
    } else if (role == "mediator") {
      t.mediator_ms += ms;
    } else if (role == "client") {
      t.client_ms += ms;
    }
  }
  return t;
}

namespace {

uint32_t ThreadTag() {
  static std::mutex mu;
  static std::map<std::thread::id, uint32_t> ids;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = ids.emplace(std::this_thread::get_id(),
                                    uint32_t(ids.size() + 1));
  return it->second;
}

uint64_t SteadyNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

uint64_t SpanLog::Begin(const std::string& name, uint64_t query,
                        uint64_t parent) {
  const uint64_t start = SteadyNs();
  const uint32_t tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  open_[id] = recs_.size();
  recs_.push_back({name, id, parent, query, start, start, tid});
  return id;
}

void SpanLog::End(uint64_t id) {
  const uint64_t end = SteadyNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  recs_[it->second].end_ns = end;
  open_.erase(it);
}

void SpanLog::AddProgramSpans(const std::vector<secmed::obs::SpanRecord>& spans,
                              uint64_t query, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans) {
    recs_.push_back({s.name, next_id_++, parent, query, s.start_ns,
                     s.start_ns + s.duration_ns, 1000 + s.thread_index});
  }
}

std::string SpanLog::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Rec& r : recs_) {
    if (!first) out += ",\n";
    first = false;
    out += Fmt("{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
               "\"parent\":%llu,\"query\":%llu}}",
               JsonStr(r.name).c_str(), r.tid, double(r.start_ns) / 1e3,
               double(r.end_ns - r.start_ns) / 1e3,
               static_cast<unsigned long long>(r.id),
               static_cast<unsigned long long>(r.parent),
               static_cast<unsigned long long>(r.query));
  }
  return out + "]}\n";
}

void Report::Fail(const std::string& why) {
  ++failed;
  correct = false;
  // Keep the output readable when a defect fails every query.
  if (failed <= 5) lines.push_back("FAILURE: " + why);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricList() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> l;
    for (const char* p : {"commutative", "das", "pm"}) {
      l.push_back({std::string("bigint.") + p + ".mul_calls", "count"});
      l.push_back({std::string("bigint.") + p + ".sqr_calls", "count"});
    }
    l.push_back({"bigint.exp256_us", "us"});
    l.push_back({"bigint.exp2048_us", "us"});
    for (const char* m : {"comm_exp_us", "paillier_enc_us", "paillier_dec_us",
                          "paillier_scalar_mul_us", "hybrid_encrypt_us",
                          "hybrid_decrypt_us"}) {
      l.push_back({std::string("crypto.") + m, "us"});
    }
    l.push_back({"crypto.sha256_ns_per_byte", "ns/B"});
    for (const char* p : {"commutative", "das", "pm", "auto"}) {
      for (const char* ph :
           {"request", "source", "mediator", "client", "unattributed"}) {
        l.push_back({std::string("core.") + p + "." + ph + "_ms", "ms"});
      }
    }
    for (const char* m :
         {"core.pm.evaluate_ms", "core.pm.encrypt_coeffs_ms",
          "core.pm.pool_randomizers_ms", "core.commutative.encrypt_ms",
          "core.client_decrypt_ms", "das.encrypt_relation_ms",
          "das.client_query_ms"}) {
      l.push_back({m, "ms"});
    }
    l.push_back({"das.superset_ratio", "ratio"});
    for (const char* p : {"client", "mediator", "hospital", "insurer"}) {
      l.push_back({std::string("net.") + p + ".bytes_sent_per_query", "B"});
    }
    l.push_back({"net.messages_per_query", "count"});
    l.push_back({"net.frame_send_ms_per_query", "ms"});
    l.push_back({"net.frame_wait_ms_per_query", "ms"});
    l.push_back({"net.codec_us_per_mb", "us/MB"});
    for (const char* p : {"client", "mediator", "hospital", "insurer"}) {
      l.push_back({std::string("party.") + p + ".cpu_ms_per_query", "ms"});
    }
    l.push_back({"service.cache_hit_rate", "ratio"});
    l.push_back({"service.cache_hits", "count"});
    l.push_back({"service.cache_misses", "count"});
    l.push_back({"service.misses_per_update", "count"});
    l.push_back({"service.cache_resident_mb", "MiB"});
    l.push_back({"service.queue_wait_p50_ms", "ms"});
    l.push_back({"service.queue_wait_tail_ms", "ms"});
    l.push_back({"service.exec_ms", "ms"});
    l.push_back({"service.max_queue_depth", "count"});
    l.push_back({"service.shed", "count"});
    l.push_back({"plan.explain_ms", "ms"});
    l.push_back({"plan.explain_cold_ms", "ms"});
    l.push_back({"plan.wall_error_ratio", "ratio"});
    l.push_back({"obs.overhead_pct", "%"});
    l.push_back({"setup.testbed_s", "s"});
    l.push_back({"setup.daemons_s", "s"});
    l.push_back({"setup.warmup_s", "s"});
    return l;
  }();
  return list;
}

size_t Measured::Completed() const {
  size_t ok = 0;
  for (const QueryRec& q : recs) ok += q.ok ? 1 : 0;
  return ok;
}

double Measured::Throughput() const {
  return interval_ms > 0 ? double(Completed()) / (interval_ms / 1000.0) : 0;
}

double Measured::MeanBytes() const {
  double bytes = 0;
  for (const QueryRec& q : recs) bytes += q.ok ? double(q.bytes) : 0;
  const size_t ok = Completed();
  return ok ? bytes / double(ok) : 0;
}

void ReportEndToEnd(const Measured& run, double wire_bytes, Report* r) {
  std::map<std::string, std::vector<double>> lat;
  for (const QueryRec& q : run.recs) {
    if (q.ok) lat[q.proto].push_back(q.latency_ms);
  }
  for (const char* p : {"commutative", "das", "pm", "auto"}) {
    const bool gated = std::string(p) == "commutative" ||
                       std::string(p) == "das";
    LatencyStats s = Summarize(lat[p]);
    if (gated) {
      r->E2e(std::string(p) + ".p10_ms", s.p10, "ms");
      if (s.n == 0) {
        r->correct = false;
        r->Line(std::string("INCOMPLETE: no completed ") + p + " query");
      }
    } else if (s.n == 0) {
      r->Line(std::string(p) + " latency: not run on this workload");
      continue;
    }
    std::string line =
        Fmt("%s.p10_ms %.3f ms%s   n=%zu   %s.p50_ms %.3f ms", p, s.p10,
            gated ? "" : " (not gated)", s.n, p, s.p50);
    line += s.has_tail
                ? Fmt("   %s.tail_ms %.3f ms at p%.1f (10 samples above)", p,
                      s.tail, s.tail_pct)
                : Fmt("   %s.tail_ms n/a (fewer than 11 samples)", p);
    r->Line(line);
  }
  const size_t ok = run.Completed();
  r->E2e("throughput_qps", run.Throughput(), "1/s");
  r->E2e("wire_bytes_per_query", wire_bytes, "B");
  r->E2e("cpu_ms_per_query", ok ? run.cpu_ms / double(ok) : 0, "ms");
  r->Line(Fmt("measured %.1f s, %zu queries completed",
              run.interval_ms / 1000.0, ok));
}

void ReportKernelCounts(const std::vector<QueryRec>& recs,
                        const std::vector<std::string>& protos, Report* r) {
  for (const std::string& p : protos) {
    std::vector<double> muls, sqrs;
    for (const QueryRec& q : recs) {
      if (!q.ok || q.proto != p) continue;
      muls.push_back(double(q.muls));
      sqrs.push_back(double(q.sqrs));
    }
    r->Layer("bigint." + p + ".mul_calls", Median(muls));
    r->Layer("bigint." + p + ".sqr_calls", Median(sqrs));
  }
}

void ReportMedianBreakdown(const std::vector<QueryRec>& recs,
                           const std::vector<std::string>& protos,
                           const std::string& note, Report* r) {
  for (const std::string& p : protos) {
    std::vector<const QueryRec*> of;
    for (const QueryRec& q : recs) {
      if (q.ok && q.proto == p) of.push_back(&q);
    }
    if (of.empty()) continue;
    std::sort(of.begin(), of.end(), [](const QueryRec* a, const QueryRec* b) {
      return a->latency_ms < b->latency_ms;
    });
    const QueryRec& q = *of[(of.size() - 1) / 2];
    const PhaseTotals& t = q.phases;
    const double residual = q.latency_ms - t.Sum();
    const std::string k = "core." + p + ".";
    r->Layer(k + "request_ms", t.request_ms);
    r->Layer(k + "source_ms", t.source_ms);
    r->Layer(k + "mediator_ms", t.mediator_ms);
    r->Layer(k + "client_ms", t.client_ms);
    r->Layer(k + "unattributed_ms", residual);
    r->Line(Fmt("residual %-11s median query %8.3f ms = request %.3f + "
                "source %.3f + mediator %.3f + client %.3f + unattributed "
                "%.3f (%.1f%%%s)",
                p.c_str(), q.latency_ms, t.request_ms, t.source_ms,
                t.mediator_ms, t.client_ms, residual,
                100.0 * residual / q.latency_ms, note.c_str()));
    auto op = [&](const char* name) {
      auto it = t.op_ms.find(name);
      return it == t.op_ms.end() ? 0.0 : it->second;
    };
    if (p == "pm") {
      r->Layer("core.pm.evaluate_ms", op("pm.evaluate"));
      r->Layer("core.pm.encrypt_coeffs_ms", op("pm.encrypt_coeffs"));
      r->Layer("core.pm.pool_randomizers_ms", op("pm.pool_randomizers"));
    } else if (p == "commutative") {
      r->Layer("core.commutative.encrypt_ms",
               op("comm.deliver") + op("comm.double_encrypt"));
    } else if (p == "das") {
      r->Layer("das.encrypt_relation_ms", op("das.encrypt_relation"));
      r->Layer("das.client_query_ms",
               op("das.translate") + op("das.apply_client_query"));
      auto items = t.op_items.find("das.apply_client_query");
      if (q.rows > 0 && items != t.op_items.end()) {
        r->Layer("das.superset_ratio", double(items->second) / double(q.rows));
      }
    }
  }
  double decrypt = 0, ok = 0;
  for (const QueryRec& q : recs) {
    if (!q.ok) continue;
    ok += 1;
    auto it = q.phases.op_ms.find("decrypt");
    if (it != q.phases.op_ms.end()) decrypt += it->second;
  }
  if (ok > 0) r->Layer("core.client_decrypt_ms", decrypt / ok);
}

std::string Fmt(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu h;
  double v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

namespace {

// A fixed amount of integer work with no allocation (safe in a forked
// child of any process).
void SpinWork() {
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < 30'000'000ull; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
}

double TimeChildren(int n) {
  const double start = NowMs();
  std::vector<pid_t> pids;
  for (int i = 0; i < n; ++i) {
    pid_t pid = fork();
    if (pid == 0) {
      SpinWork();
      _exit(0);
    }
    if (pid > 0) pids.push_back(pid);
  }
  for (pid_t pid : pids) waitpid(pid, nullptr, 0);
  return NowMs() - start;
}

}  // namespace

double EffectiveParallelism(int procs) {
  // Idle virtual CPUs can take most of a second of load to come back, so
  // a second of rounds only wakes them; the median of three follows.
  for (const double start = NowMs(); NowMs() - start < 1000.0;) {
    TimeChildren(procs);
  }
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const double one = TimeChildren(1);
    const double many = TimeChildren(procs);
    ratios.push_back(many > 0 ? procs * one / many : 0);
  }
  return Median(ratios);
}

}  // namespace perfbench
