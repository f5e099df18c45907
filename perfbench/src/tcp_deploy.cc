// tcp-deploy: the four-process loopback deployment. secmedd daemons for
// the mediator, hospital and insurer are started for each run; the
// client party runs in this process through core/remote.h. One session
// is in flight at a time and sessions alternate commutative and das
// (pm takes seconds per session under replicated execution; auto is
// resolved to a fixed protocol before a deployment runs it).
//
// All sessions of a run come from this one driver, against daemons
// started for the run: a second driver against the same daemons
// restarts session ids at 1 and fails (see perfbench/README.md).

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "bigint/mont_kernel.h"
#include "common.h"
#include "core/remote.h"
#include "inproc.h"
#include "net/tcp.h"
#include "obs/report.h"
#include "obs/scope.h"
#include "probes.h"

namespace perfbench {
namespace {

using secmed::Endpoint;
using secmed::PeerHost;
using secmed::RunReport;
using secmed::RunSpec;

constexpr int kTimeoutMs = 30000;
const char* const kDaemons[] = {"mediator", "hospital", "insurer"};

bool LogHas(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str().find(needle) != std::string::npos;
}

/// The three daemons and the client's PeerHost of one deployment. The
/// destructor shuts the daemons down and reaps them.
class Deployment {
 public:
  Deployment(const Args& args, uint64_t workload_seed, bool telemetry,
             int index, Report* r)
      : r_(r) {
    auto host = PeerHost::Listen(0);
    if (!host.ok()) {
      r->Fail("listen: " + host.status().ToString());
      return;
    }
    host_ = std::move(host).value();
    reply_to_ = "127.0.0.1:" + std::to_string(host_->port());
    deployment_.local_parties = {"client"};
    deployment_.directory["client"] = Endpoint{"127.0.0.1", host_->port()};
    deployment_.timeout_ms = kTimeoutMs;
    {
      // Ephemeral ports for the daemons, released just before they bind.
      std::vector<secmed::TcpListener> probes;
      for (const char* party : kDaemons) {
        auto l = secmed::TcpListener::Listen(0);
        if (!l.ok()) {
          r->Fail("port: " + l.status().ToString());
          return;
        }
        deployment_.directory[party] = Endpoint{"127.0.0.1", l->port()};
        probes.push_back(std::move(l).value());
      }
    }
    for (const char* party : kDaemons) {
      const std::string log = args.out_dir + "/" + args.workload + "-" +
                              std::to_string(index) + "-" + party + ".log";
      std::vector<std::string> argv = {
          args.secmedd, "--listen",
          std::to_string(deployment_.directory[party].port), "--host-party",
          party};
      for (const auto& [peer, ep] : deployment_.directory) {
        argv.push_back("--peer");
        argv.push_back(peer + "=" + ep.ToString());
      }
      const secmed::WorkloadConfig w = Paper100(workload_seed);
      for (const auto& [flag, v] :
           std::vector<std::pair<std::string, size_t>>{
               {"--r1-tuples", w.r1_tuples},
               {"--r2-tuples", w.r2_tuples},
               {"--r1-domain", w.r1_domain},
               {"--r2-domain", w.r2_domain},
               {"--common-values", w.common_values},
               {"--workload-seed", size_t(w.seed)}}) {
        argv.push_back(flag);
        argv.push_back(std::to_string(v));
      }
      if (!telemetry) argv.push_back("--no-telemetry");
      const pid_t pid = Spawn(argv, log);
      if (pid <= 0) {
        r->Fail(std::string("cannot start secmedd for ") + party);
        return;
      }
      daemons_.push_back({party, pid, log});
    }
  }

  ~Deployment() { Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Waits until every daemon logged its start event, then opens the
  /// control connections both ways with one ctl_stats exchange each.
  bool WaitReady() {
    if (host_ == nullptr || daemons_.size() != 3) return false;
    const double deadline = NowMs() + 60000;
    for (const Daemon& d : daemons_) {
      while (!LogHas(d.log, "\"event\":\"daemon.start\"")) {
        if (NowMs() > deadline || waitpid(d.pid, nullptr, WNOHANG) != 0) {
          r_->Fail("secmedd " + d.party + " did not come up; see " + d.log);
          return false;
        }
        usleep(5000);
      }
    }
    for (const Daemon& d : daemons_) {
      secmed::Status st = secmed::SendCtl(
          host_.get(), deployment_.directory[d.party], "client-driver",
          secmed::kCtlStats, secmed::ToBytes(reply_to_), kTimeoutMs);
      if (!st.ok()) {
        r_->Fail("ctl_stats to " + d.party + ": " + st.ToString());
        return false;
      }
    }
    for (size_t got = 0; got < daemons_.size();) {
      auto ctl = host_->WaitCtl(kTimeoutMs);
      if (!ctl.ok()) {
        r_->Fail("waiting for ctl_stats: " + ctl.status().ToString());
        return false;
      }
      if (ctl->type == secmed::kCtlStats) ++got;
    }
    return true;
  }

  /// Announces `spec` to every daemon.
  bool Announce(const RunSpec& spec) {
    for (const Daemon& d : daemons_) {
      secmed::Status st =
          secmed::SendCtl(host_.get(), deployment_.directory[d.party],
                          "client-driver", secmed::kCtlRun, spec.Encode(),
                          kTimeoutMs);
      if (!st.ok()) {
        r_->Fail("announcing session " + std::to_string(spec.session) +
                 " to " + d.party + ": " + st.ToString());
        return false;
      }
    }
    return true;
  }

  /// Collects every daemon's report of `session`. Returns why the
  /// session failed at a daemon or disagrees with this process's own
  /// report, or "" when all three agree.
  std::string CollectReports(uint32_t session, const RunReport& own) {
    std::string why;
    for (size_t got = 0; got < daemons_.size();) {
      auto ctl = host_->WaitCtl(kTimeoutMs);
      if (!ctl.ok()) return "waiting for reports: " + ctl.status().ToString();
      if (ctl->type == secmed::kCtlPeerDown) {
        return std::string(ctl->payload.begin(), ctl->payload.end());
      }
      if (ctl->type != secmed::kCtlReport) continue;
      auto rep = RunReport::Decode(ctl->payload);
      if (!rep.ok() || rep->session != session) {
        if (why.empty()) why = "stray report";
        continue;
      }
      ++got;
      if (!why.empty()) continue;
      if (!rep->ok) {
        why = "failed at [" + rep->party_set + "]: " + rep->error;
      } else if (own.ok && (rep->result_digest != own.result_digest ||
                            rep->messages != own.messages ||
                            rep->total_bytes != own.total_bytes)) {
        why = "[" + rep->party_set + "] disagrees with the client";
      }
    }
    return why;
  }

  /// Fetches every daemon's Chrome trace over ctl_trace.
  std::vector<std::string> DaemonTraces() {
    std::vector<std::string> lanes;
    for (const Daemon& d : daemons_) {
      (void)secmed::SendCtl(host_.get(), deployment_.directory[d.party],
                            "client-driver", secmed::kCtlTrace,
                            secmed::ToBytes(reply_to_), kTimeoutMs);
    }
    for (size_t spins = 0; lanes.size() < daemons_.size() && spins < 12;
         ++spins) {
      auto ctl = host_->WaitCtl(kTimeoutMs);
      if (!ctl.ok()) break;
      if (ctl->type != secmed::kCtlTrace) continue;
      lanes.emplace_back(ctl->payload.begin(), ctl->payload.end());
    }
    return lanes;
  }

  /// CPU (ms) of each daemon so far, by party.
  std::map<std::string, double> DaemonCpuMs() const {
    std::map<std::string, double> cpu;
    for (const Daemon& d : daemons_) cpu[d.party] = ProcessCpuMs(d.pid);
    return cpu;
  }

  double DaemonPeakRssMb() const {
    double mb = 0;
    for (const Daemon& d : daemons_) mb += PeakRssMb(d.pid);
    return mb;
  }

  PeerHost* host() { return host_.get(); }
  const secmed::Deployment& deployment() const { return deployment_; }
  const std::string& reply_to() const { return reply_to_; }

  void Stop() {
    for (const Daemon& d : daemons_) {
      if (host_ != nullptr) {
        (void)secmed::SendCtl(host_.get(), deployment_.directory[d.party],
                              "client-driver", secmed::kCtlShutdown,
                              secmed::Bytes(), 2000);
      }
    }
    const double deadline = NowMs() + 15000;
    for (const Daemon& d : daemons_) {
      while (waitpid(d.pid, nullptr, WNOHANG) == 0) {
        if (NowMs() > deadline) {
          kill(d.pid, SIGKILL);
          waitpid(d.pid, nullptr, 0);
          break;
        }
        usleep(5000);
      }
    }
    daemons_.clear();
    if (host_ != nullptr) host_->Stop();
  }

 private:
  struct Daemon {
    std::string party;
    pid_t pid;
    std::string log;
  };

  static pid_t Spawn(const std::vector<std::string>& argv,
                     const std::string& log) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return -1;
    const pid_t pid = fork();
    if (pid == 0) {
      // The daemons must not outlive the benchmark.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      execv(cargv[0], cargv.data());
      _exit(127);
    }
    close(fd);
    return pid;
  }

  Report* r_;
  std::unique_ptr<PeerHost> host_;
  std::string reply_to_;
  secmed::Deployment deployment_;
  std::vector<Daemon> daemons_;
};

struct TcpRun : Measured {
  std::map<std::string, double> party_cpu_ms;
};

double HistogramSumMs(const secmed::obs::Scope& scope, const char* name) {
  for (const auto& h : scope.metrics().Histograms()) {
    if (h.name == name) return double(h.sum) / 1e6;
  }
  return 0;
}

/// Runs commutative/das pairs on `dep` for `seconds`, adding to `run`.
void Measure(Deployment* dep, secmed::MediationTestbed* tb,
             const secmed::Bytes& reference, double seconds, bool traced,
             SpanLog* spans, uint64_t* qid, Report* r, TcpRun* run) {
  const auto cpu0 = dep->DaemonCpuMs();
  const double self0 = SelfCpuMs();
  const double t_start = NowMs();
  uint32_t next = 1;
  while (NowMs() - t_start < seconds * 1000.0) {
    for (const char* proto : {"commutative", "das"}) {
      RunSpec spec;  // 4 DAS partitions, 256-bit group, 1 thread
      spec.session = next++;
      spec.protocol = proto;
      spec.query = tb->JoinSql();
      spec.rng_label = tb->options().seed_label;
      spec.reply_to = dep->reply_to();
      std::unique_ptr<secmed::obs::Scope> scope;
      if (traced) scope = std::make_unique<secmed::obs::Scope>();

      QueryRec s;
      s.proto = proto;
      const uint64_t id = ++*qid;
      const uint64_t span =
          spans->Begin(std::string("session.") + proto, id, 0);
      ++r->attempted;
      const auto k0 = secmed::montk::ReadKernelCounters();
      const double t0 = NowMs();
      if (!dep->Announce(spec)) return;
      secmed::Relation result;
      RunReport own = secmed::RunReplicatedSession(
          tb, dep->host(), dep->deployment(), spec, &result, scope.get());
      s.latency_ms = NowMs() - t0;
      const auto k1 = secmed::montk::ReadKernelCounters();
      const std::string daemons = dep->CollectReports(spec.session, own);
      spans->End(span);
      const std::string name =
          std::string(proto) + " session " + std::to_string(spec.session);
      if (!own.ok) {
        r->Fail(name + ": " + own.error);
      } else if (!daemons.empty()) {
        r->Fail(name + ": " + daemons);
      } else if (CanonicalDigest(result) != reference) {
        r->Fail(name + ": result digest differs from the plaintext reference "
                "join");
      } else {
        s.ok = true;
      }
      s.bytes = own.total_bytes;
      s.messages = own.messages;
      s.rows = result.size();
      s.muls = k1.muls - k0.muls;
      s.sqrs = k1.sqrs - k0.sqrs;
      for (const auto& [party, st] : own.stats) s.sent[party] = st.bytes_sent;
      if (scope != nullptr) {
        auto snap = scope->tracer().Snapshot();
        s.phases = AttributeSpans(snap);
        spans->AddProgramSpans(snap, id, span);
        s.frame_send_ms = HistogramSumMs(*scope, "net.frame_send_ns");
        s.frame_wait_ms = HistogramSumMs(*scope, "net.frame_wait_ns");
      }
      run->recs.push_back(std::move(s));
    }
  }
  run->interval_ms += NowMs() - t_start;
  const double self = SelfCpuMs() - self0;
  run->cpu_ms += self;
  run->party_cpu_ms["client"] += self;
  for (const auto& [party, ms] : dep->DaemonCpuMs()) {
    run->party_cpu_ms[party] += ms - cpu0.at(party);
    run->cpu_ms += ms - cpu0.at(party);
  }
}

void ReportLayers(const TcpRun& run, Report* r) {
  const size_t ok = run.Completed();
  if (ok == 0) return;
  for (const auto& [party, ms] : run.party_cpu_ms) {
    r->Layer("party." + party + ".cpu_ms_per_query", ms / double(ok));
  }
  std::map<std::string, double> sent;
  double messages = 0, send_ms = 0, wait_ms = 0;
  for (const QueryRec& s : run.recs) {
    if (!s.ok) continue;
    for (const auto& [party, b] : s.sent) sent[party] += b;
    messages += double(s.messages);
    send_ms += s.frame_send_ms;
    wait_ms += s.frame_wait_ms;
  }
  for (const char* p : kParties) {
    r->Layer(std::string("net.") + p + ".bytes_sent_per_query",
             sent[p] / double(ok));
  }
  r->Layer("net.messages_per_query", messages / double(ok));
  r->Layer("net.frame_send_ms_per_query", send_ms / double(ok));
  r->Layer("net.frame_wait_ms_per_query", wait_ms / double(ok));
  ReportKernelCounts(run.recs, {"commutative", "das"}, r);
  ReportMedianBreakdown(run.recs, {"commutative", "das"},
                        "; the client process replicates every party", r);
  r->Na("bigint.pm.", "no pm sessions on tcp-deploy");
  r->Na("core.pm.", "no pm sessions on tcp-deploy");
  r->Na("core.auto.", "no auto sessions on tcp-deploy");
  r->Na("service.", "the daemons' schedulers and caches are not observed");
  r->Na("plan.wall_error_ratio", "no auto sessions on tcp-deploy");
  r->Na("setup.warmup_s", "tcp-deploy keeps no warm cache");
}

}  // namespace

Report RunTcpDeploy(const Args& args) {
  Report r;
  SpanLog spans;

  // Set-up: the daemons start (each generates its keys) while this
  // process builds the client's testbed; ready when every control
  // connection is open. setup.daemons_s is spawn to ready.
  std::unique_ptr<secmed::MediationTestbed> tb;
  std::vector<double> setup_s, testbed_s;
  int index = 0;
  auto start = [&](bool telemetry,
                   uint64_t workload_seed) -> std::unique_ptr<Deployment> {
    tb.reset();
    const uint64_t span = spans.Begin("deployment.start", 0, 0);
    const double t0 = NowMs();
    auto dep = std::make_unique<Deployment>(args, workload_seed, telemetry,
                                            ++index, &r);
    const double t1 = NowMs();
    auto created = secmed::MediationTestbed::Create(
        secmed::GenerateWorkload(Paper100(workload_seed)));
    testbed_s.push_back((NowMs() - t1) / 1000.0);
    if (!created.ok()) {
      r.Fail("testbed: " + created.status().ToString());
      return nullptr;
    }
    tb = std::move(created).value();
    if (!dep->WaitReady()) return nullptr;
    spans.End(span);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    return dep;
  };

  // Every instance runs on daemons started for it, for an equal share of
  // the time; a run's set-ups are these start-ups.
  double daemon_rss_mb = 0;
  uint64_t qid = 0;
  // Mean bytes per session of each instance; the run's wire_bytes_per_query
  // weighs the instances equally, so it repeats exactly for a seed however
  // many pairs each deployment's share of the time holds.
  std::vector<double> instance_bytes;
  std::vector<std::string> daemon_traces;
  auto measure = [&](double seconds, bool traced, TcpRun* run) -> bool {
    for (int j = 0; j < kInstances; ++j) {
      auto dep = start(traced, InstanceSeed(args.seed, j));
      if (dep == nullptr) return false;
      const secmed::Bytes reference =
          GateDigest(tb->ExpectedJoin(), args.perturb_reference);
      const size_t first = run->recs.size();
      Measure(dep.get(), tb.get(), reference, seconds / kInstances, traced,
              &spans, &qid, &r, run);
      double bytes = 0, n = 0;
      for (size_t i = first; i < run->recs.size(); ++i) {
        if (!run->recs[i].ok) continue;
        bytes += double(run->recs[i].bytes);
        n += 1;
      }
      instance_bytes.push_back(n > 0 ? bytes / n : 0);
      daemon_rss_mb = std::max(daemon_rss_mb, dep->DaemonPeakRssMb());
      if (traced) {
        for (std::string& lane : dep->DaemonTraces()) {
          daemon_traces.push_back(std::move(lane));
        }
      }
    }
    return true;
  };

  if (!args.trace) {
    TcpRun run;
    if (!measure(args.seconds, false, &run)) return r;
    double bytes = 0;
    for (double b : instance_bytes) bytes += b / double(instance_bytes.size());
    ReportEndToEnd(run, bytes, &r);
    r.E2e("setup_s", Median(setup_s), "s");
    r.E2e("peak_rss_mb", daemon_rss_mb + PeakRssMb(getpid()), "MiB");
    return r;
  }

  // Traced: every instance untraced, then again on daemons with their
  // telemetry plane on and a per-session scope in this process.
  TcpRun plain, traced;
  if (!measure(args.seconds / 2, false, &plain)) return r;
  if (!measure(args.seconds / 2, true, &traced)) return r;
  ReportLayers(traced, &r);
  const double qps_plain = plain.Throughput();
  const double qps_traced = traced.Throughput();
  r.Layer("obs.overhead_pct",
          qps_traced > 0 ? 100.0 * (qps_plain / qps_traced - 1.0) : 0);
  r.Line(Fmt("obs.overhead: untraced %.2f q/s vs traced %.2f q/s",
             qps_plain, qps_traced));
  r.Layer("setup.testbed_s", Median(testbed_s));
  r.Layer("setup.daemons_s", Median(setup_s));

  // One Perfetto view: the benchmark's lane plus one lane per daemon.
  std::vector<std::string> lanes = {spans.Render()};
  for (std::string& lane : daemon_traces) lanes.push_back(std::move(lane));
  std::string merged, error;
  if (secmed::obs::MergeChromeTraces(lanes, &merged, &error)) {
    WriteTrace(args, merged, &r);
  } else {
    r.Line("trace merge: " + error);
    WriteTrace(args, lanes.front(), &r);
  }
  RunLayerProbes(tb.get(), &r);
  return r;
}

}  // namespace perfbench
