#include "inproc.h"

#include <algorithm>

#include "util/serialize.h"

namespace perfbench {

using secmed::Bytes;

secmed::QueryService::Query MakeQuery(const std::string& proto,
                                      const std::string& sql) {
  secmed::QueryService::Query q;  // 4 DAS partitions, 256-bit group
  q.protocol = proto;
  q.sql = sql;
  return q;  // empty leakage policy for "auto"
}

void CheckOutcome(const secmed::QueryOutcome& out, const Bytes& reference,
                  QueryRec* rec, Report* r) {
  rec->exec_ms = out.latency_ms;
  rec->bytes = out.bytes;
  rec->messages = out.messages;
  rec->rows = out.result.size();
  if (out.plan != nullptr && out.latency_ms > 0 &&
      out.plan->chosen.total_wall_ms > 0) {
    // Symmetric error: max(predicted/measured, measured/predicted) >= 1.
    const double ratio = out.plan->chosen.total_wall_ms / out.latency_ms;
    rec->plan_ratio = std::max(ratio, 1.0 / ratio);
  }
  if (!out.status.ok()) {
    r->Fail(rec->proto + " session " + std::to_string(out.session_id) +
            ": " + out.status.ToString());
  } else if (out.result_digest != reference) {
    r->Fail(rec->proto + " session " + std::to_string(out.session_id) +
            ": result digest differs from the plaintext reference join");
  } else {
    rec->ok = true;
  }
  for (const secmed::Message& m : DecodeTranscript(out.transcript)) {
    rec->sent[m.from] += double(m.payload.size());
  }
}

std::vector<secmed::Message> DecodeTranscript(
    const std::vector<Bytes>& transcript) {
  std::vector<secmed::Message> msgs;
  for (const Bytes& raw : transcript) {
    secmed::BinaryReader rd(raw);
    secmed::Message m;
    auto from = rd.ReadString();
    auto to = rd.ReadString();
    auto type = rd.ReadString();
    auto payload = rd.ReadBytes();
    if (!from.ok() || !to.ok() || !type.ok() || !payload.ok()) continue;
    m.from = *from;
    m.to = *to;
    m.type = *type;
    m.payload = *payload;
    msgs.push_back(std::move(m));
  }
  return msgs;
}

void ReportInProcessLayers(const std::vector<QueryRec>& traced, Report* r) {
  size_t n = 0;
  double messages = 0;
  std::map<std::string, double> sent;
  std::vector<double> ratios, waits, execs;
  for (const QueryRec& q : traced) {
    if (!q.ok) continue;
    ++n;
    messages += double(q.messages);
    for (const auto& [party, b] : q.sent) sent[party] += b;
    if (q.proto == "auto") ratios.push_back(q.plan_ratio);
    waits.push_back(q.latency_ms - q.exec_ms);
    execs.push_back(q.exec_ms);
  }
  if (n == 0) return;
  for (const char* p : kParties) {
    r->Layer(std::string("net.") + p + ".bytes_sent_per_query",
             sent[p] / double(n));
  }
  r->Layer("net.messages_per_query", messages / double(n));
  r->Layer("plan.wall_error_ratio", Median(ratios));
  LatencyStats w = Summarize(waits);
  r->Layer("service.queue_wait_p50_ms", w.p50);
  r->Layer("service.queue_wait_tail_ms", w.tail);
  r->Line(Fmt("service.queue_wait: p50 %.3f ms, tail %.3f ms at p%.1f, n=%zu",
              w.p50, w.tail, w.tail_pct, w.n));
  r->Layer("service.exec_ms", Median(execs));
  r->Na("net.frame_", "no frames in process (bus)");
  r->Na("party.", "all parties share one process in process");
}

}  // namespace perfbench
