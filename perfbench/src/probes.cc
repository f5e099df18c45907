#include "probes.h"

#include "bigint/modular.h"
#include "crypto/drbg.h"
#include "inproc.h"
#include "net/wire.h"
#include "plan/calibrate.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using secmed::BigInt;
using secmed::QueryService;

/// Median wall time of `reps` calls of `fn`, in microseconds.
template <typename Fn>
double MedianUs(int reps, Fn fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowMs();
    fn();
    us.push_back((NowMs() - t0) * 1000.0);
  }
  return Median(us);
}

/// One full-width modular exponentiation at `bits` (odd modulus).
double ExpProbeUs(size_t bits, int reps, secmed::RandomSource* rng) {
  BigInt m = BigInt::RandomWithBits(bits, rng);
  if (!m.is_odd()) m = m + BigInt(uint64_t(1));
  auto ctx = secmed::MontgomeryContext::Create(m);
  if (!ctx.ok()) return 0;
  const BigInt base = BigInt::RandomBelow(m, rng);
  const BigInt exp = BigInt::RandomWithBits(bits, rng);
  BigInt sink;
  double us = MedianUs(reps, [&] { sink = ctx->Exp(base, exp); });
  return sink.is_zero() ? 0 : us;
}

}  // namespace

void RunLayerProbes(secmed::MediationTestbed* tb, Report* r) {
  secmed::HmacDrbg rng(secmed::ToBytes("perfbench-probes"));
  r->Layer("bigint.exp256_us", ExpProbeUs(256, 301, &rng));
  r->Layer("bigint.exp2048_us", ExpProbeUs(2048, 21, &rng));

  secmed::plan::CalibrateOptions copt;
  copt.group_bits = 256;  // the commutative group of every workload
  auto profile = secmed::plan::RunCalibration(copt);
  if (profile.ok()) {
    r->Layer("crypto.comm_exp_us", profile->commutative_exp_us);
    r->Layer("crypto.paillier_enc_us", profile->paillier_encrypt_us);
    r->Layer("crypto.paillier_dec_us", profile->paillier_decrypt_us);
    r->Layer("crypto.paillier_scalar_mul_us", profile->paillier_scalar_mul_us);
    r->Layer("crypto.hybrid_encrypt_us", profile->hybrid_encrypt_us);
    r->Layer("crypto.hybrid_decrypt_us", profile->hybrid_decrypt_us);
    r->Layer("crypto.sha256_ns_per_byte", profile->sha256_byte_ns);
  } else {
    r->Line("crypto probes: " + profile.status().ToString());
  }

  // Codec: frame and unframe a recorded commutative + DAS transcript.
  {
    QueryService::Options opt;
    opt.record_transcripts = true;
    QueryService svc(tb, opt);
    std::vector<secmed::Message> msgs;
    for (const char* p : {"commutative", "das"}) {
      auto out = svc.Run(MakeQuery(p, tb->JoinSql()));
      if (!out.ok()) continue;
      for (auto& m : DecodeTranscript(out->transcript)) msgs.push_back(m);
    }
    double bytes = 0;
    for (const auto& m : msgs) bytes += double(m.WireSize());
    const int reps = 9;
    std::vector<double> us_per_mb;
    for (int i = 0; i < reps; ++i) {
      const double t0 = NowMs();
      size_t decoded = 0;
      for (const auto& m : msgs) {
        auto frame = secmed::DecodeFrame(secmed::EncodeFrame(1, m));
        decoded += frame.ok() ? 1 : 0;
      }
      const double us = (NowMs() - t0) * 1000.0;
      if (decoded != msgs.size()) r->Fail("codec probe: frame did not decode");
      if (bytes > 0) us_per_mb.push_back(us / (bytes / (1 << 20)));
    }
    r->Layer("net.codec_us_per_mb", Median(us_per_mb));
  }

  // EXPLAIN: cold on a fresh service (statistics collected), then with
  // the statistics already in that service's cache.
  const QueryService::Query query = MakeQuery("auto", tb->JoinSql());
  std::vector<double> cold, cached;
  for (int i = 0; i < 3; ++i) {
    QueryService svc(tb, QueryService::Options());
    double t0 = NowMs();
    auto plan = svc.Explain(query);
    cold.push_back(NowMs() - t0);
    if (!plan.ok()) r->Fail("explain: " + plan.status().ToString());
    for (int j = 0; j < 3; ++j) {
      t0 = NowMs();
      (void)svc.Explain(query);
      cached.push_back(NowMs() - t0);
    }
  }
  r->Layer("plan.explain_cold_ms", Median(cold));
  r->Layer("plan.explain_ms", Median(cached));
}

}  // namespace perfbench
