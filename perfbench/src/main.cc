// perfbench — the repository benchmark driver.
//
//   perfbench --workload cold-mix|warm-service|tcp-deploy --seed N
//             --seconds S --trace 0|1 --secmedd PATH --out-dir DIR
//             [--perturb-reference]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced (--trace 0), the per-layer metrics traced (--trace 1).
// perfbench/run.py builds this program and is the entry point.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-mix|warm-service|tcp-deploy "
               "--seed N --seconds S --trace 0|1 --secmedd PATH --out-dir DIR "
               "[--perturb-reference]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      a->perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (flag == "--secmedd") {
      a->secmedd = v;
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
#if !defined(__OPTIMIZE__)
  // Same rule as bench/bench_env.h: numbers from an unoptimized build are
  // meaningless, so none are recorded.
  std::fprintf(stderr, "perfbench: refusing to run an unoptimized build\n");
  return 3;
#endif

  const double load_start = LoadAverage();
  const HostCpu host_start = ReadHostCpu();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  Report r;
  if (args.workload == "cold-mix") {
    r = RunColdMix(args);
  } else if (args.workload == "warm-service") {
    r = RunWarmService(args);
  } else if (args.workload == "tcp-deploy") {
    if (args.secmedd.empty()) return Usage();
    r = RunTcpDeploy(args);
  } else {
    return Usage();
  }

  // After the workload, so the probe cannot disturb the measurement.
  const double load_end = LoadAverage();
  const HostCpu host_end = ReadHostCpu();
  const double host_ticks = host_end.total - host_start.total;
  const double effective = EffectiveParallelism(int(nproc));
  std::printf("== %s seed %llu, %.0f s, %s%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "untraced",
              args.perturb_reference ? ", perturbed reference" : "");
  std::printf("host: nproc %ld, effective parallelism %.2f (%ld-process CPU "
              "probe), load %.2f at start, %.2f at end, steal %.1f%% of CPU "
              "time during the workload\n",
              nproc, effective, nproc, load_start, load_end,
              host_ticks > 0
                  ? 100.0 * (host_end.steal - host_start.steal) / host_ticks
                  : 0.0);
  std::printf("build: %s, CMake build type %s, optimized\n", __VERSION__,
              SECMED_CMAKE_BUILD_TYPE);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  std::printf("error_rate: %.6f (%llu failed of %llu attempted: errors, "
              "shed, timeouts and digest mismatches)\n",
              r.attempted ? double(r.failed) / double(r.attempted) : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  std::string metrics;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += Fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   name.c_str(), v, unit.c_str());
  };
  if (!args.trace) {
    for (const auto& [name, m] : r.e2e) {
      std::printf("%-24s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
      add(name, m.value, m.unit);
    }
  } else {
    for (const auto& [name, unit] : LayerMetricList()) {
      auto it = r.layer.find(name);
      std::string note;
      for (const auto& [prefix, why] : r.not_applicable) {
        if (name.rfind(prefix, 0) == 0) note = "n/a: " + why;
      }
      if (it == r.layer.end() && note.empty()) note = "not measured";
      const double v = it == r.layer.end() ? 0.0 : it->second.value;
      std::printf("%-36s %14.4f %-6s %s\n", name.c_str(), v, unit.c_str(),
                  note.c_str());
      add(name, v, unit);
    }
  }
  if (r.attempted == 0) r.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
