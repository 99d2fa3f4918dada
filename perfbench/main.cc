// perfbench: the repository's benchmark program.
//
//   perfbench --workload table2|corpus_grid|service_mixed --seed N
//             --seconds S --trace 0|1 [--smoke] [--data-dir DIR]
//             [--socket-dir DIR] [--commit SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and forwards the same arguments to it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "bench/bench_env.h"
#include "src/obs/json.h"

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2|corpus_grid|service_mixed --seed N --seconds S "
               "--trace 0|1 [--smoke] [--data-dir DIR] [--socket-dir DIR] "
               "[--commit SHA]\n",
               why);
  return 2;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--socket-dir") {
      options.socket_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  sbce::obs::JsonValue env = sbce::obs::JsonValue::Object();
  sbce::bench::StampEnv(env);
  env.Set("commit", sbce::obs::JsonValue::Str(options.commit));
  env.Set("workload", sbce::obs::JsonValue::Str(options.workload));
  env.Set("seed", sbce::obs::JsonValue::U64(options.seed));
  env.Set("seconds", sbce::obs::JsonValue::Double(options.seconds));
  env.Set("trace", sbce::obs::JsonValue::Bool(options.trace));
  env.Set("smoke", sbce::obs::JsonValue::Bool(options.smoke));
  std::printf("env %s\n", sbce::obs::Dump(env).c_str());

  Report report;
  bool ok;
  if (options.workload == "table2") {
    ok = RunTableTwo(options, &report);
  } else if (options.workload == "corpus_grid") {
    ok = RunCorpusGrid(options, &report);
  } else if (options.workload == "service_mixed") {
    ok = RunServiceMixed(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!ok || report.attempted == 0) {
    std::fprintf(stderr, "perfbench: workload %s could not run\n",
                 options.workload.c_str());
    return 1;
  }

  const double failed_frac = static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted);
  std::printf("failed_frac = %s ratio (%llu of %llu checked outcomes)\n",
              Number(failed_frac).c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::string metrics;
  for (const Metric& m : report.metrics) {
    std::printf("%s = %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
