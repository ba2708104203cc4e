// perfbench: one workload, one run.
//
//   perfbench --workload <e2_rules|dba_mix|deferred_fanin> --seed <n>
//             --seconds <s> --trace <0|1> [--span-out <file.csv>]
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a separate traced phase. Diagnostics go
// to stderr; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// "correct" says whether every check passed. The exit code is 0 whenever
// that line was printed, and non-zero when no result could be produced.
#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-out <file>]\n",
               argv0);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// Re-executes the binary once with address-space randomization off. With
/// it on, where the heap and thread arenas land moved e2_rules throughput
/// by up to 25% between otherwise identical runs (README.md, "Noise").
/// Falls through, keeping randomization, when the kernel refuses.
void DisableAslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
      -1) {
    return;
  }
  execv("/proc/self/exe", argv);
}

}  // namespace

int main(int argc, char** argv) {
  DisableAslr(argv);
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (flag == "--span-out") {
      options.span_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload) return Usage(argv[0]);

  const perfbench::RunReport report = perfbench::RunBenchmark(options);
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  if (report.metrics.empty()) return 1;  // never started: no result line
  std::printf("BENCH_INFO %s\n", report.info.c_str());
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
