// Runs one workload: set-up (repeated, median reported), warm-up, a timed
// closed-loop phase with every session on its own thread, and the exact
// fidelity checks. The traced mode adds a second phase behind HookTracer and
// reads the monitor's own cost through its SQL views.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/session.h"
#include "hook_tracer.h"
#include "ledger.h"
#include "sqlcm/monitor_engine.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Traced run only: CSV file for the recorded spans ("" = keep in memory).
  std::string span_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;  // statements sent after the rules were installed
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::string info;  // JSON object: host, build, seed and statement counts
};

RunReport RunBenchmark(const RunOptions& options);

/// One set-up database: data, monitor, rules, sessions and the ledger of
/// everything the sessions have sent since the rules were installed.
struct Instance {
  ~Instance();

  std::unique_ptr<sqlcm::engine::Database> db;
  std::unique_ptr<sqlcm::cm::MonitorEngine> monitor;
  std::vector<std::unique_ptr<sqlcm::engine::Session>> sessions;
  /// Representative compiles and system-view reads; sends no workload.
  std::unique_ptr<sqlcm::engine::Session> dba;
  std::vector<sqlcm::common::Random> rngs;
  std::vector<SessionProbes> session_probes;
  std::vector<TemplateProbes> template_probes;
  std::unique_ptr<Ledger> ledger;

  double load_s = 0;
  double rule_ddl_ms = 0;
  double setup_s = 0;  // load + rule DDL + warm-up
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

/// Builds an instance and warms it up. `dba_spans` (may be null) records
/// the DefineLat/AddRule calls.
std::unique_ptr<Instance> SetUp(Workload* workload, size_t sessions,
                                uint64_t seed, HookTracer* dba_spans,
                                std::string* error);

struct PhaseResult {
  double wall_s = 0;
  uint64_t statements = 0;
  uint64_t failed = 0;
  int64_t drain_ns = 0;  // DrainEventQueue at the end of the phase
  std::vector<int64_t> latency_ns;  // one per Session::Execute call
};

/// Runs every session's closed loop on its own thread: `units` steps each
/// when > 0, otherwise until `seconds` have passed. Deferred work is
/// drained before the phase's clock stops. With a tracer, each Execute call
/// is a statement span.
PhaseResult RunPhase(Instance* inst, const Workload& workload, uint64_t units,
                     double seconds, HookTracer* tracer);

/// Engine-wide fidelity checks (nothing sampled, dropped, shed, failed or
/// suppressed) plus the workload's own exact checks.
void CheckInstance(const Workload& workload, Instance* inst,
                   std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
