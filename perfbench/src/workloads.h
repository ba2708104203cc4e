// The benchmark's three workloads. Each names its data, its sessions, the
// statement templates it sends, the LATs and rules it installs, the client
// work one session does per step, and the exact checks a run must pass.
// README.md in this directory explains why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "exec/expression.h"
#include "ledger.h"
#include "sqlcm/monitor_engine.h"
#include "workload/tpch_gen.h"

namespace perfbench {

class HookTracer;

/// One statement to send. `tmpl` indexes Workload::templates(), or is -1 for
/// BEGIN/COMMIT, which raise no Query events.
struct Stmt {
  std::string sql;
  sqlcm::exec::ParamMap params;
  int tmpl = -1;
};

/// One step of a session's closed loop: one autocommit statement, or an
/// explicit transaction bracketed by BEGIN/COMMIT.
struct Unit {
  std::vector<Stmt> stmts;
  /// Templates of the Query statements, in order: the transaction's shape.
  std::vector<uint16_t> shape;
};

struct TemplateDef {
  std::string name;
  Stmt representative;  // compiled once at set-up to read the probes
};

/// Installs LATs and rules, recording each DBA call as a span when a tracer
/// is given. Errors are kept, not thrown.
class Installer {
 public:
  Installer(sqlcm::cm::MonitorEngine* monitor, HookTracer* tracer)
      : monitor_(monitor), tracer_(tracer) {}
  void DefineLat(sqlcm::cm::LatSpec spec);
  void AddRule(const sqlcm::cm::RuleSpec& spec);
  const sqlcm::common::Status& status() const { return status_; }

 private:
  sqlcm::cm::MonitorEngine* monitor_;
  HookTracer* tracer_;
  sqlcm::common::Status status_;
};

/// Everything the checks read after a run.
struct CheckInput {
  sqlcm::engine::Database* db = nullptr;
  sqlcm::cm::MonitorEngine* monitor = nullptr;
  const Ledger* ledger = nullptr;
  const std::vector<SessionProbes>* sessions = nullptr;
  const std::vector<TemplateProbes>* templates = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual size_t sessions() const = 0;
  /// Monitor worker threads; 0 keeps every rule on the hook thread.
  virtual size_t monitor_threads() const { return 0; }
  /// Units each session runs after the rules exist and before timing.
  virtual uint64_t warmup_units() const = 0;
  /// The TPC-H-shaped data every workload loads.
  static sqlcm::workload::TpchConfig data();
  virtual std::string application(size_t session) const;
  virtual std::vector<TemplateDef> templates() const = 0;

  /// Defines the LATs and rules. Template and session probes are known.
  virtual void Install(Installer* installer,
                       const std::vector<SessionProbes>& sessions,
                       const std::vector<TemplateProbes>& templates) = 0;
  /// Fills `unit` with the next step of session `session`. Thread-safe for
  /// distinct sessions: only `rng` is written.
  virtual void NextUnit(size_t session, sqlcm::common::Random* rng,
                        Unit* unit) const = 0;
  /// Appends one message per failed check, including the exact rules_fired
  /// total the ledger implies.
  virtual void Check(const CheckInput& in,
                     std::vector<std::string>* errors) const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
