// The benchmark's own record of what it sent, and the rule-fire counts that
// record implies.
//
// Every selective condition the benchmark writes is a conjunction of atoms
// over probes whose values are fixed per (session, statement template):
// Application, Query_Type, Logical_Signature, Estimated_Cost and
// Session_ID. None depends on timing, so the number of times a rule must
// fire is a pure function of how many statements of each template each
// session completed. The monitor's rules_fired, per-rule fires and LAT
// COUNTs are then checked against that number exactly.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Probe values of one statement template, read from its compiled plan.
struct TemplateProbes {
  std::string query_type;  // SELECT / UPDATE / ...
  std::string logical_signature;
  uint64_t logical_hash = 0;
  double estimated_cost = 0;
};

/// Probe values fixed per session.
struct SessionProbes {
  std::string application;
  int64_t session_id = 0;
};

enum class Probe { kApplication, kQueryType, kLogicalSignature,
                   kEstimatedCost, kSessionId };
enum class Cmp { kEq, kNe, kLt, kGt };

/// One `Query.<probe> <cmp> <literal>` comparison.
struct Atom {
  Probe probe = Probe::kApplication;
  Cmp cmp = Cmp::kEq;
  std::string text;   // string literal (Application/Query_Type/Signature)
  double number = 0;  // numeric literal (Estimated_Cost/Session_ID)

  static Atom String(Probe probe, Cmp cmp, std::string text);
  static Atom Number(Probe probe, Cmp cmp, double number);

  /// Rule-language text, e.g. `Query.Application = 'app_a'`.
  std::string Render() const;
  bool Eval(const SessionProbes& session, const TemplateProbes& tmpl) const;
};

/// Conjunction of atoms; empty means always true.
struct Condition {
  std::vector<Atom> atoms;
  std::string Render() const;
  bool Eval(const SessionProbes& session, const TemplateProbes& tmpl) const;
};

/// Statements completed per (session, template) and transactions committed
/// per (session, template sequence). Each session thread writes only its
/// own row; rows are read after the threads are joined.
class Ledger {
 public:
  Ledger(size_t sessions, size_t templates);

  void AddStatement(size_t session, size_t tmpl) { counts_[session][tmpl]++; }
  void AddTransaction(size_t session, const std::vector<uint16_t>& shape) {
    txns_[session][shape]++;
  }

  size_t sessions() const { return counts_.size(); }
  size_t templates() const { return counts_.empty() ? 0 : counts_[0].size(); }
  uint64_t count(size_t session, size_t tmpl) const {
    return counts_[session][tmpl];
  }
  /// Statements of every template across all sessions.
  uint64_t TotalQueries() const;
  uint64_t TotalTransactions() const;

  /// Statements for which `cond` holds, i.e. the fires of one Query.Commit
  /// rule with that condition.
  uint64_t ExpectedFires(const Condition& cond,
                         const std::vector<SessionProbes>& sessions,
                         const std::vector<TemplateProbes>& templates) const;

  /// Expected COUNT per group of a Query LAT grouped by (Application,
  /// Logical_Signature), keyed "app|signature".
  std::map<std::string, uint64_t> CountByAppAndSignature(
      const std::vector<SessionProbes>& sessions,
      const std::vector<TemplateProbes>& templates) const;

  /// Expected COUNT per Transaction.Logical_Signature.
  std::map<std::string, uint64_t> CountByTransactionSignature(
      const std::vector<TemplateProbes>& templates) const;

 private:
  std::vector<std::vector<uint64_t>> counts_;
  std::vector<std::map<std::vector<uint16_t>, uint64_t>> txns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
