#include "ledger.h"

#include <cstdio>
#include <cstdlib>

#include "sqlcm/signature.h"

namespace perfbench {

namespace {

const char* ProbeName(Probe probe) {
  switch (probe) {
    case Probe::kApplication: return "Application";
    case Probe::kQueryType: return "Query_Type";
    case Probe::kLogicalSignature: return "Logical_Signature";
    case Probe::kEstimatedCost: return "Estimated_Cost";
    case Probe::kSessionId: return "Session_ID";
  }
  return "";
}

const char* CmpText(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "=";
    case Cmp::kNe: return "<>";
    case Cmp::kLt: return "<";
    case Cmp::kGt: return ">";
  }
  return "";
}

template <typename T>
bool Compare(const T& lhs, Cmp cmp, const T& rhs) {
  switch (cmp) {
    case Cmp::kEq: return lhs == rhs;
    case Cmp::kNe: return lhs != rhs;
    case Cmp::kLt: return lhs < rhs;
    case Cmp::kGt: return lhs > rhs;
  }
  return false;
}

std::string QuoteSql(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'') out += '\'';
    out += c;
  }
  return out + "'";
}

}  // namespace

Atom Atom::String(Probe probe, Cmp cmp, std::string text) {
  Atom atom;
  atom.probe = probe;
  atom.cmp = cmp;
  atom.text = std::move(text);
  return atom;
}

Atom Atom::Number(Probe probe, Cmp cmp, double number) {
  // Round-trip through the rendered literal so the ledger compares against
  // exactly the value the rule parser will see.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", number);
  Atom atom;
  atom.probe = probe;
  atom.cmp = cmp;
  atom.number = std::strtod(buf, nullptr);
  return atom;
}

std::string Atom::Render() const {
  std::string out = std::string("Query.") + ProbeName(probe) + " " +
                    CmpText(cmp) + " ";
  if (probe == Probe::kEstimatedCost || probe == Probe::kSessionId) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", number);
    return out + buf;
  }
  return out + QuoteSql(text);
}

bool Atom::Eval(const SessionProbes& session,
                const TemplateProbes& tmpl) const {
  switch (probe) {
    case Probe::kApplication: return Compare(session.application, cmp, text);
    case Probe::kQueryType: return Compare(tmpl.query_type, cmp, text);
    case Probe::kLogicalSignature:
      return Compare(tmpl.logical_signature, cmp, text);
    case Probe::kEstimatedCost:
      return Compare(tmpl.estimated_cost, cmp, number);
    case Probe::kSessionId:
      return Compare(static_cast<double>(session.session_id), cmp, number);
  }
  return false;
}

std::string Condition::Render() const {
  std::string out;
  for (const Atom& atom : atoms) {
    if (!out.empty()) out += " AND ";
    out += atom.Render();
  }
  return out;
}

bool Condition::Eval(const SessionProbes& session,
                     const TemplateProbes& tmpl) const {
  for (const Atom& atom : atoms) {
    if (!atom.Eval(session, tmpl)) return false;
  }
  return true;
}

Ledger::Ledger(size_t sessions, size_t templates)
    : counts_(sessions, std::vector<uint64_t>(templates, 0)), txns_(sessions) {}

uint64_t Ledger::TotalQueries() const {
  uint64_t total = 0;
  for (const auto& row : counts_) {
    for (uint64_t n : row) total += n;
  }
  return total;
}

uint64_t Ledger::TotalTransactions() const {
  uint64_t total = 0;
  for (const auto& per_session : txns_) {
    for (const auto& [_, n] : per_session) total += n;
  }
  return total;
}

uint64_t Ledger::ExpectedFires(
    const Condition& cond, const std::vector<SessionProbes>& sessions,
    const std::vector<TemplateProbes>& templates) const {
  uint64_t fires = 0;
  for (size_t s = 0; s < counts_.size(); ++s) {
    for (size_t t = 0; t < counts_[s].size(); ++t) {
      if (counts_[s][t] != 0 && cond.Eval(sessions[s], templates[t])) {
        fires += counts_[s][t];
      }
    }
  }
  return fires;
}

std::map<std::string, uint64_t> Ledger::CountByAppAndSignature(
    const std::vector<SessionProbes>& sessions,
    const std::vector<TemplateProbes>& templates) const {
  std::map<std::string, uint64_t> out;
  for (size_t s = 0; s < counts_.size(); ++s) {
    for (size_t t = 0; t < counts_[s].size(); ++t) {
      if (counts_[s][t] == 0) continue;
      out[sessions[s].application + "|" + templates[t].logical_signature] +=
          counts_[s][t];
    }
  }
  return out;
}

std::map<std::string, uint64_t> Ledger::CountByTransactionSignature(
    const std::vector<TemplateProbes>& templates) const {
  std::map<std::string, uint64_t> out;
  for (const auto& per_session : txns_) {
    for (const auto& [shape, n] : per_session) {
      std::vector<uint64_t> hashes;
      for (uint16_t t : shape) hashes.push_back(templates[t].logical_hash);
      out[sqlcm::cm::TransactionSignature(hashes).text] += n;
    }
  }
  return out;
}

}  // namespace perfbench
