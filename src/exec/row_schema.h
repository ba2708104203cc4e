// Column layout of intermediate rows flowing between plan operators.
#ifndef SQLCM_EXEC_ROW_SCHEMA_H_
#define SQLCM_EXEC_ROW_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "common/status.h"

namespace sqlcm::exec {

struct BindingColumn {
  std::string qualifier;  // table alias; empty for computed columns
  std::string name;
  catalog::ColumnType type;
};

/// Ordered column layout; supports the name resolution rules of SQL
/// (unqualified names must be unambiguous).
///
/// Copies share one column vector (copy-on-write), so a plan node that
/// passes its input layout through holds no copy of it. Intern() goes
/// further and shares the vector with every identical layout in the
/// process: cached plans of one statement shape keep one layout between
/// them.
class RowSchema {
 public:
  RowSchema() = default;
  explicit RowSchema(std::vector<BindingColumn> columns);

  const std::vector<BindingColumn>& columns() const;
  size_t size() const { return columns_ != nullptr ? columns_->size() : 0; }
  const BindingColumn& column(size_t i) const { return (*columns_)[i]; }

  void Append(BindingColumn col) { Mutable().push_back(std::move(col)); }

  /// Appends all columns of `other` (join output layout).
  void AppendAll(const RowSchema& other) {
    for (const auto& c : other.columns()) Append(c);
  }

  /// Replaces this layout's storage with the process-wide shared copy of
  /// an identical layout (registering it when there is none). Later
  /// mutation copies first, so interned storage is never written.
  void Intern();

  /// Resolves a (possibly qualified) column reference to a slot.
  /// InvalidArgument on ambiguity, NotFound when absent.
  common::Result<size_t> Resolve(std::string_view qualifier,
                                 std::string_view name) const;

 private:
  /// The column vector, copied first unless this schema is its only owner
  /// and it is not interned.
  std::vector<BindingColumn>& Mutable();

  std::shared_ptr<std::vector<BindingColumn>> columns_;
  bool interned_ = false;
};

}  // namespace sqlcm::exec

#endif  // SQLCM_EXEC_ROW_SCHEMA_H_
