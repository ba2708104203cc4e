#include "exec/row_schema.h"

#include <algorithm>

#include "common/intern_pool.h"
#include "common/string_util.h"

namespace sqlcm::exec {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;

namespace {

using Columns = std::vector<BindingColumn>;

struct ColumnsHash {
  size_t operator()(const Columns& columns) const {
    size_t h = columns.size();
    for (const BindingColumn& c : columns) {
      h = h * 31 + std::hash<std::string>()(c.qualifier);
      h = h * 31 + std::hash<std::string>()(c.name);
      h = h * 31 + static_cast<size_t>(c.type);
    }
    return h;
  }
};

struct ColumnsEqual {
  bool operator()(const Columns& a, const Columns& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const BindingColumn& x, const BindingColumn& y) {
                        return x.qualifier == y.qualifier &&
                               x.name == y.name && x.type == y.type;
                      });
  }
};

common::InternPool<Columns, ColumnsHash, ColumnsEqual>& Pool() {
  // Never destroyed: schemas may be released during static destruction.
  static auto* pool =
      new common::InternPool<Columns, ColumnsHash, ColumnsEqual>();
  return *pool;
}

}  // namespace

RowSchema::RowSchema(std::vector<BindingColumn> columns)
    : columns_(std::make_shared<Columns>(std::move(columns))) {}

const std::vector<BindingColumn>& RowSchema::columns() const {
  static const Columns kEmpty;
  return columns_ != nullptr ? *columns_ : kEmpty;
}

std::vector<BindingColumn>& RowSchema::Mutable() {
  if (columns_ == nullptr) {
    columns_ = std::make_shared<Columns>();
  } else if (interned_ || columns_.use_count() > 1) {
    columns_ = std::make_shared<Columns>(*columns_);
  }
  interned_ = false;
  return *columns_;
}

void RowSchema::Intern() {
  if (columns_ == nullptr || interned_) return;
  // Pooled storage must only be reachable through interned schemas, which
  // never write it: register a private copy if other schemas share ours.
  if (columns_.use_count() > 1) {
    columns_ = std::make_shared<Columns>(*columns_);
  }
  columns_ = Pool().Intern(columns_);
  interned_ = true;
}

Result<size_t> RowSchema::Resolve(std::string_view qualifier,
                                  std::string_view name) const {
  int found = -1;
  const Columns& columns = this->columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    const BindingColumn& col = columns[i];
    if (!EqualsIgnoreCase(col.name, name)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(col.qualifier, qualifier)) {
      continue;
    }
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference '" +
                                     std::string(name) + "'");
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    std::string full = qualifier.empty()
                           ? std::string(name)
                           : std::string(qualifier) + "." + std::string(name);
    return Status::NotFound("column '" + full + "' not found");
  }
  return static_cast<size_t>(found);
}

}  // namespace sqlcm::exec
