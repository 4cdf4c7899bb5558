#include "src/db/sql_engine.h"

#include <algorithm>

#include "src/base/panic.h"

namespace asbestos {
namespace {

bool CompareMatches(int cmp, SqlCompare op) {
  switch (op) {
    case SqlCompare::kEq:
      return cmp == 0;
    case SqlCompare::kNe:
      return cmp != 0;
    case SqlCompare::kLt:
      return cmp < 0;
    case SqlCompare::kLe:
      return cmp <= 0;
    case SqlCompare::kGt:
      return cmp > 0;
    case SqlCompare::kGe:
      return cmp >= 0;
  }
  return false;
}

uint64_t RowBytes(const std::vector<SqlValue>& row) {
  uint64_t bytes = 24;  // per-row bookkeeping
  for (const SqlValue& v : row) {
    bytes += 16 + v.AsText().size();
  }
  return bytes;
}

}  // namespace

SqlTable::SqlTable(std::vector<SqlColumnDef> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].primary_key) {
      indexes_[static_cast<int>(i)];  // primary keys are always indexed
    }
  }
}

int SqlTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status SqlTable::AddIndex(const std::string& column) {
  const int ci = ColumnIndex(column);
  if (ci < 0) {
    return Status::kNotFound;
  }
  auto [it, inserted] = indexes_.try_emplace(ci);
  if (!inserted) {
    return Status::kAlreadyExists;
  }
  for (const auto& [rid, row] : rows_) {
    it->second.emplace(row[static_cast<size_t>(ci)].AsText(), rid);
  }
  return Status::kOk;
}

bool SqlTable::HasIndex(const std::string& column) const {
  const int ci = ColumnIndex(column);
  return ci >= 0 && indexes_.count(ci) != 0;
}

Status SqlTable::InsertRow(std::vector<SqlValue> row) {
  ASB_ASSERT(row.size() == columns_.size());
  // Enforce primary-key uniqueness.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i].primary_key) {
      continue;
    }
    auto idx = indexes_.find(static_cast<int>(i));
    ASB_ASSERT(idx != indexes_.end());
    if (idx->second.count(row[i].AsText()) != 0) {
      return Status::kAlreadyExists;
    }
  }
  const RowId rid = next_row_id_++;
  for (auto& [ci, index] : indexes_) {
    index.emplace(row[static_cast<size_t>(ci)].AsText(), rid);
  }
  approx_bytes_ += RowBytes(row);
  rows_.emplace(rid, std::move(row));
  return Status::kOk;
}

bool SqlTable::RowMatches(const std::vector<SqlValue>& row, const std::vector<SqlPredicate>& where,
                          const std::vector<int>& where_columns) const {
  for (size_t i = 0; i < where.size(); ++i) {
    const int ci = where_columns[i];
    if (ci < 0) {
      return false;  // unknown column: matches no row (each still counts as visited)
    }
    if (!CompareMatches(row[static_cast<size_t>(ci)].Compare(where[i].literal), where[i].op)) {
      return false;
    }
  }
  return true;
}

std::vector<SqlTable::RowId> SqlTable::Scan(const std::vector<SqlPredicate>& where,
                                            QueryResult* stats) const {
  // Column names resolve once per scan, not once per row.
  std::vector<int> where_columns;
  where_columns.reserve(where.size());
  for (const SqlPredicate& p : where) {
    where_columns.push_back(ColumnIndex(p.column));
  }
  // Pick an indexed equality predicate if one exists; otherwise full scan.
  for (size_t i = 0; i < where.size(); ++i) {
    const SqlPredicate& p = where[i];
    if (p.op != SqlCompare::kEq) {
      continue;
    }
    const int ci = where_columns[i];
    auto idx = indexes_.find(ci);
    if (ci < 0 || idx == indexes_.end()) {
      continue;
    }
    stats->index_probes += 1;
    std::vector<RowId> out;
    auto [lo, hi] = idx->second.equal_range(p.literal.AsText());
    for (auto it = lo; it != hi; ++it) {
      stats->rows_visited += 1;
      const auto& row = rows_.at(it->second);
      if (RowMatches(row, where, where_columns)) {
        out.push_back(it->second);
      }
    }
    return out;
  }
  std::vector<RowId> out;
  for (const auto& [rid, row] : rows_) {
    stats->rows_visited += 1;
    if (RowMatches(row, where, where_columns)) {
      out.push_back(rid);
    }
  }
  return out;
}

Result<QueryResult> SqlDatabase::Execute(std::string_view sql) {
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  return ExecuteStmt(stmt.value());
}

Result<QueryResult> SqlDatabase::ExecuteStmt(const SqlStatement& stmt) {
  return std::visit(
      [this](const auto& s) -> Result<QueryResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return DoCreateTable(s);
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          return DoCreateIndex(s);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return DoInsert(s);
        } else if constexpr (std::is_same_v<T, SelectStmt>) {
          return DoSelect(s);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return DoUpdate(s);
        } else {
          return DoDelete(s);
        }
      },
      stmt);
}

SqlTable* SqlDatabase::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t SqlDatabase::approx_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.approx_bytes();
  }
  return total;
}

Result<QueryResult> SqlDatabase::DoCreateTable(const CreateTableStmt& stmt) {
  if (tables_.count(stmt.table) != 0) {
    return Status::kAlreadyExists;
  }
  tables_.emplace(stmt.table, SqlTable(stmt.columns));
  return QueryResult{};
}

Result<QueryResult> SqlDatabase::DoCreateIndex(const CreateIndexStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  const Status s = t->AddIndex(stmt.column);
  if (s != Status::kOk) {
    return s;
  }
  return QueryResult{};
}

Result<QueryResult> SqlDatabase::DoInsert(const InsertStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  std::vector<int> positions;
  positions.reserve(stmt.columns.size());
  for (const std::string& c : stmt.columns) {
    const int ci = t->ColumnIndex(c);
    if (ci < 0) {
      return Status::kNotFound;
    }
    positions.push_back(ci);
  }
  QueryResult result;
  for (const auto& values : stmt.rows) {
    std::vector<SqlValue> row(t->columns().size());
    for (size_t i = 0; i < values.size(); ++i) {
      row[static_cast<size_t>(positions[i])] = values[i];
    }
    const Status s = t->InsertRow(std::move(row));
    if (s != Status::kOk) {
      return s;
    }
    result.rows_affected += 1;
  }
  return result;
}

Result<QueryResult> SqlDatabase::DoSelect(const SelectStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  QueryResult result;
  std::vector<int> out_cols;
  if (stmt.star) {
    for (size_t i = 0; i < t->columns().size(); ++i) {
      out_cols.push_back(static_cast<int>(i));
      result.columns.push_back(t->columns()[i].name);
    }
  } else {
    for (const std::string& c : stmt.columns) {
      const int ci = t->ColumnIndex(c);
      if (ci < 0) {
        return Status::kNotFound;
      }
      out_cols.push_back(ci);
      result.columns.push_back(c);
    }
  }
  for (const SqlPredicate& p : stmt.where) {
    if (t->ColumnIndex(p.column) < 0) {
      return Status::kNotFound;
    }
  }

  std::vector<SqlTable::RowId> ids = t->Scan(stmt.where, &result);
  if (!stmt.order_by.empty()) {
    const int oc = t->ColumnIndex(stmt.order_by);
    if (oc < 0) {
      return Status::kNotFound;
    }
    std::stable_sort(ids.begin(), ids.end(), [&](SqlTable::RowId a, SqlTable::RowId b) {
      const int cmp = t->rows_.at(a)[static_cast<size_t>(oc)].Compare(
          t->rows_.at(b)[static_cast<size_t>(oc)]);
      return stmt.order_desc ? cmp > 0 : cmp < 0;
    });
  }
  for (SqlTable::RowId rid : ids) {
    if (stmt.limit >= 0 && static_cast<int64_t>(result.rows.size()) >= stmt.limit) {
      break;
    }
    const auto& row = t->rows_.at(rid);
    std::vector<SqlValue> out;
    out.reserve(out_cols.size());
    for (int ci : out_cols) {
      out.push_back(row[static_cast<size_t>(ci)]);
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

Result<QueryResult> SqlDatabase::DoUpdate(const UpdateStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  std::vector<std::pair<int, SqlValue>> sets;
  for (const auto& [col, v] : stmt.sets) {
    const int ci = t->ColumnIndex(col);
    if (ci < 0) {
      return Status::kNotFound;
    }
    sets.emplace_back(ci, v);
  }
  QueryResult result;
  for (SqlTable::RowId rid : t->Scan(stmt.where, &result)) {
    auto& row = t->rows_.at(rid);
    for (const auto& [ci, v] : sets) {
      // Keep affected indexes in sync.
      auto idx = t->indexes_.find(ci);
      if (idx != t->indexes_.end()) {
        auto [lo, hi] = idx->second.equal_range(row[static_cast<size_t>(ci)].AsText());
        for (auto it = lo; it != hi; ++it) {
          if (it->second == rid) {
            idx->second.erase(it);
            break;
          }
        }
        idx->second.emplace(v.AsText(), rid);
      }
      row[static_cast<size_t>(ci)] = v;
    }
    result.rows_affected += 1;
  }
  return result;
}

Result<QueryResult> SqlDatabase::DoDelete(const DeleteStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  QueryResult result;
  for (SqlTable::RowId rid : t->Scan(stmt.where, &result)) {
    auto& row = t->rows_.at(rid);
    for (auto& [ci, index] : t->indexes_) {
      auto [lo, hi] = index.equal_range(row[static_cast<size_t>(ci)].AsText());
      for (auto it = lo; it != hi; ++it) {
        if (it->second == rid) {
          index.erase(it);
          break;
        }
      }
    }
    t->approx_bytes_ -= RowBytes(row);
    t->rows_.erase(rid);
    result.rows_affected += 1;
  }
  return result;
}

}  // namespace asbestos
