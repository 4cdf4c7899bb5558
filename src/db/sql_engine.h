// The embedded SQL engine: tables with typed columns, primary-key and
// secondary indexes, and an executor that counts the rows it touches (the
// simulator's OKDB cost accounting consumes those counts).
#ifndef SRC_DB_SQL_ENGINE_H_
#define SRC_DB_SQL_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/db/sql_parser.h"
#include "src/db/sql_value.h"

namespace asbestos {

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;  // SELECT output
  uint64_t rows_affected = 0;               // INSERT/UPDATE/DELETE
  uint64_t rows_visited = 0;                // executor work (cost accounting)
  uint64_t index_probes = 0;
};

class SqlTable {
 public:
  explicit SqlTable(std::vector<SqlColumnDef> columns);

  const std::vector<SqlColumnDef>& columns() const { return columns_; }
  int ColumnIndex(const std::string& name) const;  // -1 when unknown
  size_t row_count() const { return rows_.size(); }
  uint64_t approx_bytes() const { return approx_bytes_; }

  Status AddIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;

 private:
  friend class SqlDatabase;

  using RowId = uint64_t;

  Status InsertRow(std::vector<SqlValue> row);  // full-width, schema order
  // Row ids matching the predicates, using an index when one applies.
  std::vector<RowId> Scan(const std::vector<SqlPredicate>& where, QueryResult* stats) const;
  // `where_columns[i]` is ColumnIndex(where[i].column), resolved by Scan.
  bool RowMatches(const std::vector<SqlValue>& row, const std::vector<SqlPredicate>& where,
                  const std::vector<int>& where_columns) const;

  std::vector<SqlColumnDef> columns_;
  std::map<RowId, std::vector<SqlValue>> rows_;
  RowId next_row_id_ = 1;
  // column index -> (value text form -> row ids). Equality probes only.
  std::map<int, std::multimap<std::string, RowId>> indexes_;
  uint64_t approx_bytes_ = 0;
};

class SqlDatabase {
 public:
  Result<QueryResult> Execute(std::string_view sql);
  Result<QueryResult> ExecuteStmt(const SqlStatement& stmt);

  SqlTable* FindTable(const std::string& name);
  bool HasTable(const std::string& name) const { return tables_.count(name) != 0; }
  // Total estimated storage, for memory accounting.
  uint64_t approx_bytes() const;

 private:
  Result<QueryResult> DoCreateTable(const CreateTableStmt& stmt);
  Result<QueryResult> DoCreateIndex(const CreateIndexStmt& stmt);
  Result<QueryResult> DoInsert(const InsertStmt& stmt);
  Result<QueryResult> DoSelect(const SelectStmt& stmt);
  Result<QueryResult> DoUpdate(const UpdateStmt& stmt);
  Result<QueryResult> DoDelete(const DeleteStmt& stmt);

  std::map<std::string, SqlTable> tables_;
};

}  // namespace asbestos

#endif  // SRC_DB_SQL_ENGINE_H_
