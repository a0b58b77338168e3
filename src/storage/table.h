#ifndef CLOUDVIEWS_STORAGE_TABLE_H_
#define CLOUDVIEWS_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace cloudviews {

// An immutable-after-load table. Datasets in Cosmos are written once and
// read many times; bulk updates replace the whole table (see DatasetCatalog),
// so Table itself has no fine-grained update path.
//
// Storage is one ColumnVector per schema column, whichever way the table is
// loaded: Append(Row) appends cells into the columns (with AppendValue's
// demotion rules), AppendBatch appends column-wise, and the first
// AppendBatch into an empty table adopts the batch's column buffers instead
// of copying them. Scans share column(i) zero-copy, so a loaded table is
// read concurrently by every job that scans it and must not be appended to
// again. The row view is materialized lazily, once (std::call_once), for
// callers that want Values.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  // Sum of Value::ByteSize over every cell, read from the byte index.
  size_t byte_size() const;

  // Row view; the first call materializes it from the columns.
  const Row& row(size_t i) const { return rows()[i]; }
  const std::vector<Row>& rows() const;

  const ColumnPtr& column(size_t i) const { return columns_[i]; }
  size_t num_columns() const { return columns_.size(); }

  // Sum of Value::ByteSize over rows [begin, end) of column `c`. Served
  // from per-64-row prefix sums recorded at load, so a whole-table or
  // 64-aligned range costs O(1) and any other range at most 126 cell reads.
  size_t RangeByteSize(size_t c, size_t begin, size_t end) const;

  // Appends a row; the row arity must match the schema. Type checking is
  // loose (nulls allowed anywhere) to mirror semi-structured extracted logs.
  Status Append(Row row);

  // Appends a batch column-wise; the batch arity must match the schema.
  Status AppendBatch(const ColumnBatch& batch);

  void Reserve(size_t n);

  std::string ToString(size_t max_rows = 10) const;

 private:
  // Column `c` for writing. Adopted buffers may be shared with the batch's
  // producer, so the first write after an adoption copies every column.
  ColumnVector* MutableColumn(size_t c);
  // Extends the byte prefix sums over rows appended since the last call.
  void IndexBytes();

  std::string name_;
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<ColumnPtr> columns_;
  bool adopted_ = false;  // columns_ are a batch's buffers, not copies
  // byte_prefix_[c][k] = byte size of rows [0, 64k) of column c.
  std::vector<std::vector<size_t>> byte_prefix_;

  mutable std::vector<Row> rows_;
  mutable std::once_flag rows_once_;
};

using TablePtr = std::shared_ptr<const Table>;

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_TABLE_H_
