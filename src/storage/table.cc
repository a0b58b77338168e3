#include "storage/table.h"

#include <utility>

namespace cloudviews {

namespace {
constexpr size_t kByteBlock = 64;
}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)),
      byte_prefix_(schema_.num_columns(), std::vector<size_t>{0}) {
  columns_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    columns_.push_back(std::make_shared<ColumnVector>());
  }
}

ColumnVector* Table::MutableColumn(size_t c) {
  if (adopted_) {
    for (ColumnPtr& col : columns_) {
      col = std::make_shared<ColumnVector>(*col);
    }
    adopted_ = false;
  }
  // Every column is a table-owned, non-const ColumnVector here: built by
  // the constructor or copied above.
  return const_cast<ColumnVector*>(columns_[c].get());
}

void Table::IndexBytes() {
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<size_t>& prefix = byte_prefix_[c];
    for (size_t k = prefix.size(); k * kByteBlock <= num_rows_; ++k) {
      prefix.push_back(prefix.back() +
                       columns_[c]->RangeByteSize((k - 1) * kByteBlock,
                                                  k * kByteBlock));
    }
  }
}

size_t Table::byte_size() const {
  size_t total = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    total += RangeByteSize(c, 0, num_rows_);
  }
  return total;
}

size_t Table::RangeByteSize(size_t c, size_t begin, size_t end) const {
  if (begin >= end) return 0;
  const ColumnVector& col = *columns_[c];
  const std::vector<size_t>& prefix = byte_prefix_[c];
  const size_t first = (begin + kByteBlock - 1) / kByteBlock;  // whole blocks
  const size_t last = end / kByteBlock;
  if (first >= last) return col.RangeByteSize(begin, end);
  return col.RangeByteSize(begin, first * kByteBlock) + prefix[last] -
         prefix[first] + col.RangeByteSize(last * kByteBlock, end);
}

Status Table::Append(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString() + " of table " + name_);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    MutableColumn(c)->AppendValue(row[c]);
  }
  num_rows_ += 1;
  IndexBytes();
  return Status::OK();
}

Status Table::AppendBatch(const ColumnBatch& batch) {
  if (batch.num_columns() != columns_.size()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(batch.num_columns()) +
        " does not match schema " + schema_.ToString() + " of table " + name_);
  }
  if (batch.num_rows == 0) return Status::OK();
  bool adopt = num_rows_ == 0;
  for (const ColumnPtr& col : batch.columns) {
    adopt = adopt && col->size() == batch.num_rows;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (adopt) {
      columns_[c] = batch.columns[c];
    } else {
      MutableColumn(c)->AppendRangeFrom(*batch.columns[c], 0, batch.num_rows);
    }
  }
  adopted_ = adopt;
  num_rows_ += batch.num_rows;
  IndexBytes();
  return Status::OK();
}

void Table::Reserve(size_t n) {
  for (size_t c = 0; c < columns_.size(); ++c) MutableColumn(c)->Reserve(n);
}

const std::vector<Row>& Table::rows() const {
  std::call_once(rows_once_, [this] {
    std::vector<Row> rows;
    rows.reserve(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) {
      Row row;
      row.reserve(columns_.size());
      for (const ColumnPtr& col : columns_) row.push_back(col->GetValue(i));
      rows.push_back(std::move(row));
    }
    rows_ = std::move(rows);
  });
  return rows_;
}

std::string Table::ToString(size_t max_rows) const {
  const std::vector<Row>& all = rows();
  std::string out = name_ + " " + schema_.ToString() + " [" +
                    std::to_string(all.size()) + " rows]\n";
  for (size_t i = 0; i < all.size() && i < max_rows; ++i) {
    out += "  ";
    for (size_t j = 0; j < all[i].size(); ++j) {
      if (j > 0) out += " | ";
      out += all[i][j].ToString();
    }
    out += "\n";
  }
  if (all.size() > max_rows) out += "  ...\n";
  return out;
}

}  // namespace cloudviews
