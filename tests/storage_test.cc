#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/view_store.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

// --- Value ------------------------------------------------------------------

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_TRUE(Value(true).AsBool());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{5}).Compare(Value(5.0)), 0);
  EXPECT_LT(Value(int64_t{4}).Compare(Value(4.5)), 0);
  EXPECT_GT(Value(5.5).Compare(Value(int64_t{5})), 0);
}

TEST(ValueTest, NullsSortFirst) {
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value("a").Compare(Value::Null()), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, HashEqualForCrossTypeEqualNumbers) {
  Hasher h1, h2;
  Value(int64_t{9}).HashInto(&h1);
  Value(9.0).HashInto(&h2);
  EXPECT_EQ(h1.Finish(), h2.Finish());
}

TEST(ValueTest, ByteSizeAccounting) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value("abcd").ByteSize(), 8u);  // 4 chars + 4 overhead
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("s").ToString(), "s");
}

TEST(ValueTest, HashRowKeySelectsColumns) {
  Row r1 = {Value(int64_t{1}), Value("a"), Value(2.0)};
  Row r2 = {Value(int64_t{1}), Value("b"), Value(2.0)};
  std::vector<int> keys = {0, 2};
  EXPECT_EQ(HashRowKey(r1, keys), HashRowKey(r2, keys));
  std::vector<int> all = {0, 1, 2};
  EXPECT_NE(HashRowKey(r1, all), HashRowKey(r2, all));
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, FindColumn) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.FindColumn("a"), 0);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_FALSE(s.FindColumn("c").has_value());
}

TEST(SchemaTest, HashChangesWithNameAndType) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"y", DataType::kInt64}});
  Schema c({{"x", DataType::kDouble}});
  Hasher ha, hb, hc;
  a.HashInto(&ha);
  b.HashInto(&hb);
  c.HashInto(&hc);
  EXPECT_NE(ha.Finish(), hb.Finish());
  EXPECT_NE(ha.Finish(), hc.Finish());
}

TEST(SchemaTest, ToStringReadable) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.ToString(), "(a:INT64)");
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, AppendAndRead) {
  Schema schema({{"id", DataType::kInt64}});
  Table t("t", schema);
  ASSERT_TRUE(t.Append({Value(int64_t{1})}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{2})}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(1)[0].AsInt64(), 2);
  EXPECT_EQ(t.byte_size(), 16u);
}

TEST(TableTest, ArityMismatchRejected) {
  Schema schema({{"id", DataType::kInt64}});
  Table t("t", schema);
  Status s = t.Append({Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

// Cell (row r, column c) of the parity tables below: ints, doubles (with
// -0.0), strings (empty, inline and heap-sized), an all-null column, and a
// mixed column cycling through every scalar type; nulls in every column.
Value ParityCell(size_t r, size_t c) {
  if (r % 7 == 3) return Value::Null();
  switch (c) {
    case 0:
      return Value(static_cast<int64_t>(r * 37 % 101) - 50);
    case 1:
      return r % 5 == 0 ? Value(-0.0) : Value(static_cast<double>(r) / 8.0);
    case 2:
      return r % 4 == 0 ? Value("")
                        : Value(std::string(r % 23, 'a' + r % 26));
    case 3:
      return Value::Null();
    default:
      switch (r % 4) {
        case 0:
          return Value(static_cast<int64_t>(r));
        case 1:
          return Value("s" + std::to_string(r));
        case 2:
          return Value(static_cast<double>(r) + 0.5);
        default:
          return Value(r % 8 == 3);
      }
  }
}

std::string RenderCell(const Value& v) {
  return std::string(DataTypeName(v.type())) + ":" + v.ToString();
}

TEST(TableTest, RowAndColumnLoadsAgree) {
  // The same cells loaded row by row and column-wise (an adopted first
  // batch, then a copied second one) must be indistinguishable.
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"n", DataType::kNull},
                 {"m", DataType::kString}});
  const size_t kRows = 150;  // spans several 64-row byte-index blocks
  const size_t kSplit = 70;
  Table by_row("t", schema);
  Table by_column("t", schema);
  for (size_t r = 0; r < kRows; ++r) {
    Row row;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row.push_back(ParityCell(r, c));
    }
    ASSERT_TRUE(by_row.Append(std::move(row)).ok());
  }
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, kSplit},
                            std::pair<size_t, size_t>{kSplit, kRows}}) {
    ColumnBatch batch;
    batch.num_rows = end - begin;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      auto col = std::make_shared<ColumnVector>();
      for (size_t r = begin; r < end; ++r) col->AppendValue(ParityCell(r, c));
      batch.columns.push_back(std::move(col));
    }
    ASSERT_TRUE(by_column.AppendBatch(batch).ok());
  }

  ASSERT_EQ(by_row.num_rows(), kRows);
  ASSERT_EQ(by_column.num_rows(), kRows);
  size_t want_bytes = 0;
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      want_bytes += ParityCell(r, c).ByteSize();
    }
  }
  EXPECT_EQ(by_row.byte_size(), want_bytes);
  EXPECT_EQ(by_column.byte_size(), want_bytes);
  EXPECT_EQ(ComputeTableChecksum(by_row), ComputeTableChecksum(by_column));
  EXPECT_TRUE(by_column.column(4)->mixed());
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const std::string want = RenderCell(ParityCell(r, c));
      ASSERT_EQ(RenderCell(by_row.row(r)[c]), want) << r << "," << c;
      ASSERT_EQ(RenderCell(by_column.row(r)[c]), want) << r << "," << c;
      ASSERT_EQ(RenderCell(by_row.column(c)->GetValue(r)), want);
      ASSERT_EQ(RenderCell(by_column.column(c)->GetValue(r)), want);
    }
  }
  // Range byte sizes from the per-block index equal the per-cell sums, for
  // aligned, unaligned, in-block and whole-table ranges.
  for (auto [begin, end] :
       {std::pair<size_t, size_t>{0, kRows}, {0, 64}, {64, 128}, {3, 5},
        {10, 140}, {63, 65}, {128, kRows}, {7, 7}}) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      size_t want = 0;
      for (size_t r = begin; r < end; ++r) want += ParityCell(r, c).ByteSize();
      EXPECT_EQ(by_row.RangeByteSize(c, begin, end), want)
          << c << " [" << begin << "," << end << ")";
      EXPECT_EQ(by_column.RangeByteSize(c, begin, end), want)
          << c << " [" << begin << "," << end << ")";
    }
  }
}

TEST(TableTest, FirstBatchIsAdoptedLaterAppendsCopy) {
  Schema schema({{"id", DataType::kInt64}});
  auto ids = std::make_shared<ColumnVector>();
  ids->AppendInt64(1);
  ids->AppendInt64(2);
  ColumnBatch batch;
  batch.columns = {ids};
  batch.num_rows = 2;
  Table t("t", schema);
  ASSERT_TRUE(t.AppendBatch(batch).ok());
  EXPECT_EQ(t.column(0).get(), ids.get());  // shared, not copied
  ASSERT_TRUE(t.AppendBatch(batch).ok());
  EXPECT_NE(t.column(0).get(), ids.get());  // copied before the write
  EXPECT_EQ(ids->size(), 2u);               // the producer's buffer is intact
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.row(3)[0].AsInt64(), 2);
  EXPECT_EQ(t.byte_size(), 32u);
}

// --- ColumnVector ----------------------------------------------------------

TEST(ColumnTest, HashRangeIntoMatchesValueHashInto) {
  // Every storage mode: typed ints, doubles (with -0.0 and 0.0, which hash
  // alike), strings, bools, an all-null column, and a mixed column; every
  // one carries nulls.
  const std::vector<std::vector<Value>> columns = {
      {Value(int64_t{5}), Value::Null(), Value(int64_t{-7}), Value(int64_t{0})},
      {Value(-0.0), Value(0.0), Value::Null(), Value(5.0)},
      {Value(""), Value::Null(), Value("abcdefghij"), Value("x")},
      {Value(true), Value::Null(), Value(false), Value(true)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
      {Value(int64_t{5}), Value("5"), Value::Null(), Value(2.5)},
  };
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnVector col;
    for (const Value& v : columns[c]) col.AppendValue(v);
    for (size_t begin = 0; begin < col.size(); ++begin) {
      std::vector<Hasher> batched(col.size() - begin, Hasher(17));
      col.HashRangeInto(begin, col.size(), batched.data());
      for (size_t i = begin; i < col.size(); ++i) {
        Hasher want(17);
        columns[c][i].HashInto(&want);
        EXPECT_EQ(batched[i - begin].Finish(), want.Finish())
            << "column " << c << " row " << i;
      }
    }
  }
  // -0.0 and 0.0 (and int 0) hash alike, as Value::Compare calls them equal.
  EXPECT_EQ(HashRowKey({Value(-0.0)}, {0}), HashRowKey({Value(0.0)}, {0}));
  EXPECT_EQ(HashRowKey({Value(int64_t{0})}, {0}),
            HashRowKey({Value(0.0)}, {0}));
}

TEST(ColumnTest, GatherWithPadsMatchesPerCellAppends) {
  ColumnVector ints;
  for (int64_t v : {4, 5, 6}) ints.AppendInt64(v);
  ints.AppendNull();
  const std::vector<uint32_t> indices = {2, ColumnVector::kNullIndex, 0, 3,
                                         ColumnVector::kNullIndex, 1};
  ColumnVector gathered;
  gathered.AppendGatherFrom(ints, indices);
  ColumnVector per_cell;
  for (uint32_t idx : indices) {
    if (idx == ColumnVector::kNullIndex) {
      per_cell.AppendNull();
    } else {
      per_cell.AppendCellFrom(ints, idx);
    }
  }
  ASSERT_EQ(gathered.size(), per_cell.size());
  EXPECT_TRUE(gathered.BitmapConsistent());
  EXPECT_EQ(gathered.type(), DataType::kInt64);
  EXPECT_EQ(gathered.ints(), per_cell.ints());
  EXPECT_EQ(gathered.valid_words(), per_cell.valid_words());
  EXPECT_EQ(gathered.TotalByteSize(), per_cell.TotalByteSize());
}

// --- DatasetCatalog ------------------------------------------------------------

TEST(CatalogTest, RegisterAndLookup) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  EXPECT_EQ(catalog.size(), 3u);
  auto ds = catalog.Lookup("Sales");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->guid, "guid-sales-v1");
  EXPECT_EQ(ds->version, 1);
}

TEST(CatalogTest, DuplicateRegisterRejected) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  Status s = catalog.Register("Sales", testing_util::MakeSalesTable(), "g2");
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, BulkUpdateRotatesGuidAndBumpsVersion) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .BulkUpdate("Sales", testing_util::MakeSalesTable(100),
                              "guid-sales-v2", 42.0)
                  .ok());
  auto ds = catalog.Lookup("Sales");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->guid, "guid-sales-v2");
  EXPECT_EQ(ds->version, 2);
  EXPECT_EQ(ds->updated_at, 42.0);
  EXPECT_EQ(ds->table->num_rows(), 100u);
}

TEST(CatalogTest, BulkUpdateRequiresFreshGuid) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  Status s = catalog.BulkUpdate("Sales", testing_util::MakeSalesTable(),
                                "guid-sales-v1");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, GdprForgetIsBulkUpdate) {
  DatasetCatalog catalog;
  testing_util::RegisterFigure4Tables(&catalog);
  ASSERT_TRUE(catalog
                  .GdprForget("Customer", testing_util::MakeCustomerTable(90),
                              "guid-customer-v2")
                  .ok());
  auto ds = catalog.Lookup("Customer");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table->num_rows(), 90u);
  EXPECT_EQ(ds->guid, "guid-customer-v2");
}

TEST(CatalogTest, LookupMissingFails) {
  DatasetCatalog catalog;
  EXPECT_EQ(catalog.Lookup("nope").status().code(), StatusCode::kNotFound);
}

// --- ViewStore ------------------------------------------------------------------

class ViewStoreTest : public ::testing::Test {
 protected:
  Hash128 sig_ = HashString("sig-a");
  Hash128 rec_ = HashString("rec-a");

  TablePtr MakeContents() {
    Schema schema({{"x", DataType::kInt64}});
    auto t = std::make_shared<Table>("v", schema);
    t->Append({Value(int64_t{1})}).ok();
    return t;
  }
};

TEST_F(ViewStoreTest, MaterializeThenSealThenFind) {
  ViewStore store(100.0);
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  EXPECT_EQ(store.Find(sig_, 0.0), nullptr);  // not yet sealed
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 5.0).ok());
  const MaterializedView* view = store.Find(sig_, 6.0);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->state, ViewState::kSealed);
  EXPECT_EQ(view->observed_rows, 1u);
  EXPECT_EQ(view->sealed_at, 5.0);
  EXPECT_EQ(store.total_views_created(), 1);
}

TEST_F(ViewStoreTest, OutputPathEncodesSignature) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc7", 1, 0.0).ok());
  const MaterializedView* view = store.FindAny(sig_);
  ASSERT_NE(view, nullptr);
  EXPECT_NE(view->output_path.find(sig_.ToHex()), std::string::npos);
  EXPECT_NE(view->output_path.find("vc7"), std::string::npos);
}

TEST_F(ViewStoreTest, DoubleMaterializeRejected) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  Status s = store.BeginMaterialize(sig_, rec_, "vc0", 2, 0.0);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(ViewStoreTest, ExpiryHidesAndPurges) {
  ViewStore store(10.0);  // 10-second TTL
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 1.0).ok());
  EXPECT_NE(store.Find(sig_, 9.0), nullptr);
  EXPECT_EQ(store.Find(sig_, 10.0), nullptr);  // past TTL
  EXPECT_EQ(store.PurgeExpired(11.0), 1u);
  EXPECT_EQ(store.NumLive(), 0u);
}

TEST_F(ViewStoreTest, ReuseCounting) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  ASSERT_TRUE(store.RecordReuse(sig_).ok());
  ASSERT_TRUE(store.RecordReuse(sig_).ok());
  EXPECT_EQ(store.total_views_reused(), 2);
  EXPECT_EQ(store.FindAny(sig_)->reuse_count, 2);
}

TEST_F(ViewStoreTest, InvalidateRemoves) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  ASSERT_TRUE(store.Invalidate(sig_).ok());
  EXPECT_EQ(store.FindAny(sig_), nullptr);
  EXPECT_EQ(store.Invalidate(sig_).code(), StatusCode::kNotFound);
}

TEST_F(ViewStoreTest, TotalBytesTracksSealedViews) {
  ViewStore store;
  ASSERT_TRUE(store.BeginMaterialize(sig_, rec_, "vc0", 1, 0.0).ok());
  EXPECT_EQ(store.TotalBytes(), 0u);
  ASSERT_TRUE(store.Seal(sig_, MakeContents(), 1, 12, 0.0).ok());
  EXPECT_GT(store.TotalBytes(), 0u);
  store.InvalidateAll();
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST_F(ViewStoreTest, SealWithoutBeginFails) {
  ViewStore store;
  EXPECT_EQ(store.Seal(sig_, MakeContents(), 1, 12, 0.0).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cloudviews
