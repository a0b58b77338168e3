// Engine-differential wall: the columnar batch engine must match the serial
// reference interpreter (tests/reference_exec) — same values, same value
// types, same null-ness, same row order — for every operator kind, at every
// DOP x batch_rows combination, including degenerate batch sizes (1-row
// batches, batches that do not divide the input) and under injected
// spool-write faults. Statistics must also agree: per-node rows_out and
// bytes_out exactly, cpu_cost to accumulation-order rounding (1e-6
// relative). Limit plans are the sanctioned exception: the engine stops
// pulling input at batch granularity while the reference materializes every
// input row, so only output is compared.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "exec/batch_op.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "plan/builder.h"
#include "storage/view_store.h"
#include "tests/reference_exec.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

const int kDops[] = {1, 4, 8};
const size_t kBatchSizes[] = {1, 3, 1024, 4096};

class ColumnarExecTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  ExecContext Context(int dop, size_t batch_rows) const {
    ExecContext context;
    context.catalog = &catalog_;
    context.view_store = view_store_;
    context.job_seed = 42;
    context.now = 100.0;
    context.dop = dop;
    // Small morsels so the 100/500-row test tables split into many morsels
    // and the parallel paths actually run.
    context.morsel_rows = 64;
    context.batch_rows = batch_rows;
    return context;
  }

  Result<ExecResult> Run(const LogicalOpPtr& plan, int dop,
                         size_t batch_rows) {
    Executor executor(Context(dop, batch_rows));
    return executor.Execute(plan);
  }

  Result<reference::ReferenceResult> Reference(const LogicalOpPtr& plan) {
    return reference::Execute(Context(1, 1), *plan);
  }

  LogicalOpPtr Plan(const std::string& sql,
                    JoinAlgorithm algorithm = JoinAlgorithm::kHash) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return nullptr;
    SetJoinAlgorithm(plan->get(), algorithm);
    return std::move(*plan);
  }

  static void SetJoinAlgorithm(LogicalOp* node, JoinAlgorithm algorithm) {
    if (node->kind == LogicalOpKind::kJoin && !node->equi_keys.empty()) {
      node->join_algorithm = algorithm;
    }
    for (const LogicalOpPtr& child : node->children) {
      SetJoinAlgorithm(child.get(), algorithm);
    }
  }

  // One string per row; any difference in value, type (int64 vs double
  // render differently), null-ness, or order shows up in the comparison.
  static std::vector<std::string> Render(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const Row& row : rows) {
      std::string s;
      for (const Value& v : row) {
        s += v.is_null() ? "<null>" : v.ToString();
        s += "|";
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  static void ExpectSameOutput(const std::vector<Row>& got,
                               const std::vector<Row>& want,
                               const std::string& label) {
    std::vector<std::string> g = Render(got);
    std::vector<std::string> w = Render(want);
    ASSERT_EQ(g.size(), w.size()) << label;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i], w[i]) << label << " row " << i;
    }
  }

  // Runs `plan` through the reference interpreter, then asserts the engine
  // matches it at every DOP x batch_rows combination. `output_only` is for
  // Limit plans, where input-side counters legitimately differ.
  void ExpectEngineParity(const LogicalOpPtr& plan, bool output_only = false) {
    ASSERT_NE(plan, nullptr);
    auto reference = Reference(plan);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    for (int dop : kDops) {
      for (size_t batch_rows : kBatchSizes) {
        const std::string label = "dop=" + std::to_string(dop) +
                                  " batch_rows=" + std::to_string(batch_rows);
        auto columnar = Run(plan, dop, batch_rows);
        ASSERT_TRUE(columnar.ok()) << label << ": "
                                   << columnar.status().ToString();
        ExpectSameOutput(columnar->output->rows(), reference->rows, label);
        if (output_only) continue;
        EXPECT_EQ(reference::StatsMismatch(columnar->stats, *reference), "")
            << label;
      }
    }
  }

  DatasetCatalog catalog_;
  const ViewStore* view_store_ = nullptr;
};

TEST_F(ColumnarExecTest, BareScan) {
  ExpectEngineParity(Plan("SELECT CustomerId, Name, MktSegment FROM Customer"));
}

TEST_F(ColumnarExecTest, FilterExpressions) {
  ExpectEngineParity(Plan(
      "SELECT SaleId FROM Sales WHERE (Discount < 0.05 AND "
      "PartId IN (1, 3, 5, 7)) OR SaleId BETWEEN 490 AND 495"));
}

TEST_F(ColumnarExecTest, LikeFilterOnStrings) {
  ExpectEngineParity(
      Plan("SELECT Name FROM Customer WHERE Name LIKE 'cust1%'"));
}

TEST_F(ColumnarExecTest, ProjectArithmetic) {
  ExpectEngineParity(Plan(
      "SELECT SaleId, Price * Quantity * (1.0 - Discount), "
      "Quantity + 1 FROM Sales"));
}

TEST_F(ColumnarExecTest, HashJoinDuplicateBuildKeys) {
  // Sales has 5 rows per CustomerId: duplicate-key matches inside the pooled
  // hash table must come newest-first, as the reference specifies.
  ExpectEngineParity(Plan(
      "SELECT Name, Price FROM Customer JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ColumnarExecTest, HashJoinWithResidualFilter) {
  ExpectEngineParity(Plan(
      "SELECT Name, Price, Quantity FROM Sales JOIN Customer "
      "ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' AND Price > 11"));
}

TEST_F(ColumnarExecTest, LeftOuterHashJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, Price FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId"));
}

TEST_F(ColumnarExecTest, MergeJoin) {
  ExpectEngineParity(Plan(
      "SELECT Name, Price FROM Customer JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId",
      JoinAlgorithm::kMerge));
}

TEST_F(ColumnarExecTest, LeftOuterMergeJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, Price FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId",
      JoinAlgorithm::kMerge));
}

TEST_F(ColumnarExecTest, LoopJoin) {
  ExpectEngineParity(Plan(
      "SELECT Brand, Price FROM Parts JOIN Sales "
      "ON Parts.PartId = Sales.PartId WHERE Quantity > 3",
      JoinAlgorithm::kLoop));
}

TEST_F(ColumnarExecTest, LeftOuterLoopJoin) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, SaleId FROM Customer LEFT JOIN Sales "
      "ON Customer.CustomerId = Sales.CustomerId AND Price > 15",
      JoinAlgorithm::kLoop));
}

TEST_F(ColumnarExecTest, GroupByAggregates) {
  ExpectEngineParity(Plan(
      "SELECT MktSegment, COUNT(*), SUM(CustomerId), MIN(Name), "
      "MAX(CustomerId) FROM Customer GROUP BY MktSegment "
      "ORDER BY MktSegment"));
}

TEST_F(ColumnarExecTest, FloatingPointAvgBitExact) {
  // AVG over doubles: the columnar aggregation must accumulate each group's
  // values in global input order or the last ulp drifts and rendering
  // differs.
  ExpectEngineParity(Plan(
      "SELECT PartId, AVG(Price * Quantity * (1.0 - Discount)), "
      "SUM(Discount) FROM Sales GROUP BY PartId ORDER BY PartId"));
}

TEST_F(ColumnarExecTest, ScalarAggregateAndCountDistinct) {
  ExpectEngineParity(Plan(
      "SELECT COUNT(*), AVG(Price), COUNT(DISTINCT PartId) FROM Sales"));
}

TEST_F(ColumnarExecTest, SortMultiKey) {
  ExpectEngineParity(Plan(
      "SELECT SaleId, Price FROM Sales WHERE Quantity > 2 "
      "ORDER BY Price DESC, SaleId"));
}

TEST_F(ColumnarExecTest, SortWithLimit) {
  ExpectEngineParity(
      Plan("SELECT SaleId, Price FROM Sales ORDER BY Price DESC, SaleId "
           "LIMIT 25"),
      /*output_only=*/true);
}

TEST_F(ColumnarExecTest, LimitOverStreamingScan) {
  // No materializing operator between the Limit and the scan: the engine
  // overruns by at most batch_rows - 1 input rows (the reference reads them
  // all), so only output is compared.
  ExpectEngineParity(Plan("SELECT SaleId FROM Sales WHERE Price > 11 LIMIT 7"),
                     /*output_only=*/true);
}

TEST_F(ColumnarExecTest, UnionAll) {
  ExpectEngineParity(Plan(
      "SELECT CustomerId FROM Customer UNION ALL SELECT PartId FROM Parts"));
}

TEST_F(ColumnarExecTest, DeterministicUdo) {
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(base.ok());
  ExpectEngineParity(LogicalOp::Udo((*base)->children[0], "MyExtractor",
                                    /*deterministic=*/true, 2,
                                    /*selectivity=*/0.5));
}

TEST_F(ColumnarExecTest, NonDeterministicUdoSameJobSeed) {
  // Non-deterministic UDOs mix an arrival counter into the keep/drop hash:
  // the engine sees rows in global input order at any DOP and batch size,
  // so with the same job seed the surviving set is the reference's. The
  // filter keeps the scan below the UDO splitting into parallel morsels.
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql(
      "SELECT Name FROM Customer WHERE CustomerId % 3 != 0");
  ASSERT_TRUE(base.ok());
  ExpectEngineParity(LogicalOp::Udo((*base)->children[0], "Random.Next",
                                    /*deterministic=*/false, 2,
                                    /*selectivity=*/0.5));
}

TEST_F(ColumnarExecTest, JoinAggregateSortEndToEnd) {
  ExpectEngineParity(Plan(
      "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
      "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
      "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId"));
}

TEST_F(ColumnarExecTest, SpoolSideTableIdentical) {
  // The spool's materialized side table — the bytes that become a
  // CloudView — must match the reference's, not just the query output.
  // Checksummed with the view store's integrity hash.
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql(
      "SELECT Name FROM Customer WHERE MktSegment = 'Asia'");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr spooled = LogicalOp::Spool((*base)->children[0]);
  LogicalOpPtr root = (*base)->Clone();
  root->children[0] = spooled;

  auto capture = [](ExecContext context, TablePtr* captured,
                    uint64_t* child_rows) {
    context.on_spool_complete = [captured, child_rows](
                                    const LogicalOp&, TablePtr contents,
                                    const OperatorStats& child_stats) {
      *captured = std::move(contents);
      *child_rows = child_stats.rows_out;
    };
    return context;
  };

  TablePtr want_side;
  uint64_t want_child_rows = 0;
  auto reference = reference::Execute(
      capture(Context(1, 1), &want_side, &want_child_rows), *root);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_NE(want_side, nullptr);
  EXPECT_EQ(want_child_rows, want_side->num_rows());
  const Hash128 want = ComputeTableChecksum(*want_side);

  for (int dop : kDops) {
    for (size_t batch_rows : kBatchSizes) {
      const std::string label = "dop=" + std::to_string(dop) +
                                " batch_rows=" + std::to_string(batch_rows);
      TablePtr col_side;
      uint64_t col_child_rows = 0;
      Executor executor(
          capture(Context(dop, batch_rows), &col_side, &col_child_rows));
      auto columnar = executor.Execute(root);
      ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
      ASSERT_NE(col_side, nullptr);
      ExpectSameOutput(columnar->output->rows(), reference->rows,
                       "spool output " + label);
      ExpectSameOutput(col_side->rows(), want_side->rows(),
                       "spool side table " + label);
      EXPECT_EQ(ComputeTableChecksum(*col_side), want) << label;
      EXPECT_EQ(col_child_rows, want_child_rows) << label;
      EXPECT_EQ(reference::StatsMismatch(columnar->stats, *reference), "")
          << label;
    }
  }
}

TEST_F(ColumnarExecTest, ViewScanParity) {
  // Seal a view, then read it back through a fused ViewScan+Udo chain on
  // the engine and the reference.
  ViewStore store;
  Hash128 sig = HashString("columnar-viewscan-parity");
  ASSERT_TRUE(store.BeginMaterialize(sig, sig, "vc0", 1, 50.0).ok());
  TablePtr contents = testing_util::MakeCustomerTable(37);
  ASSERT_TRUE(
      store.Seal(sig, contents, contents->num_rows(), contents->byte_size(),
                 60.0)
          .ok());
  view_store_ = &store;

  LogicalOpPtr scan =
      LogicalOp::ViewScan(sig, "views/parity", contents->schema());
  ExpectEngineParity(LogicalOp::Udo(scan, "MyExtractor",
                                    /*deterministic=*/true, 2,
                                    /*selectivity=*/0.7));
  view_store_ = nullptr;
}

TEST_F(ColumnarExecTest, StaleGuidAbortsIdentically) {
  PlanBuilder builder(&catalog_);
  auto plan = builder.BuildFromSql("SELECT Name FROM Customer");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(catalog_
                  .BulkUpdate("Customer", testing_util::MakeCustomerTable(),
                              "guid-customer-v2")
                  .ok());
  auto reference = Reference(*plan);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.status().code(), StatusCode::kAborted);
  for (int dop : kDops) {
    for (size_t batch_rows : kBatchSizes) {
      auto col_run = Run(*plan, dop, batch_rows);
      ASSERT_FALSE(col_run.ok());
      // Identical failure identity, message included.
      EXPECT_EQ(col_run.status().ToString(), reference.status().ToString())
          << "dop=" << dop << " batch_rows=" << batch_rows;
    }
  }
}

// --- Zero-copy scans and drains ----------------------------------------------

// A physical tree built for `plan` at `dop` on a private pool, as
// RunBatchPlan builds it.
struct Physical {
  Physical(const ExecContext& context, int dop, const LogicalOpPtr& plan)
      : pool(4) {
    runtime.dop = dop;
    runtime.pool = dop > 1 ? &pool : nullptr;
    runtime.morsel_rows = context.morsel_rows;
    auto built = BuildBatchPlan(context, runtime, plan, &registry);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    if (built.ok()) root = std::move(built).value();
  }

  // (node, stats) pairs of every operator, in build order.
  std::vector<std::pair<const LogicalOp*, OperatorStats>> Stats() const {
    std::vector<std::pair<const LogicalOp*, OperatorStats>> out;
    for (BatchOp* op : registry) {
      op->ExportStats([&](const LogicalOp* node, const OperatorStats& st) {
        out.emplace_back(node, st);
      });
    }
    return out;
  }

  ThreadPool pool;
  ParallelRuntime runtime;
  std::vector<BatchOp*> registry;
  BatchOpPtr root;
};

std::vector<Row> ChunkRows(const std::vector<ColumnPtr>& columns,
                           size_t num_rows) {
  std::vector<Row> rows(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    for (const ColumnPtr& col : columns) rows[i].push_back(col->GetValue(i));
  }
  return rows;
}

TEST_F(ColumnarExecTest, WholeTableScansShareTableBuffers) {
  auto dataset = catalog_.Lookup("Customer");
  ASSERT_TRUE(dataset.ok());
  const TablePtr table = dataset->table;
  LogicalOpPtr scan =
      LogicalOp::Scan("Customer", dataset->guid, table->schema());
  auto expect_shared = [&](const std::vector<ColumnPtr>& columns,
                           const std::string& label) {
    ASSERT_EQ(columns.size(), table->num_columns()) << label;
    for (size_t c = 0; c < columns.size(); ++c) {
      EXPECT_EQ(columns[c].get(), table->column(c).get())
          << label << " column " << c;
    }
  };

  // DOP 1: a drain runs the whole table as one range however small the
  // batches, and hands out the table's own buffers.
  {
    Physical physical(Context(1, 3), 1, scan);
    ASSERT_TRUE(physical.root->Open().ok());
    BatchChunk chunk;
    ASSERT_TRUE(physical.root->Drain(&chunk).ok());
    EXPECT_EQ(chunk.num_rows, table->num_rows());
    expect_shared(chunk.columns, "dop 1 drain");
    physical.root->Close();
  }
  // DOP 4: the eager bare scan is one batch holding the table's buffers,
  // whether pulled or drained.
  for (bool drain : {false, true}) {
    Physical physical(Context(4, 3), 4, scan);
    ASSERT_TRUE(physical.root->Open().ok());
    if (drain) {
      BatchChunk chunk;
      ASSERT_TRUE(physical.root->Drain(&chunk).ok());
      EXPECT_EQ(chunk.num_rows, table->num_rows());
      expect_shared(chunk.columns, "dop 4 drain");
    } else {
      ColumnBatch batch;
      bool done = false;
      ASSERT_TRUE(physical.root->NextBatch(&batch, &done).ok());
      ASSERT_FALSE(done);
      EXPECT_EQ(batch.num_rows, table->num_rows());
      expect_shared(batch.columns, "dop 4 batch");
      ASSERT_TRUE(physical.root->NextBatch(&batch, &done).ok());
      EXPECT_TRUE(done);
    }
    physical.root->Close();
  }
  // End to end: the query's output table adopts the single output batch,
  // so it shares the dataset's buffers too.
  for (int dop : {1, 4}) {
    auto result = Run(scan, dop, /*batch_rows=*/1024);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<ColumnPtr> columns;
    for (size_t c = 0; c < result->output->num_columns(); ++c) {
      columns.push_back(result->output->column(c));
    }
    expect_shared(columns, "output at dop " + std::to_string(dop));
  }
}

TEST_F(ColumnarExecTest, DrainChargesExactlyWhatNextBatchCharges) {
  // Drain runs the remaining rows of a chain without row-dropping stages
  // as one range; every stage must still be charged as over batch_rows-row
  // batches, bit for bit. A chain whose filter and UDO drop rows unevenly
  // across batches drains batch by batch and must agree too. Likewise the
  // eager bare scan (one range) charges as its morsel split would.
  LogicalOpPtr projected =
      Plan("SELECT SaleId, Price * Quantity, Discount FROM Sales");
  ASSERT_NE(projected, nullptr);
  LogicalOpPtr base = Plan(
      "SELECT SaleId, Price * Quantity, Discount FROM Sales "
      "WHERE Discount < 0.05 OR PartId % 3 = 0");
  ASSERT_NE(base, nullptr);
  LogicalOpPtr plan = LogicalOp::Udo(base, "MyExtractor",
                                     /*deterministic=*/true, 2,
                                     /*selectivity=*/0.6);
  auto sales = catalog_.Lookup("Sales");
  ASSERT_TRUE(sales.ok());
  LogicalOpPtr bare =
      LogicalOp::Scan("Sales", sales->guid, sales->table->schema());

  auto expect_same_stats = [](const Physical& got, const Physical& want,
                              const std::string& label) {
    auto g = got.Stats();
    auto w = want.Stats();
    ASSERT_EQ(g.size(), w.size()) << label;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(g[i].first, w[i].first) << label;
      EXPECT_EQ(g[i].second.rows_out, w[i].second.rows_out) << label;
      EXPECT_EQ(g[i].second.bytes_out, w[i].second.bytes_out) << label;
      EXPECT_EQ(g[i].second.cpu_cost, w[i].second.cpu_cost) << label;
    }
  };
  auto pull_all = [](Physical* physical, std::vector<Row>* rows) {
    ASSERT_TRUE(physical->root->Open().ok());
    while (true) {
      ColumnBatch batch;
      bool done = false;
      ASSERT_TRUE(physical->root->NextBatch(&batch, &done).ok());
      if (done) break;
      for (Row& row : ChunkRows(batch.columns, batch.num_rows)) {
        rows->push_back(std::move(row));
      }
    }
  };

  for (const LogicalOpPtr& root : {projected, plan}) {
    for (size_t batch_rows :
         {size_t{1}, size_t{3}, size_t{64}, size_t{1024}}) {
      const std::string label =
          std::string(root == plan ? "filter+udo" : "project") +
          " batch_rows=" + std::to_string(batch_rows);
      Physical pulled(Context(1, batch_rows), 1, root);
      std::vector<Row> want;
      pull_all(&pulled, &want);
      Physical drained(Context(1, batch_rows), 1, root);
      ASSERT_TRUE(drained.root->Open().ok());
      BatchChunk chunk;
      ASSERT_TRUE(drained.root->Drain(&chunk).ok());
      ExpectSameOutput(ChunkRows(chunk.columns, chunk.num_rows), want, label);
      expect_same_stats(drained, pulled, label);
    }
  }

  // Context() uses 64-row morsels: the eager scan charges 64-row chunks,
  // exactly like a serial scan pulled in 64-row batches.
  Physical serial(Context(1, 64), 1, bare);
  std::vector<Row> want;
  pull_all(&serial, &want);
  Physical eager(Context(4, 3), 4, bare);
  std::vector<Row> got;
  pull_all(&eager, &got);
  ExpectSameOutput(got, want, "eager bare scan");
  expect_same_stats(eager, serial, "eager bare scan");
}

class ColumnarFaultMatrixTest : public ColumnarExecTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(ColumnarFaultMatrixTest, SpoolAbortMatchesReferencePrefix) {
  // Deterministic spool-write fault on the nth write: the engine hits the
  // site once per spooled row in global row order, so at every DOP x
  // batch_rows it aborts on the reference side table's nth row, has spooled
  // exactly the bytes of the rows before it, fires the abort hook once, and
  // degrades to pass-through with the reference's clean query output.
  const int nth = GetParam();
  PlanBuilder builder(&catalog_);
  auto base = builder.BuildFromSql(
      "SELECT Name, CustomerId FROM Customer WHERE CustomerId < 80");
  ASSERT_TRUE(base.ok());
  LogicalOpPtr spooled = LogicalOp::Spool((*base)->children[0]);
  LogicalOpPtr root = (*base)->Clone();
  root->children[0] = spooled;

  fault::FaultInjector::Global().Disarm();
  TablePtr clean_side;
  ExecContext reference_context = Context(1, 1);
  reference_context.on_spool_complete = [&clean_side](const LogicalOp&,
                                                       TablePtr contents,
                                                       const OperatorStats&) {
    clean_side = std::move(contents);
  };
  auto clean = reference::Execute(reference_context, *root);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_NE(clean_side, nullptr);
  ASSERT_GE(clean_side->num_rows(), static_cast<size_t>(nth));
  uint64_t want_bytes = 0;
  for (int i = 0; i + 1 < nth; ++i) {
    for (const Value& v : clean_side->row(static_cast<size_t>(i))) {
      want_bytes += v.ByteSize();
    }
  }

  for (int dop : kDops) {
    for (size_t batch_rows : kBatchSizes) {
      auto plan = fault::FaultPlan::Parse(
          std::string(fault::sites::kSpoolWrite) + "=nth:" +
          std::to_string(nth));
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      fault::FaultInjector::Global().Arm(*plan);
      int aborts = 0;
      bool sealed = false;
      ExecContext context = Context(dop, batch_rows);
      context.on_spool_abort = [&aborts](const LogicalOp&, const Status&) {
        aborts += 1;
      };
      context.on_spool_complete = [&sealed](const LogicalOp&, TablePtr,
                                            const OperatorStats&) {
        sealed = true;
      };
      Executor executor(context);
      auto col_run = executor.Execute(root);
      fault::FaultInjector::Global().Disarm();
      const std::string label = "nth=" + std::to_string(nth) +
                                " dop=" + std::to_string(dop) +
                                " batch_rows=" + std::to_string(batch_rows);
      ASSERT_TRUE(col_run.ok()) << label << ": "
                                << col_run.status().ToString();
      EXPECT_EQ(aborts, 1) << label;
      EXPECT_FALSE(sealed) << label;
      ExpectSameOutput(col_run->output->rows(), clean->rows, label);
      EXPECT_EQ(col_run->stats.bytes_spooled, want_bytes) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, ColumnarFaultMatrixTest,
                         ::testing::Values(1, 17, 79));

}  // namespace
}  // namespace cloudviews
