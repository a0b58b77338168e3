// Microbenchmarks: morsel-driven parallel execution on the columnar engine.
//
// Runs the Figure 7 workload's query shapes (scan-heavy filters, the
// fact-dimension join, and group-by aggregation) on ~40x-scaled tables at
// DOP {1, 4, 8}. Each cell reports absolute input rows per second and
// estimated cycles per tuple (seconds * CLOUDVIEWS_CPU_GHZ, default 3.0);
// every timing is the MINIMUM over several runs so the committed BENCH
// baseline stays stable under scheduler noise. The headline `*_scaling`
// metrics are throughput at DOP 4 and 8 over throughput at DOP 1 for the
// same shape — how much the morsel pool actually buys on this machine.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.h"
#include "exec/executor.h"
#include "plan/builder.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

// Figure-4 schema at ~40x the unit-test row counts (scaled by --scale).
constexpr int kCustomers = 4000;
constexpr int kSales = 20000;
constexpr int kParts = 800;

struct QueryShape {
  const char* name;
  const char* sql;
};

const QueryShape kShapes[] = {
    {"scan_filter_project",
     "SELECT SaleId, Price * Quantity FROM Sales "
     "WHERE Discount < 0.05 AND Quantity > 2"},
    {"hash_join",
     "SELECT Name, Price FROM Sales JOIN Customer "
     "ON Sales.CustomerId = Customer.CustomerId "
     "WHERE MktSegment = 'Asia'"},
    {"aggregate",
     "SELECT CustomerId, SUM(Price * Quantity), COUNT(*) FROM Sales "
     "GROUP BY CustomerId"},
    {"join_aggregate",
     "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
     "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
     "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId"},
};

double CpuGhz() {
  const char* env = std::getenv("CLOUDVIEWS_CPU_GHZ");
  if (env != nullptr && env[0] != '\0') return std::atof(env);
  return 3.0;
}

constexpr int kDops[] = {1, 4, 8};
constexpr size_t kNumDops = sizeof(kDops) / sizeof(kDops[0]);

struct Measurement {
  double seconds = std::numeric_limits<double>::infinity();  // min over runs
  uint64_t input_rows = 0;
};

// Times `plan` at every DOP, `runs` rounds after one warm-up round
// (first-touch, pool spin-up). The DOPs interleave within each round, so
// machine-load drift hits the DOP-1 denominator and the DOP-N numerators
// of the scaling ratios alike.
void Measure(const DatasetCatalog& catalog, const LogicalOpPtr& plan,
             int runs, Measurement (*out)[kNumDops]) {
  for (int round = 0; round <= runs; ++round) {
    for (size_t d = 0; d < kNumDops; ++d) {
      ExecContext context;
      context.catalog = &catalog;
      context.dop = kDops[d];
      Executor executor(context);
      auto r = executor.Execute(plan);
      if (!r.ok()) {
        std::printf("bench query failed: %s\n",
                    r.status().ToString().c_str());
        std::abort();
      }
      if (round == 0) continue;
      Measurement& m = (*out)[d];
      m.seconds = std::min(m.seconds, r->stats.wall_seconds);
      m.input_rows = r->stats.input_rows;
    }
  }
}

int RunBench(int argc, char** argv) {
  const double scale = bench_util::ParseScale(argc, argv, 1.0);
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) runs = std::atoi(argv[i] + 7);
  }
  const double ghz = CpuGhz();
#if defined(__GLIBC__)
  // glibc moves its mmap and trim thresholds as large blocks are freed, so
  // the table builds below would leave them wherever their heap history put
  // them, and each query's output table would then re-fault trimmed heap
  // pages. Pinning both first keeps every DOP timing on a warm heap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  bench_util::PrintHeader(
      "Parallel execution micro: columnar engine, DOP {1, 4, 8}",
      "ROADMAP item 2: execution that scales with cores");

  DatasetCatalog catalog;
  catalog
      .Register("Customer",
                testing_util::MakeCustomerTable(
                    static_cast<int>(kCustomers * scale)),
                "guid-customer-v1")
      .ok();
  catalog
      .Register("Sales",
                testing_util::MakeSalesTable(static_cast<int>(kSales * scale)),
                "guid-sales-v1")
      .ok();
  catalog
      .Register("Parts",
                testing_util::MakePartsTable(static_cast<int>(kParts * scale)),
                "guid-parts-v1")
      .ok();

  bench_util::JsonReport report("micro_parallel_exec");
  report.Metric("scale", scale)
      .Metric("runs", static_cast<int64_t>(runs))
      .Metric("cpu_ghz", ghz);

  std::printf("%-20s %4s | %12s | %9s | %8s\n", "query", "dop", "Mrows/s",
              "cyc/t", "scaling");

  for (const QueryShape& shape : kShapes) {
    PlanBuilder builder(&catalog);
    auto plan = builder.BuildFromSql(shape.sql);
    if (!plan.ok()) {
      std::printf("plan failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    Measurement measured[kNumDops];
    Measure(catalog, *plan, runs, &measured);
    const double dop1_rps = static_cast<double>(measured[0].input_rows) /
                            measured[0].seconds;
    for (size_t d = 0; d < kNumDops; ++d) {
      const int dop = kDops[d];
      const Measurement& m = measured[d];
      const double rows = static_cast<double>(m.input_rows);
      const double rps = rows / m.seconds;
      const double cyc = m.seconds * ghz * 1e9 / rows;
      const double scaling = rps / dop1_rps;
      std::printf("%-20s %4d | %12.2f | %9.1f | %7.2fx\n", shape.name, dop,
                  rps * 1e-6, cyc, scaling);

      const std::string prefix =
          std::string(shape.name) + "_dop" + std::to_string(dop);
      report.Metric((prefix + "_col_rows_per_sec").c_str(), rps)
          .Metric((prefix + "_col_cycles_per_tuple").c_str(), cyc);
      if (dop > 1) report.Metric((prefix + "_scaling").c_str(), scaling);
    }
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace cloudviews

int main(int argc, char** argv) { return cloudviews::RunBench(argc, argv); }
