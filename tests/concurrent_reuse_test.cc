#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/insights_service.h"
#include "core/view_selection.h"
#include "exec/executor.h"
#include "plan/builder.h"
#include "plan/normalizer.h"
#include "plan/signature.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

class ConcurrentReuseTest : public ::testing::Test {
 protected:
  void SetUp() override { testing_util::RegisterFigure4Tables(&catalog_); }

  LogicalOpPtr Build(const std::string& sql) {
    PlanBuilder builder(&catalog_);
    auto plan = builder.BuildFromSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  TablePtr RunIsolated(const LogicalOpPtr& plan) {
    ExecContext context;
    context.catalog = &catalog_;
    Executor executor(context);
    auto r = executor.Execute(PlanNormalizer::Normalize(plan));
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->output : nullptr;
  }

  DatasetCatalog catalog_;
};

const char* kQ1 =
    "SELECT Customer.CustomerId, AVG(Price * Quantity) FROM Sales "
    "JOIN Customer ON Sales.CustomerId = Customer.CustomerId "
    "WHERE MktSegment = 'Asia' GROUP BY Customer.CustomerId";

TEST_F(ConcurrentReuseTest, SpoolSealsExactlyOnceUnderConcurrency) {
  // Eight executors race to materialize the same spooled subexpression.
  // Every SpoolOp instance must fire its completion callback exactly once
  // (the atomic early-sealing latch), and a shared first-wins registry —
  // the pattern the view store uses — must end up with exactly one sealed
  // copy per signature.
  constexpr int kJobs = 8;

  LogicalOpPtr base = Build(kQ1);
  ASSERT_NE(base, nullptr);
  LogicalOpPtr normalized = PlanNormalizer::Normalize(base);

  // Spool the filtered-join subtree beneath the aggregate, exactly as the
  // view materializer would.
  ASSERT_FALSE(normalized->children.empty());
  LogicalOpPtr* target = &normalized->children[0];
  while (!(*target)->children.empty() &&
         (*target)->kind != LogicalOpKind::kJoin) {
    target = &(*target)->children[0];
  }
  SignatureComputer computer;
  NodeSignature sig = computer.Compute(**target);
  LogicalOpPtr spool = LogicalOp::Spool(*target);
  spool->view_signature = sig.strict;
  spool->view_recurring_signature = sig.recurring;
  *target = std::move(spool);

  TablePtr expected = RunIsolated(base);
  ASSERT_NE(expected, nullptr);

  // Shared sealing registry: first writer wins, later completions of the
  // same signature are counted but must not replace the sealed contents.
  std::mutex registry_mu;
  std::map<Hash128, TablePtr> registry;
  std::atomic<int> total_completions{0};
  std::atomic<int> seal_wins{0};
  std::vector<std::atomic<int>> per_job_completions(kJobs);
  for (auto& c : per_job_completions) c.store(0);

  ThreadPool pool(4);
  std::vector<TablePtr> outputs(kJobs);
  TaskGroup group(&pool);
  for (int job = 0; job < kJobs; ++job) {
    group.Spawn([&, job]() -> Status {
      // Each job executes its own clone of the spooled plan, morsel-parallel
      // on the same pool the jobs themselves run on (nested parallelism).
      LogicalOpPtr plan = normalized->Clone();
      ExecContext context;
      context.catalog = &catalog_;
      context.dop = 2;
      context.morsel_rows = 16;
      context.pool = &pool;
      context.on_spool_complete = [&, job](const LogicalOp& node,
                                           TablePtr contents,
                                           const OperatorStats& stats) {
        EXPECT_EQ(node.kind, LogicalOpKind::kSpool);
        EXPECT_EQ(stats.rows_out, contents->num_rows());
        total_completions.fetch_add(1, std::memory_order_relaxed);
        per_job_completions[job].fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(registry_mu);
        auto [it, inserted] =
            registry.emplace(node.view_signature, std::move(contents));
        if (inserted) seal_wins.fetch_add(1, std::memory_order_relaxed);
      };
      Executor executor(context);
      auto r = executor.Execute(plan);
      if (!r.ok()) return r.status();
      outputs[job] = r->output;
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());

  // One completion per spool instance, no double-fires, no lost seals.
  EXPECT_EQ(total_completions.load(), kJobs);
  for (int job = 0; job < kJobs; ++job) {
    EXPECT_EQ(per_job_completions[job].load(), 1) << "job " << job;
  }
  // All jobs spooled the same signature: exactly one registry entry won.
  EXPECT_EQ(seal_wins.load(), 1);
  ASSERT_EQ(registry.size(), 1u);
  const TablePtr& sealed = registry.begin()->second;
  ASSERT_NE(sealed, nullptr);
  EXPECT_GT(sealed->num_rows(), 0u);

  // Concurrency changed nothing about the answers.
  for (int job = 0; job < kJobs; ++job) {
    ASSERT_NE(outputs[job], nullptr) << "job " << job;
    EXPECT_EQ(outputs[job]->num_rows(), expected->num_rows())
        << "job " << job;
  }
}

TEST_F(ConcurrentReuseTest, ConcurrentAnnotationFetchesCountEveryCall) {
  // FetchAnnotations is const and called from every concurrently compiling
  // job; its fetch counter is the only mutation. Hammer it from many
  // threads (under TSan this is the regression test for the counter being
  // a plain int64_t) and check no fetch is lost or double-counted.
  InsightsService service;
  SelectionResult selection;
  for (int i = 0; i < 4; ++i) {
    ViewCandidate cand;
    cand.recurring_signature = HashString("conc-" + std::to_string(i));
    cand.utility = 1.0 + i;
    selection.selected.push_back(cand);
  }
  service.PublishSelection(selection);

  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 200;
  ThreadPool pool(kThreads);
  TaskGroup group(&pool);
  std::atomic<int64_t> hits_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    group.Spawn([&, t]() -> Status {
      for (int i = 0; i < kFetchesPerThread; ++i) {
        auto hits = service.FetchAnnotations(
            {HashString("conc-" + std::to_string((t + i) % 4)),
             HashString("never-published")});
        if (hits.size() != 1u) {
          return Status::Internal("expected exactly one annotation hit");
        }
        hits_seen.fetch_add(static_cast<int64_t>(hits.size()),
                            std::memory_order_relaxed);
        // Concurrent readers of the counter race with the writers above;
        // the value observed mid-run must be sane, not torn.
        int64_t seen = service.fetch_count();
        if (seen < 1 || seen > kThreads * kFetchesPerThread) {
          return Status::Internal("torn fetch count");
        }
      }
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(service.fetch_count(), kThreads * kFetchesPerThread);
  EXPECT_EQ(hits_seen.load(), kThreads * kFetchesPerThread);
  EXPECT_GT(service.total_fetch_latency(), 0.0);
}

}  // namespace
}  // namespace cloudviews
