#include "exec/executor.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "exec/physical_verifier.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/plan_verifier.h"
#include "verify/verify.h"

namespace cloudviews {

namespace {

bool IsExchangeBoundary(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kAggregate:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kSpool:
      return true;
    default:
      return false;
  }
}

// Folds every registered operator's stats into *stats, in build order. A
// fused operator reports one (node, stats) pair per logical node it
// implements, so per-node accounting is DOP-invariant.
void HarvestStats(const std::vector<BatchOp*>& registry,
                  ExecutionStats* stats) {
  for (BatchOp* op : registry) {
    op->ExportStats([&](const LogicalOp* node, const OperatorStats& op_stats) {
      stats->per_node[node] = op_stats;
      stats->total_cpu_cost += op_stats.cpu_cost;
      stats->num_operators += 1;
      stats->morsels += op_stats.morsels;
      stats->morsel_busy_seconds += op_stats.busy_seconds;
      switch (node->kind) {
        case LogicalOpKind::kScan:
          stats->input_rows += op_stats.rows_out;
          stats->input_bytes += op_stats.bytes_out;
          stats->total_bytes_read += op_stats.bytes_out;
          break;
        case LogicalOpKind::kViewScan:
          stats->view_rows += op_stats.rows_out;
          stats->view_bytes += op_stats.bytes_out;
          stats->total_bytes_read += op_stats.bytes_out;
          break;
        case LogicalOpKind::kSharedScan:
          // Forwarded batches are charged like view reads: the producer's
          // compute lands on the producer pipeline, not the subscriber.
          stats->view_rows += op_stats.rows_out;
          stats->view_bytes += op_stats.bytes_out;
          stats->total_bytes_read += op_stats.bytes_out;
          break;
        default:
          // Exchange boundaries persist intermediate outputs to the local
          // store; their outputs are re-read by the next stage.
          if (IsExchangeBoundary(node->kind)) {
            stats->total_bytes_read += op_stats.bytes_out;
          }
          break;
      }
    });
    if (auto* spool = dynamic_cast<BatchSpoolOp*>(op)) {
      stats->bytes_spooled += spool->bytes_spooled();
      stats->spool_cpu_cost += spool->spool_cpu_cost();
    }
  }
}

ParallelRuntime ResolveRuntime(const ExecContext& context) {
  ParallelRuntime runtime;
  runtime.dop = context.dop > 0 ? context.dop : ThreadPool::DefaultDop();
  runtime.morsel_rows = context.morsel_rows > 0 ? context.morsel_rows : 1;
  if (runtime.dop > 1) {
    runtime.pool =
        context.pool != nullptr ? context.pool : &ThreadPool::Shared();
  }
  return runtime;
}

}  // namespace

Result<TablePtr> BindScanTable(const ExecContext& context,
                               const LogicalOp& node, bool* is_view_scan) {
  if (node.kind == LogicalOpKind::kScan) {
    *is_view_scan = false;
    if (context.catalog == nullptr) {
      return Status::Internal("executor has no dataset catalog");
    }
    auto dataset = context.catalog->Lookup(node.dataset_name);
    if (!dataset.ok()) return dataset.status();
    if (!node.dataset_guid.empty() && dataset->guid != node.dataset_guid) {
      return Status::Aborted("dataset " + node.dataset_name +
                             " changed version since compilation (bound " +
                             node.dataset_guid + ", current " + dataset->guid +
                             ")");
    }
    return dataset->table;
  }
  *is_view_scan = true;
  if (context.view_store == nullptr) {
    return Status::Internal("plan reads a view but no view store set");
  }
  const MaterializedView* view =
      context.view_store->Find(node.view_signature, context.now);
  if (view == nullptr || view->table == nullptr) {
    return Status::Aborted("materialized view vanished: " +
                           node.view_signature.ToHex());
  }
  return view->table;
}

Status RunBatchPlan(const ExecContext& context, const LogicalOpPtr& plan,
                    const BatchSink& sink, ExecutionStats* stats) {
  const ParallelRuntime runtime = ResolveRuntime(context);
  std::vector<BatchOp*> registry;
  BatchOpPtr root;
  {
    obs::Span span("build-physical", "exec");
    auto built = BuildBatchPlan(context, runtime, plan, &registry);
    if (!built.ok()) return built.status();
    root = std::move(built).value();
  }
  if constexpr (verify::RuntimeChecksEnabled()) {
    CLOUDVIEWS_RETURN_NOT_OK(verify::PhysicalVerifier::VerifyWiring(
        *plan, registry, runtime.dop, runtime.morsel_rows));
  }

  auto wall_start = std::chrono::steady_clock::now();
  {
    obs::Span span("open-operators", "exec");
    CLOUDVIEWS_RETURN_NOT_OK(root->Open());
  }
  Status drain;
  {
    obs::Span span("drain-output", "exec");
    while (true) {
      ColumnBatch batch;
      bool done = false;
      drain = root->NextBatch(&batch, &done);
      if (!drain.ok() || done) break;
      if constexpr (verify::RuntimeChecksEnabled()) {
        drain = verify::PhysicalVerifier::VerifyBatch(*plan, batch);
        if (!drain.ok()) break;
      }
      if (batch.num_rows == 0) continue;
      drain = sink(std::move(batch));
      if (!drain.ok()) break;
    }
  }
  root->Close();
  CLOUDVIEWS_RETURN_NOT_OK(drain);
  if constexpr (verify::RuntimeChecksEnabled()) {
    // The run completed: spool sealing must have fired exactly once per
    // spool, and per-operator row counts must respect operator contracts.
    CLOUDVIEWS_RETURN_NOT_OK(
        verify::PhysicalVerifier::VerifyPostRun(*plan, registry));
  }
  stats->wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stats->dop = runtime.dop;
  HarvestStats(registry, stats);
  return Status::OK();
}

Result<ExecResult> Executor::Execute(const LogicalOpPtr& plan) const {
  obs::Span exec_span("execute", "exec");
  if constexpr (verify::RuntimeChecksEnabled()) {
    // Fail before building anything: the executor trusts plan shape (child
    // arities, schema contracts) everywhere below.
    verify::PlanVerifyOptions options;
    options.catalog = context_.catalog;
    CLOUDVIEWS_RETURN_NOT_OK(verify::PlanVerifier(options).Verify(*plan));
  }

  auto output = std::make_shared<Table>("result", plan->output_schema);
  ExecResult result;
  result.output = output;
  ExecutionStats& stats = result.stats;
  CLOUDVIEWS_RETURN_NOT_OK(RunBatchPlan(
      context_, plan,
      [&output](ColumnBatch batch) { return output->AppendBatch(batch); },
      &stats));
  exec_span.Arg("dop", static_cast<int64_t>(stats.dop));

  // Process-wide roll-up (one sharded-atomic add per metric per query).
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kExecQueries);
  static obs::Counter& bytes_read =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kExecBytesRead);
  static obs::Counter& bytes_spooled =
      obs::MetricsRegistry::Global().counter(
          obs::metric_names::kExecBytesSpooled);
  static obs::Counter& morsels =
      obs::MetricsRegistry::Global().counter(obs::metric_names::kExecMorsels);
  queries.Increment();
  bytes_read.Add(stats.total_bytes_read);
  bytes_spooled.Add(stats.bytes_spooled);
  morsels.Add(stats.morsels);
  exec_span.Arg("rows_out", static_cast<uint64_t>(output->num_rows()));
  exec_span.Arg("morsels", stats.morsels);
  return result;
}

}  // namespace cloudviews
