#ifndef CLOUDVIEWS_EXEC_EXECUTOR_H_
#define CLOUDVIEWS_EXEC_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/exec_stats.h"
#include "common/status.h"
#include "exec/batch_op.h"
#include "plan/logical_plan.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "storage/view_store.h"

namespace cloudviews {

class ThreadPool;

namespace sharing {
class StreamDirectory;
}  // namespace sharing

// Everything an executing job can touch.
//
// Threading contract: Execute() may fan work out to `dop` pool threads, so
// every member below must stay immutable (and the pointed-to catalog /
// view store unmodified) for the duration of the call. `on_spool_complete`
// itself is only ever invoked from the driver thread that called Execute(),
// but when several Executors run concurrently (tests/concurrent_reuse_test.cc
// races eight of them on one spool) the callback fires concurrently across
// jobs and must synchronize any state it shares between them.
struct ExecContext {
  const DatasetCatalog* catalog = nullptr;
  // View store for ViewScan reads. May be null when reuse is disabled.
  const ViewStore* view_store = nullptr;
  // Called when a spool finishes materializing its subexpression (the early
  // sealing hook). May be null.
  SpoolCompletionFn on_spool_complete;
  // Called when a spool aborts materialization after a write fault (the
  // failure-hardening hook: withdraw the materializing view entry and
  // release the creation lock). May be null. Fired from the driver thread,
  // exactly once per aborted spool, instead of `on_spool_complete`.
  SpoolAbortFn on_spool_abort;
  // Seed for non-deterministic UDO instances (jobs differ run to run).
  uint64_t job_seed = 0;
  // Simulated "now" used to check view expiry during ViewScan binding.
  double now = 0.0;
  // Degree of parallelism for morsel-driven execution. 0 = auto (one per
  // hardware thread); 1 = serial. Any DOP produces the same output rows in
  // the same order; only wall-clock time and floating-point cost
  // *accumulation order* (not totals beyond rounding) differ.
  int dop = 0;
  // Rows per morsel. Morsel boundaries depend only on input size and this
  // knob — never on dop — which is what keeps outputs DOP-invariant.
  size_t morsel_rows = 4096;
  // Pool to run morsels on. Null = the process-wide ThreadPool::Shared()
  // (only consulted when the resolved dop > 1).
  ThreadPool* pool = nullptr;
  // Rows per column batch (clamped to >= 1). Output is identical at any
  // batch size; only amortization changes.
  size_t batch_rows = 1024;
  // Directory of in-flight shared-producer streams, consulted by SharedScan
  // operators. Null outside a sharing window; then every SharedScan detaches
  // immediately and runs its fallback plan (same bytes, no sharing).
  const sharing::StreamDirectory* sharing = nullptr;
  // Seconds a SharedScan waits for the producer's next batch before
  // detaching to its fallback plan. <= 0 disables the timeout.
  double sharing_wait_seconds = 5.0;
};

struct ExecResult {
  TablePtr output;
  ExecutionStats stats;
};

// Resolves a scan leaf to its backing table, enforcing GUID version pinning
// for datasets and expiry for views.
Result<TablePtr> BindScanTable(const ExecContext& context,
                               const LogicalOp& node, bool* is_view_scan);

// Receives each non-empty root batch of a physical run, in output order.
using BatchSink = std::function<Status(ColumnBatch batch)>;

// One physical run of `plan`: resolves the parallel runtime (dop 0 = one
// worker per hardware thread; the process-wide pool unless the context
// names one), builds the batch operator tree, brackets it with the
// PhysicalVerifier (wiring before Open, every root batch, post-run after
// Close — verification builds only), hands each non-empty root batch to
// `sink`, and harvests every operator's stats into *stats in build order
// (per-node entries, totals, morsel telemetry, spool bytes/cost, dop and
// the Open-to-Close wall time). Totals accumulate onto whatever *stats
// already holds. The Executor, the sharing producer and a detached
// SharedScan all run plans through this one bracket.
Status RunBatchPlan(const ExecContext& context, const LogicalOpPtr& plan,
                    const BatchSink& sink, ExecutionStats* stats);

// Interprets an (optimized) logical plan on the columnar batch engine. The
// Open/NextBatch/Close driver loop is single-threaded, but operators
// parallelize internally: linear scan/filter/project/UDO chains fuse into
// scan pipelines split into morsels, hash joins build partitioned tables
// and probe in morsels, and aggregations hash in morsels — all on a shared
// work-stealing pool. The cluster simulator combines the collected stats
// with the measured morsel telemetry to model cluster-scale parallelism.
// Outputs are specified by the serial reference interpreter in
// tests/reference_exec.
class Executor {
 public:
  explicit Executor(ExecContext context) : context_(std::move(context)) {}

  // Runs the plan to completion, returning the output table and statistics.
  Result<ExecResult> Execute(const LogicalOpPtr& plan) const;

 private:
  ExecContext context_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_EXECUTOR_H_
