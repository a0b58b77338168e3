#ifndef CLOUDVIEWS_EXEC_BATCH_OP_H_
#define CLOUDVIEWS_EXEC_BATCH_OP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/exec_stats.h"
#include "common/status.h"
#include "exec/pooled_hash.h"
#include "plan/logical_plan.h"
#include "storage/column.h"
#include "storage/table.h"

namespace cloudviews {

class ThreadPool;
struct ExecContext;

// Vectorized (columnar batch-at-a-time) physical operators: the one
// execution engine. Every operator keeps row-at-a-time semantics — values,
// types, null-ness, row order — exactly, at any DOP and any batch size, and
// the same OperatorStats accounting (integer counters exactly;
// floating-point cost to accumulation-order rounding). The specification is
// the serial reference interpreter in tests/reference_exec, which the
// differential tests diff every operator against.

// Morsel-parallel execution parameters, resolved from the ExecContext and
// handed to operators that can use them. dop <= 1 (or a null pool) means
// serial execution.
struct ParallelRuntime {
  ThreadPool* pool = nullptr;
  int dop = 1;
  size_t morsel_rows = 4096;

  bool Enabled() const { return pool != nullptr && dop > 1; }
};

// ParallelFor over [0, n) in `grain`-row morsels on runtime's pool, also
// recording the morsel count and summed per-morsel busy wall time into
// *stats (the telemetry the cluster simulator consumes).
Status TimedParallelFor(const ParallelRuntime& runtime, size_t n, size_t grain,
                        const std::function<Status(size_t morsel, size_t begin,
                                                   size_t end)>& fn,
                        OperatorStats* stats);

// Fired once when a spool finishes materializing its subexpression, with
// the side table and the spool child's stats — the early-sealing hook.
using SpoolCompletionFn =
    std::function<void(const LogicalOp& spool, TablePtr contents,
                       const OperatorStats& child_stats)>;
// Fired (instead of the completion callback, still exactly once) when the
// spool's write path failed mid-materialization: the view manager must
// withdraw the materializing entry and release the creation lock so another
// job can retry. The query itself keeps streaming — a failed spool degrades
// to a pass-through, never a failed job.
using SpoolAbortFn =
    std::function<void(const LogicalOp& spool, const Status& cause)>;

// A fully drained child output in columnar form (all batches concatenated).
struct BatchChunk {
  std::vector<ColumnPtr> columns;
  size_t num_rows = 0;
};

// Pull-based batch operator: Open() once, NextBatch() until *done, Close().
// Batches are dense (no selection vectors across operator boundaries) and
// hold 1..batch_rows rows when streamed (an eager pipeline hands out whole
// morsels, an eager bare scan its whole table); zero-row batches may appear
// and consumers must tolerate them. The Open/NextBatch/Close driver runs on
// a single thread; operators may fan internal work out to a ParallelRuntime
// during Open, but every morsel task is joined before Open returns.
class BatchOp {
 public:
  explicit BatchOp(const LogicalOp* logical) : logical_(logical) {}
  virtual ~BatchOp() = default;

  BatchOp(const BatchOp&) = delete;
  BatchOp& operator=(const BatchOp&) = delete;

  virtual Status Open() = 0;
  virtual Status NextBatch(ColumnBatch* batch, bool* done) = 0;
  virtual void Close() {}

  // Runs the operator to completion (after Open) and returns all of its
  // remaining output as one chunk, with the stats a NextBatch drain would
  // record. The default drains NextBatch and concatenates; an operator that
  // can produce its output in one piece overrides it to skip the per-batch
  // slicing and the concatenation. Materializing consumers (hash-join
  // build, aggregate, sort, merge/loop-join inputs) drain through this.
  virtual Status Drain(BatchChunk* chunk);

  const LogicalOp* logical() const { return logical_; }
  const OperatorStats& stats() const { return stats_; }

  // Reports (logical node, stats) pairs for every logical operator this
  // physical operator implements. Fused operators (the scan pipeline)
  // implement several logical nodes at once and override this.
  virtual void ExportStats(
      const std::function<void(const LogicalOp*, const OperatorStats&)>& fn)
      const {
    fn(logical_, stats_);
  }

 protected:
  void AddCost(double cpu_cost) { stats_.cpu_cost += cpu_cost; }
  void MergeStats(const OperatorStats& other) {
    stats_.rows_out += other.rows_out;
    stats_.bytes_out += other.bytes_out;
    stats_.cpu_cost += other.cpu_cost;
    stats_.morsels += other.morsels;
    stats_.busy_seconds += other.busy_seconds;
  }

  const LogicalOp* logical_;
  OperatorStats stats_;
};

using BatchOpPtr = std::unique_ptr<BatchOp>;

// Concatenates drained batches (all of one arity) into one chunk.
void ConcatToChunk(const std::vector<ColumnBatch>& batches, BatchChunk* chunk);

// Builds the batch operator tree for `plan` (context.batch_rows-row
// batches), registering every operator in `registry` for stats harvesting
// and verifier bracketing. Its one caller is RunBatchPlan (exec/executor.h).
Result<BatchOpPtr> BuildBatchPlan(const ExecContext& context,
                                  const ParallelRuntime& runtime,
                                  const LogicalOpPtr& plan,
                                  std::vector<BatchOp*>* registry);

// --- Leaf / fused pipeline --------------------------------------------------

// Columnar scan pipeline: a Scan/ViewScan plus the maximal fused chain of
// {Filter, Project, deterministic Udo} stages above it. Runs in one of two
// modes:
//  - streaming (serial): each NextBatch() processes the next batch_rows-row
//    slice of the table through every stage — used at dop=1 and under a
//    Limit, where eager materialization would do work a serial run never
//    performs. Drain() of a chain with no Filter or Udo stage runs all
//    remaining rows as one range instead;
//  - eager (parallel): Open() splits the table into morsel_rows-row morsels
//    processed concurrently via TimedParallelFor, and NextBatch() hands out
//    the per-morsel outputs in morsel order (DOP-invariant). A bare scan has
//    no per-row work to split and runs as one range.
// A range covering the whole table starts from the table's own column
// buffers (a bare scan of it copies nothing); any other range starts from a
// copy of its slice. Per-stage stats match what each stage would count as a
// discrete operator over batch_rows-row (streaming) or morsel_rows-row
// (eager) batches, however the rows were grouped into ranges — cost totals
// included, bit for bit. Morsel telemetry is attributed to the chain's top
// stage only.
class BatchScanPipelineOp : public BatchOp {
 public:
  // `chain` lists the fused logical nodes from the scan upward (the last
  // element is `logical`, the chain's top; a bare scan has a 1-chain).
  BatchScanPipelineOp(const LogicalOp* logical,
                      std::vector<const LogicalOp*> chain, TablePtr table,
                      bool is_view_scan, ParallelRuntime runtime,
                      size_t batch_rows, bool eager_parallel);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  Status Drain(BatchChunk* chunk) override;
  void Close() override;

  void ExportStats(
      const std::function<void(const LogicalOp*, const OperatorStats&)>& fn)
      const override;

 private:
  struct Stage {
    const LogicalOp* op = nullptr;
    uint64_t udo_seed = 0;
  };

  // Runs table rows [begin, end) through every stage as one batch into
  // *out, adding to (*stage_stats)[s] what stage s would count over the
  // range split into `chunk_rows`-row batches, batch by batch in order.
  // A range longer than `chunk_rows` requires !drops_rows_.
  Status RunRange(size_t begin, size_t end, size_t chunk_rows,
                  ColumnBatch* out,
                  std::vector<OperatorStats>* stage_stats) const;
  void FoldStageStats(const std::vector<OperatorStats>& stage_stats);

  std::vector<Stage> stages_;  // scan first, chain top last
  std::vector<OperatorStats> stage_stats_;  // parallel to stages_
  TablePtr table_;
  bool is_view_scan_;
  ParallelRuntime runtime_;
  size_t batch_rows_;
  bool eager_parallel_;
  bool drops_rows_ = false;            // some stage is a Filter or Udo
  size_t pos_ = 0;                     // streaming cursor
  std::vector<ColumnBatch> outputs_;   // eager mode, morsel order
  size_t out_index_ = 0;
};

// --- Unary operators --------------------------------------------------------

// Standalone vectorized filter (used when the filter cannot fuse into a scan
// pipeline, e.g. above a join).
class BatchFilterOp : public BatchOp {
 public:
  BatchFilterOp(const LogicalOp* logical, BatchOpPtr child);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
};

class BatchProjectOp : public BatchOp {
 public:
  BatchProjectOp(const LogicalOp* logical, BatchOpPtr child);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
};

class BatchLimitOp : public BatchOp {
 public:
  BatchLimitOp(const LogicalOp* logical, BatchOpPtr child);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  int64_t produced_ = 0;
};

// Vectorized UDO filter: a per-row (seed, row content[, arrival counter])
// keep/drop hash, evaluated batch-at-a-time. Rows arrive in global input
// order (batches stream in morsel order), so the non-deterministic arrival
// counter numbers rows exactly as a serial row-at-a-time run would.
class BatchUdoOp : public BatchOp {
 public:
  BatchUdoOp(const LogicalOp* logical, BatchOpPtr child,
             uint64_t instance_seed);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  uint64_t seed_;
  uint64_t counter_ = 0;
};

// Materializing sort: drains the child into one chunk, argsorts row indices
// (stable, per-key CompareCells honoring ascending flags — Value::Compare
// order), gathers once, and emits batch_rows-row slices.
class BatchSortOp : public BatchOp {
 public:
  BatchSortOp(const LogicalOp* logical, BatchOpPtr child, size_t batch_rows);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr child_;
  size_t batch_rows_;
  BatchChunk sorted_;
  size_t pos_ = 0;
};

// Vectorized hash aggregation over an arena-pooled group table. Group keys
// and aggregate arguments are evaluated vectorized over the whole input
// chunk; rows then accumulate into their groups in global input order (so
// floating-point sums and DISTINCT discovery order match serial row
// execution bit for bit), and groups are emitted sorted by key (a total
// order: distinct groups always differ on some key column under Compare).
class BatchAggregateOp : public BatchOp {
 public:
  BatchAggregateOp(const LogicalOp* logical, BatchOpPtr child,
                   size_t batch_rows);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

  void set_parallel(const ParallelRuntime& runtime) { runtime_ = runtime; }

 private:
  struct AggState {
    double sum = 0.0;
    int64_t sum_int = 0;
    bool int_only = true;
    int64_t count = 0;
    // Row ordinals (into the evaluated argument column) of the current
    // min/max; -1 while unset. Avoids materializing per-group Values.
    int64_t min_row = -1;
    int64_t max_row = -1;
    std::vector<uint32_t> distinct_rows;  // linear set of representative rows
  };
  struct Group {
    uint32_t first_row = 0;  // representative key = key cells at this row
    std::vector<AggState> states;
  };

  BatchOpPtr child_;
  ParallelRuntime runtime_;
  size_t batch_rows_;
  BatchChunk output_;
  size_t pos_ = 0;
};

// Dual-consumer spool: streams batches through to the parent while
// appending them column-wise to a side table. When the stream completes it
// invokes `on_complete` with the materialized contents — the hook the view
// manager uses to seal the CloudView (early sealing happens here, before
// the whole job ends). Each spooled row is one exec.spool.write fault check;
// a failed write aborts materialization (side table dropped, rows still
// pass through) and routes the exactly-once completion latch to `on_abort`.
class BatchSpoolOp : public BatchOp {
 public:
  BatchSpoolOp(const LogicalOp* logical, BatchOpPtr child,
               SpoolCompletionFn on_complete,
               SpoolAbortFn on_abort = nullptr);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

  uint64_t bytes_spooled() const { return bytes_spooled_; }
  double spool_cpu_cost() const { return spool_cpu_cost_; }
  // True once a write fault aborted materialization.
  bool aborted() const { return aborted_; }
  // How many times the completion latch actually fired. The exchange makes
  // >1 impossible by construction; the PhysicalVerifier checks ==1 after a
  // successful run (0 means the spool was never drained — the view would
  // silently never seal). An aborted spool still fires the latch exactly
  // once, routed to `on_abort` instead of `on_complete`.
  uint32_t completion_fires() const {
    return completion_fires_.load(std::memory_order_acquire);
  }
  // Row count of the side table handed to the completion callback (valid
  // once the latch fired without an abort). The PhysicalVerifier checks it
  // against the spool's own rows_out: a sealed view must record exactly the
  // rows the scan streamed. Virtual so verifier tests can forge a mismatch.
  virtual uint64_t sealed_rows() const { return sealed_rows_; }

 private:
  BatchOpPtr child_;
  SpoolCompletionFn on_complete_;
  SpoolAbortFn on_abort_;
  std::shared_ptr<Table> side_table_;
  uint64_t bytes_spooled_ = 0;
  uint64_t sealed_rows_ = 0;
  double spool_cpu_cost_ = 0.0;
  bool aborted_ = false;
  Status abort_cause_;
  // atomic[seq_cst]: exactly-once latch; the winning exchange(true) must
  // be globally ordered before the losing observers' loads.
  std::atomic<bool> completed_{false};
  // atomic[acq_rel]: fires counted after winning the latch; acquire loads
  // in completion_fires() observe the matching callback's effects.
  std::atomic<uint32_t> completion_fires_{0};
};

// --- Binary operators -------------------------------------------------------

// Vectorized hash join over a PooledHashTable. The build side is inserted in
// global input order with head-inserted chains, so matches are emitted
// newest-first among equal keys (the emission order tests/reference_exec
// specifies) at any partition count. The probe side
// streams batch-at-a-time (serial / under a Limit) or is drained and probed
// in morsels emitted in morsel order (parallel).
class BatchHashJoinOp : public BatchOp {
 public:
  BatchHashJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

  void set_parallel(const ParallelRuntime& runtime, bool probe_ok) {
    runtime_ = runtime;
    probe_ok_ = probe_ok;
  }

 private:
  Status BuildRight();
  Status ProbeParallel();
  // Probes build-side matches for probe rows [begin, end) of `probe`,
  // appending output rows (and left-outer pads) to *out in probe-row order.
  Status ProbeRange(const BatchChunk& probe, size_t begin, size_t end,
                    ColumnBatch* out, OperatorStats* local) const;

  BatchOpPtr left_;
  BatchOpPtr right_;
  ParallelRuntime runtime_;
  bool probe_ok_ = false;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  BatchChunk build_;
  // Hash-partitioned build tables (hash % partition count selects one): a
  // single partition when serial, `dop` when parallel.
  std::vector<PooledHashTable> partitions_;
  size_t right_arity_ = 0;
  bool parallel_probe_ = false;
  std::vector<ColumnBatch> probe_out_;  // parallel probe, morsel order
  size_t out_index_ = 0;
};

class BatchMergeJoinOp : public BatchOp {
 public:
  BatchMergeJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right,
                   size_t batch_rows);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr left_;
  BatchOpPtr right_;
  size_t batch_rows_;
  BatchChunk output_;
  size_t pos_ = 0;
};

class BatchLoopJoinOp : public BatchOp {
 public:
  BatchLoopJoinOp(const LogicalOp* logical, BatchOpPtr left, BatchOpPtr right);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  BatchOpPtr left_;
  BatchOpPtr right_;
  BatchChunk right_chunk_;
};

// --- N-ary ------------------------------------------------------------------

class BatchUnionAllOp : public BatchOp {
 public:
  BatchUnionAllOp(const LogicalOp* logical, std::vector<BatchOpPtr> children);

  Status Open() override;
  Status NextBatch(ColumnBatch* batch, bool* done) override;
  void Close() override;

 private:
  std::vector<BatchOpPtr> children_;
  size_t current_ = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_BATCH_OP_H_
