#ifndef CLOUDVIEWS_TESTS_REFERENCE_EXEC_H_
#define CLOUDVIEWS_TESTS_REFERENCE_EXEC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_stats.h"
#include "common/status.h"
#include "exec/executor.h"
#include "plan/logical_plan.h"
#include "storage/value.h"

namespace cloudviews {
namespace reference {

// Everything one reference run produced.
struct ReferenceResult {
  std::vector<Row> rows;
  // rows_out, bytes_out and cpu_cost per logical node.
  std::unordered_map<const LogicalOp*, OperatorStats> per_node;
  uint64_t bytes_spooled = 0;
  double spool_cpu_cost = 0.0;
};

// The serial, materializing reference interpreter: the executable
// specification of the batch engine. It computes each LogicalOp node's
// whole output as rows with Expr::Evaluate and charges the CostWeights
// formulas — no thread pool, morsels, partitions, fault sites or physical
// operator tree. The order contracts it pins:
//   * hash-join matches come newest-first among equal keys (build rows with
//     the probe row's key hash, walked in reverse insertion order);
//   * aggregate groups are emitted sorted by key;
//   * sorts are stable;
//   * a UDO keeps a row when its (seed, row content) hash falls under the
//     selectivity; non-deterministic UDOs also mix in the row's arrival
//     number (1, 2, ...) and seed with the job seed;
//   * merge joins walk stably key-sorted sides, loop joins every
//     (left, right) pair; left-outer joins pad unmatched rows with nulls;
//   * Limit keeps its child's first `limit` rows;
//   * a spool passes rows through, collects them in a side table and hands
//     it, with its child's stats, to context.on_spool_complete once. It has
//     no write path that can fail, so context.on_spool_abort never fires.
// Below a Limit every input row is still evaluated, so only outputs (not
// per-node stats) are comparable there. Scans bind through BindScanTable
// (version-pinning failures carry the engine's Status). Reads only
// catalog, view_store, now, job_seed and on_spool_complete of `context`;
// kSharedScan is not modelled.
Result<ReferenceResult> Execute(const ExecContext& context,
                                const LogicalOp& plan);

// Describes the first way an engine run's statistics disagree with the
// reference's, or returns "" when they agree: the same plan nodes, per node
// rows_out/bytes_out exactly and cpu_cost within 1e-6 relative, and the job
// roll-ups (scan input rows/bytes, operator count, total cpu, spool bytes
// exactly and spool cost within 1e-6 relative).
std::string StatsMismatch(const ExecutionStats& engine,
                          const ReferenceResult& reference);

}  // namespace reference
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TESTS_REFERENCE_EXEC_H_
