#ifndef CLOUDVIEWS_PLAN_CONTAINMENT_H_
#define CLOUDVIEWS_PLAN_CONTAINMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "plan/expr.h"
#include "plan/logical_plan.h"

namespace cloudviews {

// Generalized (containment-based) view matching, paper section 5.3. Full
// query containment is NP-complete; like the production follow-up work this
// implements the decidable fragment that covers most shared subexpressions
// in practice: identical operator skeletons whose filters differ by
// conjunctions of {=, <, <=, >, >=, BETWEEN} comparisons between a column
// and literals, plus root-level projection-subset and group-by-rollup
// divergence. Everything here is sound-not-complete: an unknown shape is a
// rejection, never a wrong acceptance.

// ---------------------------------------------------------------------------
// Predicate ranges (the decidable filter fragment).

// Per-column value interval. Bounds are Values (numeric or string, compared
// with Value::Compare); unset = unbounded.
struct ColumnRange {
  int column = -1;
  std::optional<Value> lower;
  bool lower_inclusive = true;
  std::optional<Value> upper;
  bool upper_inclusive = true;
  bool unsatisfiable = false;

  // Intersects another range on the same column.
  void IntersectWith(const ColumnRange& other);

  // True if every value in `this` also lies in `other`.
  bool ContainedIn(const ColumnRange& other) const;
};

// Tries to turn one conjunct into a ColumnRange. Supported shapes:
//   col <op> literal, literal <op> col, col BETWEEN lit AND lit.
// Everything else (ORs, function calls, cross-column comparisons,
// negations, null literals) is "opaque" and returns nullopt.
std::optional<ColumnRange> RangeFromConjunct(const ExprPtr& conjunct);

// Splits a predicate into its AND-conjunct list (left-deep flattening).
void SplitConjuncts(const ExprPtr& pred, std::vector<ExprPtr>* out);

// Folds conjuncts back into one predicate in canonical (ascending strict
// expression hash) order, matching the normalizer's conjunct ordering.
// Returns nullptr for an empty list.
ExprPtr CanonicalConjunction(std::vector<ExprPtr> conjuncts);

// ---------------------------------------------------------------------------
// Stage-2: the exact containment checker.

// Deep structural equality of plan subtrees (kinds, parameters, expression
// trees, schemas) modulo spool transparency.
bool PlanEquals(const LogicalOp& a, const LogicalOp& b);

// The proof object CheckSubsumption emits on success: how to compensate a
// scan of the view so it reproduces the query subtree byte-for-byte.
// Compensation applies in order: residual filter, then re-aggregation OR
// projection (at most one of the two; both reference view output ordinals).
struct SubsumptionResult {
  bool contained = false;
  std::string reject_reason;

  // Residual filter conjuncts over the view's output schema. Applying their
  // conjunction to the view output yields the query subtree's rows (before
  // any re-aggregation / projection compensation). Empty = no filtering.
  std::vector<ExprPtr> residual;

  // Rollup compensation: the query groups by a subset of the view's group
  // keys, so the (filtered) view output is re-aggregated. Group exprs and
  // aggregate args are column refs into the view output schema.
  bool needs_reaggregate = false;
  std::vector<ExprPtr> reaggregate_group_by;
  std::vector<AggregateSpec> reaggregate_aggs;

  // Projection compensation: the query projects a subset / rearrangement of
  // the view's projected columns. Exprs reference view output ordinals.
  bool needs_project = false;
  std::vector<ExprPtr> project_exprs;
  std::vector<std::string> project_names;
};

// Proves (or declines to prove) that the materialized result of `view`'s
// definition answers the `query` subtree. On success the returned
// compensation recipe is exact: applying it to the view's rows produces the
// query subtree's output, byte for byte. Rejections carry a reason for
// diagnostics; they never mean "definitely not contained", only "not in the
// provable fragment".
SubsumptionResult CheckSubsumption(const LogicalOp& query,
                                   const LogicalOp& view);

// ---------------------------------------------------------------------------
// Stage-1: cheap per-signature feature vectors. The workload repository
// indexes these so candidate pruning is O(candidates-in-class) feature
// comparisons instead of O(n) exact checks.

struct SubsumptionFeatures {
  // One bit per base dataset name (hashed into 64 buckets).
  uint64_t table_bits = 0;
  // Number of filter conjuncts anywhere in the subtree that fall outside
  // the range fragment (RangeFromConjunct fails on them).
  int num_opaque = 0;
  // True when some range conjunct could not be lifted to the feature root
  // (blocked by a UDO, union, outer-join null side, computed projection...).
  // A lossy query side disables range pruning — its root ranges understate
  // its constraints.
  bool lossy = false;
  // Range conjuncts lifted and merged per column of the feature root's
  // output. The feature root is the subtree root with one trailing
  // Project/Aggregate (and any spools) peeled off, so root-divergent pairs
  // (rollup, projection subset) still talk about the same ordinals.
  std::vector<ColumnRange> root_ranges;
  // Bit per constrained root column (ordinal % 64) for a quick reject.
  uint64_t constrained_bits = 0;
};

// Computes the feature vector of a subtree (view definition or query).
SubsumptionFeatures ComputeSubsumptionFeatures(const LogicalOp& root);

// Stage-1 predicate: false means "CheckSubsumption(query, view) provably
// rejects" — pruning is sound because every accepted pair passes (see
// DESIGN.md "Generalized matching" for the argument). True means "run the
// exact checker".
bool FeatureMayContain(const SubsumptionFeatures& view,
                       const SubsumptionFeatures& query);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_CONTAINMENT_H_
