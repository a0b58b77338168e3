#include "plan/containment.h"

#include <algorithm>
#include <utility>

namespace cloudviews {

namespace {

// Spools are transparent to matching: they materialize their input without
// changing it, exactly like signature computation treats them.
const LogicalOp& Peel(const LogicalOp& op) {
  const LogicalOp* p = &op;
  while (p->kind == LogicalOpKind::kSpool) p = p->children[0].get();
  return *p;
}

bool AggSpecEquals(const AggregateSpec& a, const AggregateSpec& b) {
  if (a.func != b.func || a.distinct != b.distinct) return false;
  if ((a.arg == nullptr) != (b.arg == nullptr)) return false;
  return a.arg == nullptr || a.arg->Equals(*b.arg);
}

bool SameAggParams(const LogicalOp& a, const LogicalOp& b) {
  if (a.group_by.size() != b.group_by.size() ||
      a.aggregates.size() != b.aggregates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.group_by.size(); ++i) {
    if (!a.group_by[i]->Equals(*b.group_by[i])) return false;
  }
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    if (!AggSpecEquals(a.aggregates[i], b.aggregates[i])) return false;
  }
  return true;
}

bool SameProjections(const LogicalOp& a, const LogicalOp& b) {
  if (a.projections.size() != b.projections.size()) return false;
  for (size_t i = 0; i < a.projections.size(); ++i) {
    if (!a.projections[i]->Equals(*b.projections[i])) return false;
  }
  return true;
}

struct WalkContext {
  std::string reject;
};

bool Reject(WalkContext* ctx, std::string reason) {
  if (ctx->reject.empty()) ctx->reject = std::move(reason);
  return false;
}

// Remaps every conjunct through `mapping` (input ordinal -> output ordinal);
// false when a conjunct references an unmapped column.
bool RemapConjuncts(std::vector<ExprPtr>* conjuncts,
                    const std::vector<int>& mapping) {
  for (ExprPtr& c : *conjuncts) {
    ExprPtr remapped = c->RemapColumns(mapping);
    if (remapped == nullptr) return false;
    c = std::move(remapped);
  }
  return true;
}

void MergeRange(std::vector<ColumnRange>* ranges, ColumnRange range) {
  auto existing = std::find_if(
      ranges->begin(), ranges->end(),
      [&](const ColumnRange& r) { return r.column == range.column; });
  if (existing != ranges->end()) {
    existing->IntersectWith(range);
  } else {
    ranges->push_back(std::move(range));
  }
}

// The filter-coverage core: every view conjunct must be implied by the
// query-side conjuncts. Range conjuncts are checked by per-column interval
// containment against the query's merged ranges; opaque conjuncts need a
// structurally identical twin (f(x) AND f(x) is f(x), so existence
// suffices). Pointwise implication Q => V makes the residual exact:
// sigma_Q(sigma_V(rows)) == sigma_Q(rows).
bool CoveredBy(const std::vector<ExprPtr>& view_conjuncts,
               const std::vector<ExprPtr>& query_conjuncts, WalkContext* ctx) {
  std::vector<ColumnRange> query_ranges;
  for (const ExprPtr& c : query_conjuncts) {
    std::optional<ColumnRange> range = RangeFromConjunct(c);
    if (range.has_value()) MergeRange(&query_ranges, *range);
  }
  for (const ExprPtr& vc : view_conjuncts) {
    std::optional<ColumnRange> range = RangeFromConjunct(vc);
    if (range.has_value()) {
      auto query_range = std::find_if(
          query_ranges.begin(), query_ranges.end(),
          [&](const ColumnRange& r) { return r.column == range->column; });
      if (query_range == query_ranges.end()) {
        return Reject(ctx, "query does not constrain a view-filtered column");
      }
      if (!query_range->ContainedIn(*range)) {
        return Reject(ctx, "query range not contained in the view's range");
      }
      continue;
    }
    bool twin = std::any_of(
        query_conjuncts.begin(), query_conjuncts.end(),
        [&](const ExprPtr& qc) { return qc->Equals(*vc); });
    if (!twin) {
      return Reject(ctx,
                    "opaque view conjunct has no identical query conjunct");
    }
  }
  return true;
}

// Moves `conjuncts` into *residual, dropping any with a structurally
// identical view twin: every view row already satisfies every view
// conjunct, so the twin filters nothing and the residual stays exact —
// while becoming maximally remappable through root compensation (a twin on
// a non-grouped / non-projected column would otherwise poison the remap).
void AppendNonRedundant(std::vector<ExprPtr> conjuncts,
                        const std::vector<ExprPtr>& view_conjuncts,
                        std::vector<ExprPtr>* residual) {
  for (ExprPtr& c : conjuncts) {
    bool redundant = std::any_of(
        view_conjuncts.begin(), view_conjuncts.end(),
        [&](const ExprPtr& vc) { return vc->Equals(*c); });
    if (!redundant) residual->push_back(std::move(c));
  }
}

// Lockstep walk of the query subtree against the view definition. On
// success appends residual conjuncts to *residual; they reference the
// shared output ordinals of the current level (query and view schemas agree
// everywhere the walk accepts). Invariant on success:
//   sigma_{AND(residual)}(view-subtree output) == query-subtree output.
bool Walk(const LogicalOp& q_in, const LogicalOp& v_in,
          std::vector<ExprPtr>* residual, WalkContext* ctx) {
  const LogicalOp& q = Peel(q_in);
  const LogicalOp& v = Peel(v_in);
  const bool q_filter = q.kind == LogicalOpKind::kFilter;
  const bool v_filter = v.kind == LogicalOpKind::kFilter;
  if (q_filter || v_filter) {
    if (q_filter && v_filter) {
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (below.empty() && q.predicate->Equals(*v.predicate)) {
        return true;  // identical filters over identical inputs: no residual
      }
      std::vector<ExprPtr> query_side;
      SplitConjuncts(q.predicate, &query_side);
      for (ExprPtr& c : below) query_side.push_back(std::move(c));
      std::vector<ExprPtr> view_side;
      SplitConjuncts(v.predicate, &view_side);
      if (!CoveredBy(view_side, query_side, ctx)) return false;
      AppendNonRedundant(std::move(query_side), view_side, residual);
      return true;
    }
    if (q_filter) {
      // The view kept everything here; the query's filter becomes residual.
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], v, &below, ctx)) return false;
      SplitConjuncts(q.predicate, residual);
      for (ExprPtr& c : below) residual->push_back(std::move(c));
      return true;
    }
    // View-only filter: the view dropped rows here, which is only safe when
    // the residual accumulated below already excludes them.
    std::vector<ExprPtr> below;
    if (!Walk(q, *v.children[0], &below, ctx)) return false;
    if (below.empty()) {
      return Reject(ctx, "view filters rows the query keeps");
    }
    if (!CoveredBy({}, below, ctx)) return false;  // never fails; keeps shape
    std::vector<ExprPtr> view_side;
    SplitConjuncts(v.predicate, &view_side);
    if (!CoveredBy(view_side, below, ctx)) return false;
    AppendNonRedundant(std::move(below), view_side, residual);
    return true;
  }

  if (q.kind != v.kind) {
    return Reject(ctx, std::string("operator kind mismatch: ") +
                           LogicalOpKindName(q.kind) + " vs " +
                           LogicalOpKindName(v.kind));
  }
  switch (q.kind) {
    case LogicalOpKind::kScan:
      if (q.dataset_name != v.dataset_name ||
          q.dataset_guid != v.dataset_guid ||
          q.scan_columns != v.scan_columns) {
        return Reject(ctx, "scans read different datasets/versions/columns");
      }
      return true;
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSharedScan:
      if (q.view_signature != v.view_signature) {
        return Reject(ctx, "view scans reference different views");
      }
      return true;
    case LogicalOpKind::kJoin: {
      if (q.join_kind != v.join_kind || q.equi_keys != v.equi_keys) {
        return Reject(ctx, "join kind or equi-keys differ");
      }
      if ((q.predicate == nullptr) != (v.predicate == nullptr) ||
          (q.predicate != nullptr && !q.predicate->Equals(*v.predicate))) {
        return Reject(ctx, "join residual conditions differ");
      }
      const size_t left_arity = v.children[0]->output_schema.num_columns();
      if (q.children[0]->output_schema.num_columns() != left_arity) {
        return Reject(ctx, "join input arity mismatch");
      }
      std::vector<ExprPtr> left_res;
      std::vector<ExprPtr> right_res;
      if (!Walk(*q.children[0], *v.children[0], &left_res, ctx)) return false;
      if (!Walk(*q.children[1], *v.children[1], &right_res, ctx)) return false;
      // Inner joins preserve both sides' column values, so residuals bubble
      // up with the right side shifted past the left arity. A LEFT join
      // null-extends the right side: only left residuals survive (filtering
      // left rows before or after the join selects the same output rows).
      if (q.join_kind == sql::JoinKind::kLeft && !right_res.empty()) {
        return Reject(ctx, "outer join null-extends a filtered input");
      }
      for (ExprPtr& c : left_res) residual->push_back(std::move(c));
      if (!right_res.empty()) {
        const size_t right_arity =
            v.children[1]->output_schema.num_columns();
        std::vector<int> shift(right_arity);
        for (size_t i = 0; i < right_arity; ++i) {
          shift[i] = static_cast<int>(left_arity + i);
        }
        if (!RemapConjuncts(&right_res, shift)) {
          return Reject(ctx, "join residual references an unknown column");
        }
        for (ExprPtr& c : right_res) residual->push_back(std::move(c));
      }
      return true;
    }
    case LogicalOpKind::kProject: {
      if (!SameProjections(q, v)) {
        return Reject(ctx, "projection lists differ below the root");
      }
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (below.empty()) return true;
      // The residual references input ordinals; it survives only through
      // pure column projections (first occurrence wins on duplicates).
      std::vector<int> mapping(v.children[0]->output_schema.num_columns(),
                               -1);
      for (size_t j = 0; j < v.projections.size(); ++j) {
        const ExprPtr& p = v.projections[j];
        if (p->kind == ExprKind::kColumn && p->column_index >= 0 &&
            static_cast<size_t>(p->column_index) < mapping.size() &&
            mapping[static_cast<size_t>(p->column_index)] < 0) {
          mapping[static_cast<size_t>(p->column_index)] =
              static_cast<int>(j);
        }
      }
      if (!RemapConjuncts(&below, mapping)) {
        return Reject(ctx, "residual references a column the projection "
                           "dropped");
      }
      for (ExprPtr& c : below) residual->push_back(std::move(c));
      return true;
    }
    case LogicalOpKind::kAggregate: {
      if (!SameAggParams(q, v)) {
        return Reject(ctx, "aggregation parameters differ below the root");
      }
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (below.empty()) return true;
      // A filter commutes with grouping only when it references group keys:
      // it then drops whole groups on either side of the aggregation.
      std::vector<int> mapping(v.children[0]->output_schema.num_columns(),
                               -1);
      for (size_t j = 0; j < v.group_by.size(); ++j) {
        const ExprPtr& g = v.group_by[j];
        if (g->kind == ExprKind::kColumn && g->column_index >= 0 &&
            static_cast<size_t>(g->column_index) < mapping.size() &&
            mapping[static_cast<size_t>(g->column_index)] < 0) {
          mapping[static_cast<size_t>(g->column_index)] =
              static_cast<int>(j);
        }
      }
      if (!RemapConjuncts(&below, mapping)) {
        return Reject(ctx, "residual references a non-grouped column");
      }
      for (ExprPtr& c : below) residual->push_back(std::move(c));
      return true;
    }
    case LogicalOpKind::kSort: {
      if (q.sort_keys.size() != v.sort_keys.size()) {
        return Reject(ctx, "sort keys differ");
      }
      for (size_t i = 0; i < q.sort_keys.size(); ++i) {
        if (q.sort_keys[i].ascending != v.sort_keys[i].ascending ||
            !q.sort_keys[i].expr->Equals(*v.sort_keys[i].expr)) {
          return Reject(ctx, "sort keys differ");
        }
      }
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (!below.empty()) {
        // Filtering after the sort can reorder ties relative to sorting the
        // filtered input; byte identity is the contract, so decline.
        return Reject(ctx, "sort above a residual filter");
      }
      return true;
    }
    case LogicalOpKind::kLimit: {
      if (q.limit != v.limit) return Reject(ctx, "limits differ");
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (!below.empty()) {
        return Reject(ctx, "limit above a residual filter");
      }
      return true;
    }
    case LogicalOpKind::kUdo: {
      if (q.udo_name != v.udo_name ||
          q.udo_deterministic != v.udo_deterministic ||
          q.udo_dependency_depth != v.udo_dependency_depth ||
          q.udo_selectivity != v.udo_selectivity ||
          q.udo_cost_per_row != v.udo_cost_per_row) {
        return Reject(ctx, "UDO parameters differ");
      }
      std::vector<ExprPtr> below;
      if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
      if (!below.empty()) {
        // The engine cannot see inside user code; no filter commutes with it.
        return Reject(ctx, "UDO above a residual filter");
      }
      return true;
    }
    case LogicalOpKind::kUnionAll: {
      if (q.children.size() != v.children.size()) {
        return Reject(ctx, "union branch counts differ");
      }
      for (size_t i = 0; i < q.children.size(); ++i) {
        std::vector<ExprPtr> below;
        if (!Walk(*q.children[i], *v.children[i], &below, ctx)) return false;
        if (!below.empty()) {
          return Reject(ctx, "union branch above a residual filter");
        }
      }
      return true;
    }
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kSpool:
      break;  // handled above / peeled
  }
  return Reject(ctx, "unsupported operator");
}

// Root rollup: the query groups by a subset of the view's group keys; the
// view's per-fine-group partials re-aggregate to the query's coarser
// groups. Sound derivations: COUNT/COUNT(*) -> SUM over the stored count,
// SUM -> SUM, MIN -> MIN, MAX -> MAX. AVG and DISTINCT do not decompose.
bool RollupRoot(const LogicalOp& q, const LogicalOp& v,
                SubsumptionResult* out, WalkContext* ctx) {
  if (q.group_by.empty()) {
    // Global re-aggregation over an empty (fully filtered) view yields no
    // input groups, but a global aggregate must still emit its one row with
    // COUNT 0 — not derivable, so decline the whole class.
    return Reject(ctx, "global rollup is not derivable");
  }
  std::vector<ExprPtr> below;
  if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
  const size_t num_view_groups = v.group_by.size();
  if (!below.empty()) {
    std::vector<int> mapping(v.children[0]->output_schema.num_columns(), -1);
    for (size_t j = 0; j < num_view_groups; ++j) {
      const ExprPtr& g = v.group_by[j];
      if (g->kind == ExprKind::kColumn && g->column_index >= 0 &&
          static_cast<size_t>(g->column_index) < mapping.size() &&
          mapping[static_cast<size_t>(g->column_index)] < 0) {
        mapping[static_cast<size_t>(g->column_index)] = static_cast<int>(j);
      }
    }
    if (!RemapConjuncts(&below, mapping)) {
      return Reject(ctx, "residual references a non-grouped column");
    }
  }
  out->reaggregate_group_by.reserve(q.group_by.size());
  for (size_t i = 0; i < q.group_by.size(); ++i) {
    int match = -1;
    for (size_t j = 0; j < num_view_groups; ++j) {
      if (q.group_by[i]->Equals(*v.group_by[j])) {
        match = static_cast<int>(j);
        break;
      }
    }
    if (match < 0) {
      return Reject(ctx, "query grouping is finer than the view's");
    }
    out->reaggregate_group_by.push_back(
        Expr::MakeColumn(match, q.output_schema.column(i).name));
  }
  for (const AggregateSpec& spec : q.aggregates) {
    if (spec.distinct) {
      return Reject(ctx, "DISTINCT aggregates do not roll up");
    }
    AggFunc want = AggFunc::kCountStar;
    AggFunc derived_func = AggFunc::kSum;
    switch (spec.func) {
      case AggFunc::kCountStar:
        want = AggFunc::kCountStar;
        derived_func = AggFunc::kSum;
        break;
      case AggFunc::kCount:
        want = AggFunc::kCount;
        derived_func = AggFunc::kSum;
        break;
      case AggFunc::kSum:
        want = AggFunc::kSum;
        derived_func = AggFunc::kSum;
        break;
      case AggFunc::kMin:
        want = AggFunc::kMin;
        derived_func = AggFunc::kMin;
        break;
      case AggFunc::kMax:
        want = AggFunc::kMax;
        derived_func = AggFunc::kMax;
        break;
      case AggFunc::kAvg:
        return Reject(ctx, "AVG does not roll up");
    }
    int match = -1;
    for (size_t j = 0; j < v.aggregates.size(); ++j) {
      const AggregateSpec& vs = v.aggregates[j];
      if (vs.distinct || vs.func != want) continue;
      if ((vs.arg == nullptr) != (spec.arg == nullptr)) continue;
      if (vs.arg != nullptr && !vs.arg->Equals(*spec.arg)) continue;
      match = static_cast<int>(j);
      break;
    }
    if (match < 0) {
      return Reject(ctx, "view lacks the aggregate needed for rollup");
    }
    const size_t view_ordinal = num_view_groups + static_cast<size_t>(match);
    AggregateSpec derived;
    derived.func = derived_func;
    derived.arg = Expr::MakeColumn(
        static_cast<int>(view_ordinal),
        v.output_schema.column(view_ordinal).name);
    derived.output_name = spec.output_name;
    out->reaggregate_aggs.push_back(std::move(derived));
  }
  out->needs_reaggregate = true;
  out->residual = std::move(below);
  return true;
}

// Root projection subset: the view projects a superset of what the query
// needs (pure column refs only — the view must not have computed away the
// inputs), so the query's projections re-express over the view's output.
bool ProjectRoot(const LogicalOp& q, const LogicalOp& v,
                 SubsumptionResult* out, WalkContext* ctx) {
  std::vector<ExprPtr> below;
  if (!Walk(*q.children[0], *v.children[0], &below, ctx)) return false;
  std::vector<int> mapping(v.children[0]->output_schema.num_columns(), -1);
  for (size_t j = 0; j < v.projections.size(); ++j) {
    const ExprPtr& p = v.projections[j];
    if (p->kind != ExprKind::kColumn) {
      return Reject(ctx, "view projection computes expressions");
    }
    if (p->column_index >= 0 &&
        static_cast<size_t>(p->column_index) < mapping.size() &&
        mapping[static_cast<size_t>(p->column_index)] < 0) {
      mapping[static_cast<size_t>(p->column_index)] = static_cast<int>(j);
    }
  }
  if (!RemapConjuncts(&below, mapping)) {
    return Reject(ctx, "residual references a column the view dropped");
  }
  out->project_exprs.reserve(q.projections.size());
  for (size_t i = 0; i < q.projections.size(); ++i) {
    ExprPtr remapped = q.projections[i]->RemapColumns(mapping);
    if (remapped == nullptr) {
      return Reject(ctx, "query projects a column the view dropped");
    }
    out->project_exprs.push_back(std::move(remapped));
    out->project_names.push_back(q.output_schema.column(i).name);
  }
  out->needs_project = true;
  out->residual = std::move(below);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Predicate ranges.

void ColumnRange::IntersectWith(const ColumnRange& other) {
  if (other.unsatisfiable) unsatisfiable = true;
  if (other.lower.has_value()) {
    if (!lower.has_value() || lower->Compare(*other.lower) < 0) {
      lower = other.lower;
      lower_inclusive = other.lower_inclusive;
    } else if (lower->Compare(*other.lower) == 0) {
      lower_inclusive = lower_inclusive && other.lower_inclusive;
    }
  }
  if (other.upper.has_value()) {
    if (!upper.has_value() || upper->Compare(*other.upper) > 0) {
      upper = other.upper;
      upper_inclusive = other.upper_inclusive;
    } else if (upper->Compare(*other.upper) == 0) {
      upper_inclusive = upper_inclusive && other.upper_inclusive;
    }
  }
  if (lower.has_value() && upper.has_value()) {
    int cmp = lower->Compare(*upper);
    if (cmp > 0 || (cmp == 0 && !(lower_inclusive && upper_inclusive))) {
      unsatisfiable = true;
    }
  }
}

bool ColumnRange::ContainedIn(const ColumnRange& other) const {
  if (unsatisfiable) return true;  // empty set is contained in anything
  if (other.unsatisfiable) return false;
  if (other.lower.has_value()) {
    if (!lower.has_value()) return false;
    int cmp = lower->Compare(*other.lower);
    if (cmp < 0) return false;
    if (cmp == 0 && lower_inclusive && !other.lower_inclusive) return false;
  }
  if (other.upper.has_value()) {
    if (!upper.has_value()) return false;
    int cmp = upper->Compare(*other.upper);
    if (cmp > 0) return false;
    if (cmp == 0 && upper_inclusive && !other.upper_inclusive) return false;
  }
  return true;
}

std::optional<ColumnRange> RangeFromConjunct(const ExprPtr& conjunct) {
  ColumnRange range;
  if (conjunct->kind == ExprKind::kBetween && !conjunct->negated &&
      conjunct->children[0]->kind == ExprKind::kColumn &&
      conjunct->children[1]->kind == ExprKind::kLiteral &&
      conjunct->children[2]->kind == ExprKind::kLiteral) {
    if (conjunct->children[1]->literal.is_null() ||
        conjunct->children[2]->literal.is_null()) {
      return std::nullopt;
    }
    range.column = conjunct->children[0]->column_index;
    range.lower = conjunct->children[1]->literal;
    range.upper = conjunct->children[2]->literal;
    return range;
  }
  if (conjunct->kind != ExprKind::kBinary) return std::nullopt;

  const Expr* lhs = conjunct->children[0].get();
  const Expr* rhs = conjunct->children[1].get();
  sql::BinaryOp op = conjunct->binary_op;
  // Normalize to column <op> literal.
  if (lhs->kind == ExprKind::kLiteral && rhs->kind == ExprKind::kColumn) {
    std::swap(lhs, rhs);
    switch (op) {
      case sql::BinaryOp::kLt:
        op = sql::BinaryOp::kGt;
        break;
      case sql::BinaryOp::kLe:
        op = sql::BinaryOp::kGe;
        break;
      case sql::BinaryOp::kGt:
        op = sql::BinaryOp::kLt;
        break;
      case sql::BinaryOp::kGe:
        op = sql::BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  if (lhs->kind != ExprKind::kColumn || rhs->kind != ExprKind::kLiteral) {
    return std::nullopt;
  }
  if (rhs->literal.is_null()) return std::nullopt;
  range.column = lhs->column_index;
  switch (op) {
    case sql::BinaryOp::kEq:
      range.lower = rhs->literal;
      range.upper = rhs->literal;
      return range;
    case sql::BinaryOp::kLt:
      range.upper = rhs->literal;
      range.upper_inclusive = false;
      return range;
    case sql::BinaryOp::kLe:
      range.upper = rhs->literal;
      return range;
    case sql::BinaryOp::kGt:
      range.lower = rhs->literal;
      range.lower_inclusive = false;
      return range;
    case sql::BinaryOp::kGe:
      range.lower = rhs->literal;
      return range;
    default:
      return std::nullopt;
  }
}

void SplitConjuncts(const ExprPtr& pred, std::vector<ExprPtr>* out) {
  if (pred == nullptr) return;
  if (pred->kind == ExprKind::kBinary &&
      pred->binary_op == sql::BinaryOp::kAnd) {
    SplitConjuncts(pred->children[0], out);
    SplitConjuncts(pred->children[1], out);
    return;
  }
  out->push_back(pred);
}

ExprPtr CanonicalConjunction(std::vector<ExprPtr> conjuncts) {
  std::sort(conjuncts.begin(), conjuncts.end(),
            [](const ExprPtr& a, const ExprPtr& b) {
              Hasher ha, hb;
              a->HashInto(&ha, /*include_literals=*/true);
              b->HashInto(&hb, /*include_literals=*/true);
              return ha.Finish() < hb.Finish();
            });
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out == nullptr ? c
                         : Expr::MakeBinary(sql::BinaryOp::kAnd, out, c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stage-2 entry points.

bool PlanEquals(const LogicalOp& a_in, const LogicalOp& b_in) {
  const LogicalOp& a = Peel(a_in);
  const LogicalOp& b = Peel(b_in);
  if (a.kind != b.kind || a.children.size() != b.children.size()) {
    return false;
  }
  switch (a.kind) {
    case LogicalOpKind::kScan:
      if (a.dataset_name != b.dataset_name ||
          a.dataset_guid != b.dataset_guid ||
          a.scan_columns != b.scan_columns) {
        return false;
      }
      break;
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSharedScan:
      if (a.view_signature != b.view_signature) return false;
      break;
    case LogicalOpKind::kFilter:
      if (!a.predicate->Equals(*b.predicate)) return false;
      break;
    case LogicalOpKind::kProject:
      if (!SameProjections(a, b)) return false;
      break;
    case LogicalOpKind::kJoin:
      if (a.join_kind != b.join_kind || a.equi_keys != b.equi_keys) {
        return false;
      }
      if ((a.predicate == nullptr) != (b.predicate == nullptr)) return false;
      if (a.predicate != nullptr && !a.predicate->Equals(*b.predicate)) {
        return false;
      }
      break;
    case LogicalOpKind::kAggregate:
      if (!SameAggParams(a, b)) return false;
      break;
    case LogicalOpKind::kSort:
      if (a.sort_keys.size() != b.sort_keys.size()) return false;
      for (size_t i = 0; i < a.sort_keys.size(); ++i) {
        if (a.sort_keys[i].ascending != b.sort_keys[i].ascending ||
            !a.sort_keys[i].expr->Equals(*b.sort_keys[i].expr)) {
          return false;
        }
      }
      break;
    case LogicalOpKind::kLimit:
      if (a.limit != b.limit) return false;
      break;
    case LogicalOpKind::kUdo:
      if (a.udo_name != b.udo_name ||
          a.udo_deterministic != b.udo_deterministic ||
          a.udo_dependency_depth != b.udo_dependency_depth ||
          a.udo_selectivity != b.udo_selectivity ||
          a.udo_cost_per_row != b.udo_cost_per_row) {
        return false;
      }
      break;
    case LogicalOpKind::kUnionAll:
    case LogicalOpKind::kSpool:
      break;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!PlanEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

SubsumptionResult CheckSubsumption(const LogicalOp& query_in,
                                   const LogicalOp& view_in) {
  SubsumptionResult out;
  WalkContext ctx;
  const LogicalOp& q = Peel(query_in);
  const LogicalOp& v = Peel(view_in);
  bool accepted = false;
  if (q.kind == LogicalOpKind::kAggregate &&
      v.kind == LogicalOpKind::kAggregate && !SameAggParams(q, v)) {
    accepted = RollupRoot(q, v, &out, &ctx);
  } else if (q.kind == LogicalOpKind::kProject &&
             v.kind == LogicalOpKind::kProject && !SameProjections(q, v)) {
    accepted = ProjectRoot(q, v, &out, &ctx);
  } else {
    accepted = Walk(q, v, &out.residual, &ctx);
  }
  if (!accepted) {
    out = SubsumptionResult{};
    out.reject_reason =
        ctx.reject.empty() ? "not in the provable fragment" : ctx.reject;
    return out;
  }
  out.contained = true;
  return out;
}

// ---------------------------------------------------------------------------
// Stage-1 features.

namespace {

uint64_t TableBit(const std::string& name) {
  return uint64_t{1} << (HashString(name).lo % 64);
}

// Lifts the subtree's range conjuncts to `node`'s output ordinals,
// accumulating opaque-conjunct counts and table bits. Drops (and marks
// lossy) whatever cannot be lifted.
std::vector<ColumnRange> LiftRanges(const LogicalOp& node,
                                    SubsumptionFeatures* f) {
  switch (node.kind) {
    case LogicalOpKind::kSpool:
      return LiftRanges(*node.children[0], f);
    case LogicalOpKind::kScan:
      f->table_bits |= TableBit(node.dataset_name);
      return {};
    case LogicalOpKind::kViewScan:
    case LogicalOpKind::kSharedScan:
      return {};
    case LogicalOpKind::kFilter: {
      std::vector<ColumnRange> ranges = LiftRanges(*node.children[0], f);
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(node.predicate, &conjuncts);
      for (const ExprPtr& c : conjuncts) {
        std::optional<ColumnRange> range = RangeFromConjunct(c);
        if (range.has_value()) {
          MergeRange(&ranges, std::move(*range));
        } else {
          f->num_opaque += 1;
        }
      }
      return ranges;
    }
    case LogicalOpKind::kJoin: {
      std::vector<ColumnRange> left = LiftRanges(*node.children[0], f);
      std::vector<ColumnRange> right = LiftRanges(*node.children[1], f);
      if (node.join_kind == sql::JoinKind::kInner) {
        const int shift =
            static_cast<int>(node.children[0]->output_schema.num_columns());
        for (ColumnRange& r : right) {
          r.column += shift;
          MergeRange(&left, std::move(r));
        }
      } else if (!right.empty()) {
        // The null-extended side's constraints do not hold on the output.
        f->lossy = true;
      }
      return left;
    }
    case LogicalOpKind::kProject: {
      std::vector<ColumnRange> below = LiftRanges(*node.children[0], f);
      std::vector<ColumnRange> lifted;
      for (ColumnRange& r : below) {
        int mapped = -1;
        for (size_t j = 0; j < node.projections.size(); ++j) {
          const ExprPtr& p = node.projections[j];
          if (p->kind == ExprKind::kColumn && p->column_index == r.column) {
            mapped = static_cast<int>(j);
            break;
          }
        }
        if (mapped < 0) {
          f->lossy = true;
          continue;
        }
        r.column = mapped;
        MergeRange(&lifted, std::move(r));
      }
      return lifted;
    }
    case LogicalOpKind::kAggregate: {
      std::vector<ColumnRange> below = LiftRanges(*node.children[0], f);
      std::vector<ColumnRange> lifted;
      for (ColumnRange& r : below) {
        int mapped = -1;
        for (size_t j = 0; j < node.group_by.size(); ++j) {
          const ExprPtr& g = node.group_by[j];
          if (g->kind == ExprKind::kColumn && g->column_index == r.column) {
            mapped = static_cast<int>(j);
            break;
          }
        }
        if (mapped < 0) {
          f->lossy = true;
          continue;
        }
        r.column = mapped;
        MergeRange(&lifted, std::move(r));
      }
      return lifted;
    }
    case LogicalOpKind::kSort:
    case LogicalOpKind::kLimit:
      // Row values pass through unchanged; a limit's subset still satisfies
      // every constraint of its input.
      return LiftRanges(*node.children[0], f);
    case LogicalOpKind::kUdo: {
      std::vector<ColumnRange> below = LiftRanges(*node.children[0], f);
      if (!below.empty()) f->lossy = true;
      return {};  // opaque transform: nothing survives
    }
    case LogicalOpKind::kUnionAll: {
      for (const LogicalOpPtr& child : node.children) {
        std::vector<ColumnRange> below = LiftRanges(*child, f);
        if (!below.empty()) f->lossy = true;
      }
      return {};
    }
  }
  return {};
}

}  // namespace

SubsumptionFeatures ComputeSubsumptionFeatures(const LogicalOp& root) {
  SubsumptionFeatures f;
  // Find the first structural (non-spool, non-filter) node under the root:
  // a matched pair may diverge there (rollup, projection subset), so when
  // it is an Aggregate/Project the ranges are expressed in its INPUT's
  // ordinals — the deepest level where both sides of any candidate pair are
  // guaranteed to agree on column numbering.
  const LogicalOp* divergence = &root;
  std::vector<const LogicalOp*> top_filters;
  while (divergence->kind == LogicalOpKind::kSpool ||
         divergence->kind == LogicalOpKind::kFilter) {
    if (divergence->kind == LogicalOpKind::kFilter) {
      top_filters.push_back(divergence);
    }
    divergence = divergence->children[0].get();
  }
  std::vector<ColumnRange> ranges;
  if ((divergence->kind == LogicalOpKind::kAggregate ||
       divergence->kind == LogicalOpKind::kProject) &&
      !divergence->children.empty()) {
    ranges = LiftRanges(*divergence->children[0], &f);
    // Map the filters sitting above the divergence node back down through
    // its pure-column outputs; drop (lossy) what does not map.
    const size_t input_arity =
        divergence->children[0]->output_schema.num_columns();
    std::vector<int> down(divergence->output_schema.num_columns(), -1);
    if (divergence->kind == LogicalOpKind::kAggregate) {
      for (size_t j = 0; j < divergence->group_by.size(); ++j) {
        const ExprPtr& g = divergence->group_by[j];
        if (g->kind == ExprKind::kColumn && g->column_index >= 0 &&
            static_cast<size_t>(g->column_index) < input_arity) {
          down[j] = g->column_index;
        }
      }
    } else {
      for (size_t j = 0; j < divergence->projections.size(); ++j) {
        const ExprPtr& p = divergence->projections[j];
        if (p->kind == ExprKind::kColumn && p->column_index >= 0 &&
            static_cast<size_t>(p->column_index) < input_arity) {
          down[j] = p->column_index;
        }
      }
    }
    for (const LogicalOp* filter : top_filters) {
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(filter->predicate, &conjuncts);
      for (const ExprPtr& c : conjuncts) {
        std::optional<ColumnRange> range = RangeFromConjunct(c);
        if (!range.has_value()) {
          f.num_opaque += 1;
          continue;
        }
        if (range->column < 0 ||
            static_cast<size_t>(range->column) >= down.size() ||
            down[static_cast<size_t>(range->column)] < 0) {
          f.lossy = true;
          continue;
        }
        range->column = down[static_cast<size_t>(range->column)];
        MergeRange(&ranges, std::move(*range));
      }
    }
  } else {
    ranges = LiftRanges(root, &f);
  }
  for (const ColumnRange& r : ranges) {
    f.constrained_bits |= uint64_t{1} << (static_cast<uint64_t>(
                              r.column >= 0 ? r.column : 0) %
                                          64);
  }
  f.root_ranges = std::move(ranges);
  return f;
}

bool FeatureMayContain(const SubsumptionFeatures& view,
                       const SubsumptionFeatures& query) {
  // An exact checker acceptance requires identical scans, so differing
  // table sets can never match.
  if (view.table_bits != query.table_bits) return false;
  // Every opaque view conjunct needs an identical query twin; a query with
  // zero opaque conjuncts cannot supply one.
  if (view.num_opaque > 0 && query.num_opaque == 0) return false;
  // Range pruning: the checker demands the query's merged range on every
  // view-constrained column be contained in the view's. The lifted features
  // see the same (or wider) view ranges and the same (or narrower) query
  // ranges, so a root-level violation refutes containment — unless the
  // query lift dropped constraints (lossy), in which case its root ranges
  // understate it and pruning must stand down.
  if (!query.lossy) {
    for (const ColumnRange& vr : view.root_ranges) {
      const uint64_t bit =
          uint64_t{1}
          << (static_cast<uint64_t>(vr.column >= 0 ? vr.column : 0) % 64);
      if ((query.constrained_bits & bit) == 0) return false;
      auto qr = std::find_if(
          query.root_ranges.begin(), query.root_ranges.end(),
          [&](const ColumnRange& r) { return r.column == vr.column; });
      if (qr == query.root_ranges.end()) return false;
      if (!qr->ContainedIn(vr)) return false;
    }
  }
  return true;
}

}  // namespace cloudviews
