#include "reference_exec.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/hash.h"
#include "storage/table.h"

namespace cloudviews {
namespace reference {

namespace {

using Rows = std::vector<Row>;

uint64_t RowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) bytes += v.ByteSize();
  return bytes;
}

// n log2 n, with the single-row (and empty) case charged linearly.
double SortUnits(size_t n) {
  const double dn = static_cast<double>(n);
  return dn * (dn > 1 ? std::log2(dn) : 1.0);
}

// SQL truth: only a non-null boolean true keeps a row.
Result<bool> Holds(const Expr& predicate, const Row& row) {
  auto v = predicate.Evaluate(row);
  if (!v.ok()) return v.status();
  return !v->is_null() && v->type() == DataType::kBool && v->AsBool();
}

// Lexicographic Value::Compare over the `keys` columns of two rows.
int CompareKeys(const Row& a, const std::vector<int>& a_keys, const Row& b,
                const std::vector<int>& b_keys) {
  for (size_t k = 0; k < a_keys.size(); ++k) {
    int cmp = a[static_cast<size_t>(a_keys[k])].Compare(
        b[static_cast<size_t>(b_keys[k])]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

// Equi-join key match: SQL null never equals anything.
bool KeysMatch(const Row& left, const std::vector<int>& left_keys,
               const Row& right, const std::vector<int>& right_keys) {
  for (size_t k = 0; k < left_keys.size(); ++k) {
    const Value& l = left[static_cast<size_t>(left_keys[k])];
    const Value& r = right[static_cast<size_t>(right_keys[k])];
    if (l.is_null() || r.is_null() || l.Compare(r) != 0) return false;
  }
  return true;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-6 * (1.0 + std::fabs(want));
}

std::string Describe(const OperatorStats& s) {
  return std::to_string(s.rows_out) + " rows/" + std::to_string(s.bytes_out) +
         " bytes/" + std::to_string(s.cpu_cost) + " cpu";
}

Row Concat(const Row& left, const Row& right) {
  Row combined = left;
  combined.insert(combined.end(), right.begin(), right.end());
  return combined;
}

class Interpreter {
 public:
  Interpreter(const ExecContext& context, ReferenceResult* result)
      : context_(context), result_(result) {}

  // Computes `node`'s whole output and records its rows_out/bytes_out.
  Result<Rows> Run(const LogicalOp& node) {
    auto rows = Compute(node);
    if (!rows.ok()) return rows.status();
    OperatorStats& stats = result_->per_node[&node];
    for (const Row& row : *rows) {
      stats.rows_out += 1;
      stats.bytes_out += RowBytes(row);
    }
    return rows;
  }

 private:
  void Charge(const LogicalOp& node, double cpu_cost) {
    result_->per_node[&node].cpu_cost += cpu_cost;
  }

  Result<Rows> Compute(const LogicalOp& node) {
    switch (node.kind) {
      case LogicalOpKind::kScan:
      case LogicalOpKind::kViewScan:
        return Scan(node);
      case LogicalOpKind::kJoin:
        return Join(node);
      case LogicalOpKind::kUnionAll: {
        Rows out;
        for (const LogicalOpPtr& child : node.children) {
          auto rows = Run(*child);
          if (!rows.ok()) return rows.status();
          for (Row& row : *rows) out.push_back(std::move(row));
        }
        return out;
      }
      case LogicalOpKind::kSharedScan:
        return Status::NotSupported(
            "the reference interpreter does not model shared scans");
      default:
        break;
    }
    auto input = Run(*node.children[0]);
    if (!input.ok()) return input.status();
    switch (node.kind) {
      case LogicalOpKind::kFilter:
        return Filter(node, std::move(input).value());
      case LogicalOpKind::kProject:
        return Project(node, *input);
      case LogicalOpKind::kUdo:
        return Udo(node, std::move(input).value());
      case LogicalOpKind::kSort:
        return Sort(node, std::move(input).value());
      case LogicalOpKind::kAggregate:
        return Aggregate(node, *input);
      case LogicalOpKind::kLimit:
        if (node.limit < static_cast<int64_t>(input->size())) {
          input->resize(static_cast<size_t>(std::max<int64_t>(node.limit, 0)));
        }
        return input;
      case LogicalOpKind::kSpool:
        return Spool(node, std::move(input).value());
      default:
        return Status::Internal("unhandled logical operator kind");
    }
  }

  Result<Rows> Scan(const LogicalOp& node) {
    bool is_view_scan = false;
    auto table = BindScanTable(context_, node, &is_view_scan);
    if (!table.ok()) return table.status();
    const double byte_weight =
        is_view_scan ? CostWeights::kViewScanByte : CostWeights::kScanByte;
    const bool pruned =
        node.kind == LogicalOpKind::kScan && !node.scan_columns.empty();
    Rows out;
    out.reserve((*table)->num_rows());
    for (const Row& source : (*table)->rows()) {
      Row row;
      if (pruned) {
        for (int col : node.scan_columns) {
          if (col < 0 || static_cast<size_t>(col) >= source.size()) {
            return Status::Internal("scan column " + std::to_string(col) +
                                    " out of range for dataset " +
                                    node.dataset_name);
          }
          row.push_back(source[static_cast<size_t>(col)]);
        }
      } else {
        row = source;
      }
      Charge(node, CostWeights::kScanRow +
                       byte_weight * static_cast<double>(RowBytes(row)));
      out.push_back(std::move(row));
    }
    return out;
  }

  Result<Rows> Filter(const LogicalOp& node, Rows input) {
    Rows out;
    for (Row& row : input) {
      Charge(node, CostWeights::kFilterRow);
      auto keep = Holds(*node.predicate, row);
      if (!keep.ok()) return keep.status();
      if (*keep) out.push_back(std::move(row));
    }
    return out;
  }

  Result<Rows> Project(const LogicalOp& node, const Rows& input) {
    Rows out;
    out.reserve(input.size());
    for (const Row& row : input) {
      Row projected;
      for (const ExprPtr& expr : node.projections) {
        auto v = expr->Evaluate(row);
        if (!v.ok()) return v.status();
        projected.push_back(std::move(v).value());
      }
      Charge(node, CostWeights::kProjectRow);
      out.push_back(std::move(projected));
    }
    return out;
  }

  Result<Rows> Udo(const LogicalOp& node, Rows input) {
    // Deterministic UDOs key purely on the UDO name, so the same logical
    // computation keeps the same rows in every job.
    const uint64_t name_seed = HashString(node.udo_name).lo;
    const uint64_t seed = node.udo_deterministic
                              ? name_seed
                              : Mix64(name_seed ^ context_.job_seed);
    Rows out;
    uint64_t arrival = 0;
    for (Row& row : input) {
      Charge(node, node.udo_cost_per_row);
      arrival += 1;
      Hasher h(seed);
      for (const Value& v : row) v.HashInto(&h);
      if (!node.udo_deterministic) h.Update(arrival);
      const double u = static_cast<double>(h.Finish().lo >> 11) *
                       (1.0 / 9007199254740992.0);
      if (u < node.udo_selectivity) out.push_back(std::move(row));
    }
    return out;
  }

  Result<Rows> Sort(const LogicalOp& node, Rows input) {
    std::vector<Row> keys(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      for (const SortKey& key : node.sort_keys) {
        auto v = key.expr->Evaluate(input[i]);
        if (!v.ok()) return v.status();
        keys[i].push_back(std::move(v).value());
      }
    }
    std::vector<size_t> order(input.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < node.sort_keys.size(); ++k) {
        int cmp = keys[a][k].Compare(keys[b][k]);
        if (cmp != 0) return node.sort_keys[k].ascending ? cmp < 0 : cmp > 0;
      }
      return false;
    });
    Charge(node, CostWeights::kSortRowLog * SortUnits(input.size()));
    Rows out;
    out.reserve(input.size());
    for (size_t i : order) out.push_back(std::move(input[i]));
    return out;
  }

  struct AggState {
    double sum = 0.0;
    int64_t sum_int = 0;
    bool int_only = true;
    int64_t count = 0;
    Value min;
    Value max;
    std::vector<Value> distinct;
  };
  struct Group {
    Row key;
    std::vector<AggState> states;
  };

  static Status Accumulate(const AggregateSpec& spec, const Row& row,
                           AggState* state) {
    if (spec.func == AggFunc::kCountStar) {
      state->count += 1;
      return Status::OK();
    }
    auto v = spec.arg->Evaluate(row);
    if (!v.ok()) return v.status();
    const Value& val = *v;
    if (val.is_null()) return Status::OK();  // aggregates skip nulls
    if (spec.distinct) {
      for (const Value& seen : state->distinct) {
        if (seen.Compare(val) == 0) return Status::OK();
      }
      state->distinct.push_back(val);
    }
    switch (spec.func) {
      case AggFunc::kCount:
        state->count += 1;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        state->count += 1;
        state->sum += val.NumericValue();
        if (val.type() == DataType::kInt64) {
          state->sum_int += val.AsInt64();
        } else {
          state->int_only = false;
        }
        break;
      case AggFunc::kMin:
        if (state->min.is_null() || val.Compare(state->min) < 0) {
          state->min = val;
        }
        break;
      case AggFunc::kMax:
        if (state->max.is_null() || val.Compare(state->max) > 0) {
          state->max = val;
        }
        break;
      default:
        break;
    }
    return Status::OK();
  }

  static Value Finish(const AggregateSpec& spec, const AggState& state) {
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value(state.count);
      case AggFunc::kSum:
        if (state.count == 0) return Value::Null();
        return state.int_only ? Value(state.sum_int) : Value(state.sum);
      case AggFunc::kAvg:
        if (state.count == 0) return Value::Null();
        return Value(state.sum / static_cast<double>(state.count));
      case AggFunc::kMin:
        return state.min;
      case AggFunc::kMax:
        return state.max;
    }
    return Value::Null();
  }

  Result<Rows> Aggregate(const LogicalOp& node, const Rows& input) {
    Charge(node, CostWeights::kAggRow * static_cast<double>(input.size()));
    // A group is found by its key hash, then by Value::Compare equality of
    // every key column; each group accumulates its rows in input order.
    std::vector<Group> groups;
    std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
    for (const Row& row : input) {
      Row key;
      for (const ExprPtr& expr : node.group_by) {
        auto v = expr->Evaluate(row);
        if (!v.ok()) return v.status();
        key.push_back(std::move(v).value());
      }
      Hasher h;
      for (const Value& v : key) v.HashInto(&h);
      std::vector<size_t>& bucket = by_hash[h.Finish().lo];
      Group* group = nullptr;
      for (size_t g : bucket) {
        if (std::equal(key.begin(), key.end(), groups[g].key.begin())) {
          group = &groups[g];
          break;
        }
      }
      if (group == nullptr) {
        bucket.push_back(groups.size());
        groups.push_back(
            {std::move(key), std::vector<AggState>(node.aggregates.size())});
        group = &groups.back();
      }
      for (size_t s = 0; s < node.aggregates.size(); ++s) {
        CLOUDVIEWS_RETURN_NOT_OK(
            Accumulate(node.aggregates[s], row, &group->states[s]));
      }
    }
    // Scalar aggregation over empty input still yields one row: COUNT = 0,
    // every other aggregate NULL.
    if (groups.empty() && node.group_by.empty()) {
      groups.push_back({Row{}, std::vector<AggState>(node.aggregates.size())});
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group& a, const Group& b) {
                       return std::lexicographical_compare(
                           a.key.begin(), a.key.end(), b.key.begin(),
                           b.key.end());
                     });
    Rows out;
    out.reserve(groups.size());
    for (Group& group : groups) {
      Row row = std::move(group.key);
      for (size_t s = 0; s < node.aggregates.size(); ++s) {
        row.push_back(Finish(node.aggregates[s], group.states[s]));
      }
      out.push_back(std::move(row));
    }
    return out;
  }

  Result<Rows> Join(const LogicalOp& node) {
    auto left = Run(*node.children[0]);
    if (!left.ok()) return left.status();
    auto right = Run(*node.children[1]);
    if (!right.ok()) return right.status();
    std::vector<int> lk;
    std::vector<int> rk;
    for (const auto& [l, r] : node.equi_keys) {
      lk.push_back(l);
      rk.push_back(r);
    }
    const bool left_outer = node.join_kind == sql::JoinKind::kLeft;
    const Row pad(node.children[1]->output_schema.num_columns());
    Rows out;
    // One probe-side row against its ordered candidate list.
    auto probe = [&](const Row& l, const std::vector<const Row*>& cands,
                     bool check_keys) -> Status {
      bool matched = false;
      for (const Row* r : cands) {
        if (check_keys && !KeysMatch(l, lk, *r, rk)) continue;
        Row combined = Concat(l, *r);
        if (node.predicate != nullptr) {
          auto pass = Holds(*node.predicate, combined);
          if (!pass.ok()) return pass.status();
          if (!*pass) continue;
        }
        matched = true;
        out.push_back(std::move(combined));
      }
      if (left_outer && !matched) out.push_back(Concat(l, pad));
      return Status::OK();
    };

    switch (node.join_algorithm) {
      case JoinAlgorithm::kHash: {
        if (lk.empty()) {
          return Status::InvalidArgument(
              "hash join requires at least one equi key");
        }
        Charge(node, CostWeights::kHashBuildRow *
                             static_cast<double>(right->size()) +
                         CostWeights::kHashProbeRow *
                             static_cast<double>(left->size()));
        std::unordered_map<uint64_t, std::vector<const Row*>> build;
        for (const Row& r : *right) build[HashRowKey(r, rk)].push_back(&r);
        for (auto& [hash, rows] : build) std::reverse(rows.begin(), rows.end());
        for (const Row& l : *left) {
          auto it = build.find(HashRowKey(l, lk));
          CLOUDVIEWS_RETURN_NOT_OK(probe(
              l, it == build.end() ? std::vector<const Row*>{} : it->second,
              /*check_keys=*/true));
        }
        return out;
      }
      case JoinAlgorithm::kLoop: {
        Charge(node, CostWeights::kLoopJoinPair *
                         static_cast<double>(left->size()) *
                         static_cast<double>(right->size()));
        std::vector<const Row*> all;
        for (const Row& r : *right) all.push_back(&r);
        for (const Row& l : *left) {
          CLOUDVIEWS_RETURN_NOT_OK(probe(l, all, /*check_keys=*/true));
        }
        return out;
      }
      case JoinAlgorithm::kMerge:
        if (lk.empty()) {
          return Status::InvalidArgument(
              "merge join requires at least one equi key");
        }
        CLOUDVIEWS_RETURN_NOT_OK(MergeJoin(node, std::move(left).value(),
                                           std::move(right).value(), lk, rk,
                                           probe));
        return out;
    }
    return Status::Internal("unknown join algorithm");
  }

  // Probes each left row, in stably key-sorted order, against its group of
  // equal-key right rows (also stably sorted).
  template <typename Probe>
  Status MergeJoin(const LogicalOp& node, Rows left, Rows right,
                   const std::vector<int>& lk, const std::vector<int>& rk,
                   const Probe& probe) {
    std::stable_sort(left.begin(), left.end(), [&](const Row& a, const Row& b) {
      return CompareKeys(a, lk, b, lk) < 0;
    });
    std::stable_sort(right.begin(), right.end(),
                     [&](const Row& a, const Row& b) {
                       return CompareKeys(a, rk, b, rk) < 0;
                     });
    Charge(node, CostWeights::kSortRowLog *
                     (SortUnits(left.size()) + SortUnits(right.size())));
    auto non_null = [](const Row& row, const std::vector<int>& keys) {
      for (int k : keys) {
        if (row[static_cast<size_t>(k)].is_null()) return false;
      }
      return true;
    };
    // Every left row, every skipped right row and every equal-key candidate
    // is one merge step. `ri` stays at a group's start: the next left row may
    // share the key.
    uint64_t steps = 0;
    size_t ri = 0;
    for (const Row& l : left) {
      steps += 1;
      std::vector<const Row*> group;
      if (non_null(l, lk)) {
        while (ri < right.size() && (!non_null(right[ri], rk) ||
                                     CompareKeys(l, lk, right[ri], rk) > 0)) {
          ri += 1;
          steps += 1;
        }
        for (size_t g = ri;
             g < right.size() && CompareKeys(l, lk, right[g], rk) == 0; ++g) {
          group.push_back(&right[g]);
          steps += 1;
        }
      }
      CLOUDVIEWS_RETURN_NOT_OK(probe(l, group, /*check_keys=*/false));
    }
    Charge(node, CostWeights::kMergeRow * static_cast<double>(steps));
    return Status::OK();
  }

  Result<Rows> Spool(const LogicalOp& node, Rows input) {
    auto side = std::make_shared<Table>("spool", node.output_schema);
    for (const Row& row : input) {
      const uint64_t bytes = RowBytes(row);
      const double cost = CostWeights::kSpoolRow +
                          CostWeights::kSpoolByte * static_cast<double>(bytes);
      Charge(node, cost);
      result_->bytes_spooled += bytes;
      result_->spool_cpu_cost += cost;
      CLOUDVIEWS_RETURN_NOT_OK(side->Append(row));
    }
    if (context_.on_spool_complete != nullptr) {
      context_.on_spool_complete(node, side,
                                 result_->per_node[node.children[0].get()]);
    }
    return input;
  }

  const ExecContext& context_;
  ReferenceResult* result_;
};

}  // namespace

Result<ReferenceResult> Execute(const ExecContext& context,
                                const LogicalOp& plan) {
  ReferenceResult result;
  Interpreter interpreter(context, &result);
  auto rows = interpreter.Run(plan);
  if (!rows.ok()) return rows.status();
  result.rows = std::move(rows).value();
  return result;
}

std::string StatsMismatch(const ExecutionStats& engine,
                          const ReferenceResult& reference) {
  if (engine.per_node.size() != reference.per_node.size()) {
    return "engine reported " + std::to_string(engine.per_node.size()) +
           " nodes, reference " + std::to_string(reference.per_node.size());
  }
  uint64_t input_rows = 0;
  uint64_t input_bytes = 0;
  double total_cpu = 0.0;
  for (const auto& [node, want] : reference.per_node) {
    const std::string kind = LogicalOpKindName(node->kind);
    auto it = engine.per_node.find(node);
    if (it == engine.per_node.end()) return kind + " missing from engine";
    const OperatorStats& got = it->second;
    if (got.rows_out != want.rows_out || got.bytes_out != want.bytes_out ||
        !Near(got.cpu_cost, want.cpu_cost)) {
      return kind + " " + Describe(got) + " vs " + Describe(want);
    }
    if (node->kind == LogicalOpKind::kScan) {
      input_rows += want.rows_out;
      input_bytes += want.bytes_out;
    }
    total_cpu += want.cpu_cost;
  }
  if (engine.input_rows != input_rows || engine.input_bytes != input_bytes) {
    return "scan input rows/bytes differ";
  }
  if (engine.num_operators != static_cast<int>(reference.per_node.size())) {
    return "operator count differs";
  }
  if (!Near(engine.total_cpu_cost, total_cpu)) return "total cpu differs";
  if (engine.bytes_spooled != reference.bytes_spooled) {
    return "bytes_spooled " + std::to_string(engine.bytes_spooled) + " vs " +
           std::to_string(reference.bytes_spooled);
  }
  if (!Near(engine.spool_cpu_cost, reference.spool_cpu_cost)) {
    return "spool cpu differs";
  }
  return "";
}

}  // namespace reference
}  // namespace cloudviews
