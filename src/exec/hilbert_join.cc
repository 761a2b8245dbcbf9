#include "src/exec/hilbert_join.h"

#include "src/common/status.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "src/exec/theta_kernels.h"
#include "src/stats/table_stats.h"

namespace mrtheta {

DimensionGrouping ComputeDimensionGrouping(
    const std::vector<std::vector<int>>& input_bases,
    const std::vector<JoinCondition>& conditions) {
  const int n = static_cast<int>(input_bases.size());
  DimensionGrouping g;
  g.dim_of_input.assign(n, -1);
  g.key_of_input.assign(n, ColumnRef{-1, -1});

  // Precomputed base -> covering input map (replaces the O(inputs x bases)
  // scan per condition endpoint).
  int max_base = -1;
  for (const std::vector<int>& bases : input_bases) {
    for (int base : bases) max_base = std::max(max_base, base);
  }
  std::vector<int> covering(max_base + 1, -1);
  for (int i = 0; i < n; ++i) {
    for (int base : input_bases[i]) covering[base] = i;
  }
  auto input_covering = [&](int base) {
    return base >= 0 && base <= max_base ? covering[base] : -1;
  };

  // Endpoints of offset-free equality conditions, interned for union-find.
  using EndPoint = std::tuple<int, int, int>;  // input, base relation, column
  std::vector<EndPoint> eps;
  std::map<EndPoint, int> ep_id;
  std::vector<int> parent;
  auto intern = [&](const EndPoint& ep) {
    auto [it, inserted] = ep_id.try_emplace(ep, static_cast<int>(eps.size()));
    if (inserted) {
      eps.push_back(ep);
      parent.push_back(it->second);
    }
    return it->second;
  };
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (const JoinCondition& cond : conditions) {
    if (cond.op != ThetaOp::kEq || cond.offset != 0.0) continue;
    const int li = input_covering(cond.lhs.relation);
    const int ri = input_covering(cond.rhs.relation);
    if (li < 0 || ri < 0 || li == ri) continue;
    const int a = intern({li, cond.lhs.relation, cond.lhs.column});
    const int b = intern({ri, cond.rhs.relation, cond.rhs.column});
    parent[find(a)] = find(b);
  }

  // Equivalence classes, largest (by distinct inputs) first.
  std::map<int, std::vector<int>> classes;
  for (int e = 0; e < static_cast<int>(eps.size()); ++e) {
    classes[find(e)].push_back(e);
  }
  std::vector<std::vector<int>> sorted_classes;
  for (auto& [root, members] : classes) sorted_classes.push_back(members);
  auto distinct_inputs = [&](const std::vector<int>& members) {
    std::set<int> ins;
    for (int e : members) ins.insert(std::get<0>(eps[e]));
    return ins;
  };
  std::sort(sorted_classes.begin(), sorted_classes.end(),
            [&](const auto& a, const auto& b) {
              return distinct_inputs(a).size() > distinct_inputs(b).size();
            });

  for (const auto& members : sorted_classes) {
    // Fuse the class's still-unassigned inputs into one hash dimension.
    std::vector<int> unassigned;
    for (int in : distinct_inputs(members)) {
      if (g.dim_of_input[in] < 0) unassigned.push_back(in);
    }
    if (unassigned.size() < 2) continue;
    const int dim = g.num_dims++;
    for (int in : unassigned) {
      g.dim_of_input[in] = dim;
      for (int e : members) {
        if (std::get<0>(eps[e]) == in) {
          g.key_of_input[in] = {std::get<1>(eps[e]), std::get<2>(eps[e])};
          break;
        }
      }
    }
  }
  // Remaining inputs get their own random-global-ID dimension.
  for (int i = 0; i < n; ++i) {
    if (g.dim_of_input[i] < 0) g.dim_of_input[i] = g.num_dims++;
  }
  return g;
}

namespace {

// The sorted-candidate rule: a numeric, non-<> condition between two
// distinct inputs can key its deeper input's records and range-search them
// against the shallower input's bound row.
bool DrivesRange(const BoundCondition& bc) {
  return bc.cond.op != ThetaOp::kNe && bc.lhs_input != bc.rhs_input &&
         bc.pred.domain() != CompiledPredicate::Domain::kString;
}

// One side's sort key of `bc` in the predicate's own domain, for `row` of
// the input covering that side: (lhs + offset) op rhs == LhsKey op RhsKey.
template <typename K>
K SideKey(const BoundCondition& bc, bool lhs, int64_t row) {
  if constexpr (std::is_same_v<K, int64_t>) {
    return lhs ? bc.pred.LhsKeyInt(bc.LhsBaseRow(row))
               : bc.pred.RhsKeyInt(bc.RhsBaseRow(row));
  } else {
    return lhs ? bc.pred.LhsKeyDouble(bc.LhsBaseRow(row))
               : bc.pred.RhsKeyDouble(bc.RhsBaseRow(row));
  }
}

// The function of a record that one side of a condition keys on: the base
// column, the offset folded into it (lhs sides only) and the comparison
// domain. Range conditions with equal keys sort their candidates the same
// way, so their ranges intersect on one sorted list.
struct SideKeyFn {
  ColumnRef col;
  double offset = 0.0;
  CompiledPredicate::Domain domain = CompiledPredicate::Domain::kInt64;

  bool operator==(const SideKeyFn&) const = default;
};

SideKeyFn KeyFnOf(const BoundCondition& bc, bool lhs) {
  return lhs ? SideKeyFn{bc.cond.lhs, bc.cond.offset, bc.pred.domain()}
             : SideKeyFn{bc.cond.rhs, 0.0, bc.pred.domain()};
}

// How strongly a condition links its two inputs, for the depth order,
// weakest first.
enum class Link { kNone, kAny, kRange, kEquality };

Link LinkOf(const BoundCondition& bc) {
  if (bc.cond.op == ThetaOp::kEq && bc.cond.offset == 0.0) {
    return Link::kEquality;
  }
  return DrivesRange(bc) ? Link::kRange : Link::kAny;
}

// The depth -> input binding order of the backtracking join. Depth 0 binds
// the lowest-index input of the largest set of inputs linked by offset-free
// equalities (input 0 when nothing is linked); each next depth binds the
// unbound input with the strongest Link to an already-bound input, ties to
// the lower index.
std::vector<int> ChooseDepthOrder(int n,
                                  const std::vector<BoundCondition>& conds) {
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const BoundCondition& bc : conds) {
    if (bc.lhs_input != bc.rhs_input && LinkOf(bc) == Link::kEquality) {
      parent[find(bc.lhs_input)] = find(bc.rhs_input);
    }
  }
  std::vector<int> linked(n, 0);
  for (int i = 0; i < n; ++i) ++linked[find(i)];
  int first = 0;
  for (int i = 0; i < n; ++i) {
    if (linked[find(i)] > linked[find(first)]) first = i;
  }
  std::vector<int> order = {first};
  std::vector<bool> bound(n, false);
  bound[first] = true;
  while (static_cast<int>(order.size()) < n) {
    int pick = -1;
    Link pick_link = Link::kNone;
    for (int i = 0; i < n; ++i) {
      if (bound[i]) continue;
      Link link = Link::kNone;
      for (const BoundCondition& bc : conds) {
        if ((bc.lhs_input == i && bound[bc.rhs_input]) ||
            (bc.rhs_input == i && bound[bc.lhs_input])) {
          link = std::max(link, LinkOf(bc));
        }
      }
      if (pick < 0 || link > pick_link) {
        pick = i;
        pick_link = link;
      }
    }
    order.push_back(pick);
    bound[pick] = true;
  }
  return order;
}

// A range-driving condition at the depth binding `input`, oriented so the
// depth's candidate key `op` the bound input's key decides it.
struct RangeBound {
  BoundCondition bc;
  bool current_is_lhs = false;
  ThetaOp op = ThetaOp::kEq;
  int other_input = 0;

  RangeBound(const BoundCondition& cond, int input)
      : bc(cond),
        current_is_lhs(cond.lhs_input == input),
        op(current_is_lhs ? cond.cond.op : FlipOp(cond.cond.op)),
        other_input(current_is_lhs ? cond.rhs_input : cond.lhs_input) {}
};

// One depth of the backtracking join: the input it binds, the conditions
// whose key ranges bound its candidates (every one keys the same
// SideKeyFn, so the ranges intersect on one sorted list; empty = scan
// every record), and the conditions checked per candidate. A condition in
// `range` holds for every candidate inside the range, so it is not
// checked again.
struct DepthPlan {
  int input = 0;
  std::vector<RangeBound> range = {};
  std::vector<BoundCondition> checks = {};
};

// Splits the conditions decided at the depth binding `input` into its
// range and its checks. An equality drives the range whenever one can,
// else the first range-driving condition; every other range-driving
// condition keying the same SideKeyFn joins the range.
DepthPlan PlanDepth(int input, const std::vector<BoundCondition>& conds,
                    bool sort_candidates) {
  DepthPlan plan;
  plan.input = input;
  const BoundCondition* driver = nullptr;
  for (const BoundCondition& bc : conds) {
    if (!sort_candidates || !DrivesRange(bc)) continue;
    if (driver == nullptr ||
        (bc.cond.op == ThetaOp::kEq && driver->cond.op != ThetaOp::kEq)) {
      driver = &bc;
    }
  }
  if (driver == nullptr) {
    plan.checks = conds;
    return plan;
  }
  const SideKeyFn key = KeyFnOf(*driver, driver->lhs_input == input);
  plan.range.emplace_back(*driver, input);
  for (const BoundCondition& bc : conds) {
    if (&bc == driver) continue;
    if (DrivesRange(bc) && KeyFnOf(bc, bc.lhs_input == input) == key) {
      plan.range.emplace_back(bc, input);
    } else {
      plan.checks.push_back(bc);
    }
  }
  return plan;
}

// Shared state captured by the map and reduce closures.
struct HilbertJobState {
  HilbertCurve curve;
  std::shared_ptr<const SegmentCoverage> coverage = nullptr;
  DimensionGrouping grouping = {};
  std::vector<int64_t> logical_rows = {};   // per input
  std::vector<int64_t> record_bytes = {};   // per input
  std::vector<double> scales = {};          // per input
  std::vector<RelationPtr> base_relations = {};
  std::vector<JoinSide> inputs = {};
  OutputRowLayout output;
  std::vector<int> dim_representative = {};  // dim -> lowest input index
  // depths[d] binds input depths[d].input (ChooseDepthOrder) and decides
  // the conditions whose deeper endpoint is bound at d.
  std::vector<DepthPlan> depths = {};
  uint64_t seed = 0;
  // ---- Skew handling (docs/SKEW.md) ----
  // Reduce tasks [0, residual_tasks) are Hilbert curve segments; tasks
  // [residual_tasks, residual_tasks + Σ group sizes) are per-heavy-value
  // grids that absorb the skewed slices of `skew_dim`.
  int residual_tasks = 0;
  int skew_dim = -1;
  std::vector<HeavyGroup> heavy_groups = {};
  // heavy_strides[g][axis]: grid stride of the group's task layout.
  std::vector<std::vector<int>> heavy_strides = {};
  std::unordered_map<uint64_t, int> heavy_index = {};  // key hash -> group

  // Hash of the tuple's fused-dimension join key (requires
  // key_of_input[tag] to be set).
  uint64_t FusedKeyHash(int tag, int64_t row) const {
    const ColumnRef key = grouping.key_of_input[tag];
    const Relation& base = *base_relations[key.relation];
    const int64_t base_row = inputs[tag].BaseRow(row, key.relation);
    return HashValue(base.Get(base_row, key.column));
  }

  // Grid slice of one tuple along its input's dimension: hash of the
  // equality key for fused dimensions, random-global-ID position otherwise.
  uint32_t SliceOfInput(int tag, int64_t row) const {
    const uint64_t side = curve.side();
    if (grouping.key_of_input[tag].relation >= 0) {
      return static_cast<uint32_t>(FusedKeyHash(tag, row) % side);
    }
    const uint64_t gid =
        MixHash(seed + static_cast<uint64_t>(tag) * 0x9e37u,
                static_cast<uint64_t>(row)) %
        static_cast<uint64_t>(logical_rows[tag]);
    return static_cast<uint32_t>(gid * side /
                                 static_cast<uint64_t>(logical_rows[tag]));
  }

  // Emits the tuple to its share of heavy group `g`: the tuple is split
  // along its own axis (deterministic bucket of its row id) and broadcast
  // across every other axis, so each combination of the group's sub-matrix
  // materializes in exactly one grid task.
  void EmitToGroup(int g, int tag, int64_t row, uint32_t slice,
                   MapEmitter& out) const {
    const HeavyGroup& group = heavy_groups[g];
    const int share = group.shares[tag];
    const int bucket =
        share == 1
            ? 0
            : static_cast<int>(
                  MixHash(seed + 0x5c3bu + static_cast<uint64_t>(tag) * 0x9e37u,
                          static_cast<uint64_t>(row)) %
                  static_cast<uint64_t>(share));
    const std::vector<int>& stride = heavy_strides[g];
    for (int t = 0; t < group.num_tasks; ++t) {
      if ((t / stride[tag]) % share != bucket) continue;
      out.Emit(group.first_task + t, tag, row, slice, record_bytes[tag]);
    }
  }
};

// Backtracking join over one component's records, one input per depth in
// the job's depth order. A depth with range conditions pre-sorts its
// candidates on their shared key, so each recursion step scans only the
// intersection of the qualifying key ranges (binary search) instead of the
// whole list.
class ComponentJoiner {
 public:
  ComponentJoiner(const HilbertJobState& state, const ReduceContext& ctx,
                  ReduceCollector& out)
      : state_(state),
        ctx_(ctx),
        out_(out),
        // Heavy-grid tasks own every combination they can assemble (the
        // map-side split/broadcast already made combinations unique), so
        // the curve ownership check is skipped there.
        heavy_(ctx.key >= static_cast<int64_t>(state.residual_tasks)) {
    const int num_inputs = static_cast<int>(state_.inputs.size());
    rows_.resize(num_inputs);
    slices_.resize(num_inputs);
  }

  void Run() {
    ChargeComparisons();
    const int num_inputs = static_cast<int>(state_.inputs.size());
    // Empty input => no results in this component.
    for (int i = 0; i < num_inputs; ++i) {
      if (ctx_.records(i).empty()) return;
    }
    PrepareSortedCandidates();
    Recurse(0);
    out_.AddWork(work_);
  }

 private:
  // A depth's records keyed on its range key, ascending.
  template <typename K>
  using Entries = std::vector<std::pair<K, const MapOutputRecord*>>;
  // One depth's candidate list: unsorted (monostate: scan every record) or
  // sorted on the depth's range key.
  using Candidates =
      std::variant<std::monostate, Entries<int64_t>, Entries<double>>;

  void PrepareSortedCandidates() {
    const int num_inputs = static_cast<int>(state_.inputs.size());
    sorted_.resize(num_inputs);
    for (int d = 0; d < num_inputs; ++d) {
      const DepthPlan& plan = state_.depths[d];
      if (plan.range.empty()) continue;
      if (plan.range[0].bc.pred.domain() ==
          CompiledPredicate::Domain::kInt64) {
        sorted_[d] = SortedEntries<int64_t>(plan);
      } else {
        sorted_[d] = SortedEntries<double>(plan);
      }
    }
  }

  template <typename K>
  Entries<K> SortedEntries(const DepthPlan& plan) const {
    const RangeBound& key = plan.range[0];
    Entries<K> e;
    e.reserve(ctx_.records(plan.input).size());
    for (const MapOutputRecord* rec : ctx_.records(plan.input)) {
      const K k = SideKey<K>(key.bc, key.current_is_lhs, rec->row);
      // A NaN key satisfies no range condition (DrivesRange excludes <>),
      // and leaving it out keeps the sort a strict weak order.
      if constexpr (std::is_same_v<K, double>) {
        if (std::isnan(k)) continue;
      }
      e.emplace_back(k, rec);
    }
    std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return e;
  }

  // Qualifying [lo, hi) index range of `e` given the currently bound
  // prefix: the intersection, over the depth's range conditions, of the
  // entries whose key k satisfies `k op other_key`.
  template <typename K>
  std::pair<size_t, size_t> RangeFor(const DepthPlan& plan,
                                     const Entries<K>& e) const {
    size_t lo = 0;
    size_t hi = e.size();
    for (const RangeBound& b : plan.range) {
      const K other =
          SideKey<K>(b.bc, !b.current_is_lhs, rows_[b.other_input]);
      if constexpr (std::is_same_v<K, double>) {
        if (std::isnan(other)) return {0, 0};
      }
      const auto first = e.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = e.begin() + static_cast<std::ptrdiff_t>(hi);
      auto lower = [&] {
        return static_cast<size_t>(
            std::lower_bound(first, last, other,
                             [](const auto& a, K x) { return a.first < x; }) -
            e.begin());
      };
      auto upper = [&] {
        return static_cast<size_t>(
            std::upper_bound(first, last, other,
                             [](K x, const auto& a) { return x < a.first; }) -
            e.begin());
      };
      switch (b.op) {
        case ThetaOp::kLt:
          hi = lower();
          break;
        case ThetaOp::kLe:
          hi = upper();
          break;
        case ThetaOp::kGt:
          lo = upper();
          break;
        case ThetaOp::kGe:
          lo = lower();
          break;
        case ThetaOp::kEq: {
          const size_t l = lower();
          hi = upper();
          lo = l;
          break;
        }
        case ThetaOp::kNe:  // never drives a range (DrivesRange)
          break;
      }
      if (lo >= hi) return {0, 0};
    }
    return {lo, hi};
  }

  void Recurse(int depth) {
    const DepthPlan& plan = state_.depths[depth];
    const Candidates& c = sorted_[depth];
    if (const auto* e = std::get_if<Entries<int64_t>>(&c)) {
      Scan(depth, *e, RangeFor(plan, *e));
    } else if (const auto* e = std::get_if<Entries<double>>(&c)) {
      Scan(depth, *e, RangeFor(plan, *e));
    } else {
      const auto& records = ctx_.records(plan.input);
      Scan(depth, records, {0, records.size()});
    }
  }

  static const MapOutputRecord* RecordOf(const MapOutputRecord* rec) {
    return rec;
  }
  template <typename K>
  static const MapOutputRecord* RecordOf(
      const std::pair<K, const MapOutputRecord*>& entry) {
    return entry.second;
  }

  // Binds each candidate in `range` at `depth`; recurses on success, or
  // emits the completed combination at the last depth when this task owns
  // its cell.
  template <typename List>
  void Scan(int depth, const List& candidates,
            std::pair<size_t, size_t> range) {
    const DepthPlan& plan = state_.depths[depth];
    const bool last = depth + 1 == static_cast<int>(state_.depths.size());
    for (size_t i = range.first; i < range.second; ++i) {
      const MapOutputRecord* rec = RecordOf(candidates[i]);
      ++work_.candidates_visited;
      rows_[plan.input] = rec->row;
      slices_[plan.input] = static_cast<uint32_t>(rec->rec_id);
      bool pass = true;
      for (const BoundCondition& bc : plan.checks) {
        if (!bc.Eval(rows_[bc.lhs_input], rows_[bc.rhs_input])) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      if (!last) {
        Recurse(depth + 1);
        continue;
      }
      ++work_.combinations_assembled;
      if (!heavy_ && !OwnsCell()) {
        ++work_.ownership_rejects;
        continue;
      }
      state_.output.Emit(rows_, row_, out_);
    }
  }

  // Exactly-once ownership: the combination's cell must lie in this
  // component's curve range. Inputs sharing a fused dimension have equal
  // slices in any valid combination (their equality conditions held).
  bool OwnsCell() const {
    const int dims = state_.grouping.num_dims;
    uint32_t coords[16];
    for (int d = 0; d < dims; ++d) {
      coords[d] = slices_[state_.dim_representative[d]];
    }
    const uint64_t idx =
        state_.curve.Encode(std::span<const uint32_t>(coords, dims));
    return state_.coverage->SegmentOfIndex(idx) ==
           static_cast<int>(ctx_.key);
  }

  // Charges the component's whole cross product Π|records(i)|, the way the
  // pairwise jobs charge |L|·|R|: what a reducer without range search would
  // compare, independent of the kernel and the depth order. β frame: the
  // work scales linearly with the represented volume, like every other
  // extrapolated quantity (DESIGN.md §1).
  void ChargeComparisons() {
    double max_scale = 1.0;
    for (double s : state_.scales) max_scale = std::max(max_scale, s);
    double product = 1.0;
    for (int i = 0; i < static_cast<int>(state_.inputs.size()); ++i) {
      product *= static_cast<double>(ctx_.records(i).size());
    }
    out_.AddComparisons(product * max_scale);
  }

  const HilbertJobState& state_;
  const ReduceContext& ctx_;
  ReduceCollector& out_;
  const bool heavy_;
  std::vector<int64_t> rows_;      // per input: the bound row
  std::vector<uint32_t> slices_;   // per input: the bound row's slice
  std::vector<Candidates> sorted_;  // per depth
  std::vector<int64_t> row_;  // output row buffer
  ReducerWork work_;
};

}  // namespace

StatusOr<MapReduceJobSpec> BuildHilbertJoinJob(const MultiwayJoinJobSpec& spec,
                                               HilbertJoinPlanInfo* info) {
  const int num_inputs = static_cast<int>(spec.inputs.size());
  if (num_inputs < 2 || num_inputs > 16) {
    return Status::InvalidArgument("hilbert join needs 2..16 inputs");
  }
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  // Every condition endpoint must be covered by exactly one input.
  for (const JoinCondition& cond : spec.conditions) {
    for (int base : {cond.lhs.relation, cond.rhs.relation}) {
      int covering = 0;
      for (const JoinSide& side : spec.inputs) {
        if (side.Covers(base)) ++covering;
      }
      if (covering != 1) {
        return Status::InvalidArgument(
            "condition " + cond.ToString() +
            " endpoint covered by " + std::to_string(covering) +
            " inputs (expected exactly 1)");
      }
    }
  }

  std::vector<std::vector<int>> input_bases;
  input_bases.reserve(spec.inputs.size());
  for (const JoinSide& side : spec.inputs) input_bases.push_back(side.bases);
  DimensionGrouping grouping =
      ComputeDimensionGrouping(input_bases, spec.conditions);

  // ---- Skew detection and heavy/residual task split (docs/SKEW.md) ----
  // Fused dimensions hash the join key, so a heavy-hitter key collapses a
  // large fraction of its inputs into one slice; every segment covering
  // that slice inherits the whole pile no matter how the curve is cut. The
  // detector finds such keys per fused dimension; the assigner carves
  // per-key reducer grids out of the task budget for the worst dimension.
  // Shuffle payload width per input: pruned for base sides when the spec
  // carries a required-column analysis; intermediates are already pruned by
  // their producer's output schema. Drives record emits, skew detection
  // volumes and the emitted byte accounting alike.
  std::vector<int64_t> shuffle_bytes(num_inputs, 0);
  for (int i = 0; i < num_inputs; ++i) {
    shuffle_bytes[i] = SideShuffleBytes(spec.inputs[i], spec.conditions,
                                        spec.output_columns,
                                        spec.base_relations);
  }
  SkewAssignment skew;
  skew.residual_tasks = spec.num_reduce_tasks;
  int skew_dim = -1;
  // Per heavy value: per-input key frequency (1.0 for non-fused inputs),
  // for the map_emits_per_row hint below.
  std::map<uint64_t, std::vector<double>> heavy_freq;
  std::vector<double> input_volume(num_inputs, 0.0);
  if (spec.skew_handling != SkewHandling::kOff &&
      spec.num_reduce_tasks >= 4) {
    // Task-budget volumes for the heavy/residual split. A side with a
    // map-side selection only ships its passing fraction, so volumes are
    // scaled by a sampled pass rate — otherwise a selective filter would
    // earn reducer grids for bytes that never arrive. Computed only here:
    // nothing outside the skew decision reads input_volume.
    for (int i = 0; i < num_inputs; ++i) {
      const JoinSide& side = spec.inputs[i];
      double pass_frac = 1.0;
      if (side.filter != nullptr && side.data->num_rows() > 0) {
        int64_t passing = 0;
        const std::vector<int64_t> sample = ReservoirSampleRows(
            side.data->num_rows(), spec.skew_detect.sample_size,
            spec.skew_detect.seed + 0x8a1eu + static_cast<uint64_t>(i));
        for (int64_t r : sample) passing += side.filter->Passes(r) ? 1 : 0;
        pass_frac = static_cast<double>(passing) /
                    static_cast<double>(sample.size());
      }
      input_volume[i] = static_cast<double>(side.data->num_rows()) *
                        static_cast<double>(shuffle_bytes[i]) * side.scale *
                        pass_frac;
    }
    double best_signal = 0.0;
    std::vector<SkewCandidate> best_candidates;
    std::map<uint64_t, std::vector<double>> best_freq;
    for (int d = 0; d < grouping.num_dims; ++d) {
      std::vector<int> dim_inputs;
      for (int i = 0; i < num_inputs; ++i) {
        if (grouping.dim_of_input[i] == d &&
            grouping.key_of_input[i].relation >= 0) {
          dim_inputs.push_back(i);
        }
      }
      if (dim_inputs.size() < 2) continue;
      // Sampled key-hash frequencies per covering input (ordered map:
      // candidate order must be deterministic).
      std::map<uint64_t, std::vector<double>> freq;
      for (size_t k = 0; k < dim_inputs.size(); ++k) {
        const int i = dim_inputs[k];
        const JoinSide& side = spec.inputs[i];
        const ColumnRef key = grouping.key_of_input[i];
        const Relation& base = *spec.base_relations[key.relation];
        FrequencySketch sketch(spec.skew_detect.sketch_capacity);
        for (int64_t r : ReservoirSampleRows(
                 side.data->num_rows(), spec.skew_detect.sample_size,
                 spec.skew_detect.seed + static_cast<uint64_t>(i))) {
          // Sample the post-selection distribution: a key whose tuples
          // the map-side filter drops must not earn a heavy-value grid
          // (the grid would starve the residual tasks for nothing).
          if (!side.PassesFilter(r)) continue;
          sketch.Add(HashValue(
              base.Get(side.BaseRow(r, key.relation), key.column)));
        }
        if (sketch.total() == 0) continue;
        const double total = static_cast<double>(sketch.total());
        for (const FrequencySketch::Entry& e : sketch.Entries()) {
          const double f = static_cast<double>(e.count) / total;
          if (f < spec.skew_detect.min_frequency) break;  // sorted desc
          // Space-Saving only vouches for count - error occurrences; a
          // key-like column's long distinct tail must not seed candidates.
          if (static_cast<double>(e.count - e.error) / total <
              spec.skew_detect.min_frequency) {
            continue;
          }
          auto [it, inserted] = freq.try_emplace(
              e.key, std::vector<double>(dim_inputs.size(), 0.0));
          it->second[k] = f;
        }
      }
      std::vector<SkewCandidate> candidates;
      std::map<uint64_t, std::vector<double>> candidate_freq;
      double signal = 0.0;
      for (const auto& [hash, fractions] : freq) {
        SkewCandidate c;
        c.key_hash = hash;
        c.axis_bytes = input_volume;  // non-fused axes span everything
        std::vector<double> per_input(num_inputs, 1.0);
        for (size_t k = 0; k < dim_inputs.size(); ++k) {
          const int i = dim_inputs[k];
          c.axis_bytes[i] = fractions[k] * input_volume[i];
          c.skew_dim_bytes += c.axis_bytes[i];
          per_input[i] = fractions[k];
        }
        signal = std::max(signal, c.skew_dim_bytes);
        candidate_freq.emplace(hash, std::move(per_input));
        candidates.push_back(std::move(c));
      }
      if (signal > best_signal) {
        best_signal = signal;
        best_candidates = std::move(candidates);
        best_freq = std::move(candidate_freq);
        skew_dim = d;
      }
    }
    if (skew_dim >= 0) {
      double total_volume = 0.0;
      for (double v : input_volume) total_volume += v;
      skew = PlanSkewAssignment(std::move(best_candidates), total_volume,
                                spec.num_reduce_tasks, spec.skew_assign);
      if (skew.enabled()) {
        heavy_freq = std::move(best_freq);
      } else {
        skew_dim = -1;
      }
    }
  }

  const int dims = grouping.num_dims;
  const int order = ChooseGridOrder(dims, skew.residual_tasks,
                                    spec.cells_per_segment,
                                    spec.max_grid_bits);
  StatusOr<HilbertCurve> curve = HilbertCurve::Create(dims, order);
  if (!curve.ok()) return curve.status();

  auto state = std::make_shared<HilbertJobState>(HilbertJobState{
      .curve = *curve,
      .grouping = grouping,
      .base_relations = spec.base_relations,
      .inputs = spec.inputs,
      .output = OutputRowLayout(spec.inputs),
      .seed = spec.seed});

  const int kr = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(skew.residual_tasks), curve->num_cells()));
  StatusOr<SegmentCoverage> coverage = SegmentCoverage::Build(*curve, kr);
  if (!coverage.ok()) return coverage.status();
  state->coverage =
      std::make_shared<const SegmentCoverage>(*std::move(coverage));

  // Heavy grids live after the (possibly cell-clamped) residual segments.
  skew.residual_tasks = kr;
  {
    int next_task = kr;
    for (HeavyGroup& g : skew.groups) {
      g.first_task = next_task;
      next_task += g.num_tasks;
    }
  }
  state->residual_tasks = kr;
  state->skew_dim = skew_dim;
  state->heavy_groups = skew.groups;
  state->heavy_strides.reserve(skew.groups.size());
  for (size_t g = 0; g < skew.groups.size(); ++g) {
    const std::vector<int>& shares = skew.groups[g].shares;
    std::vector<int> stride(shares.size(), 1);
    for (int i = static_cast<int>(shares.size()) - 2; i >= 0; --i) {
      stride[i] = stride[i + 1] * shares[i + 1];
    }
    state->heavy_strides.push_back(std::move(stride));
    state->heavy_index.emplace(skew.groups[g].key_hash,
                               static_cast<int>(g));
  }

  for (int i = 0; i < num_inputs; ++i) {
    const JoinSide& side = spec.inputs[i];
    state->logical_rows.push_back(
        std::max<int64_t>(1, side.data->logical_rows()));
    state->record_bytes.push_back(shuffle_bytes[i]);
    state->scales.push_back(side.scale);
  }
  state->dim_representative.assign(dims, -1);
  for (int i = 0; i < num_inputs; ++i) {
    const int d = grouping.dim_of_input[i];
    if (state->dim_representative[d] < 0) state->dim_representative[d] = i;
  }

  // Bind every condition once, choose the depth order, and give each
  // condition to the depth binding its deeper endpoint. The job is a
  // sort-theta job only when some condition can drive a sorted candidate
  // list; otherwise it reports the generic backtracking loop.
  std::vector<BoundCondition> bound;
  bool any_range = false;
  for (const JoinCondition& cond : spec.conditions) {
    bound.push_back(
        BoundCondition::Bind(cond, spec.inputs, spec.base_relations));
    any_range = any_range || DrivesRange(bound.back());
  }
  const bool sort_candidates =
      spec.kernel_policy == KernelPolicy::kAuto && any_range;
  const std::vector<int> depth_order = ChooseDepthOrder(num_inputs, bound);
  std::vector<int> depth_of_input(num_inputs, 0);
  for (int d = 0; d < num_inputs; ++d) depth_of_input[depth_order[d]] = d;
  std::vector<std::vector<BoundCondition>> at_depth(num_inputs);
  for (BoundCondition& bc : bound) {
    at_depth[std::max(depth_of_input[bc.lhs_input],
                      depth_of_input[bc.rhs_input])]
        .push_back(std::move(bc));
  }
  for (int d = 0; d < num_inputs; ++d) {
    state->depths.push_back(
        PlanDepth(depth_order[d], at_depth[d], sort_candidates));
  }

  MapReduceJobSpec job;
  job.name = spec.name;
  for (const JoinSide& side : spec.inputs) {
    job.inputs.push_back({side.data, side.scale});
  }
  job.num_reduce_tasks = kr + skew.heavy_tasks;
  job.partition = [](int64_t key, int n) {
    return static_cast<int>(key % n);
  };
  job.output_schema = MakeIntermediateSchema(
      state->output.bases(), spec.base_relations, spec.output_columns);
  job.output_name = spec.name + ".out";
  job.kernel =
      JoinKernelName(sort_candidates ? JoinKernel::kSortTheta
                                     : JoinKernel::kGeneric);
  // β-extrapolation (the paper's Eq. 5 output model): results scale
  // linearly with the represented data volume. See DESIGN.md §1.
  double row_scale = 1.0;
  for (const JoinSide& side : spec.inputs) {
    row_scale = std::max(row_scale, side.scale);
  }
  job.output_row_scale = row_scale;

  // Emitter capacity hint: a tuple in slice s is emitted once per segment
  // covering s along its dimension, so the expected emits per row is the
  // mean coverage — Σ_seg c(R_i) / side (uniform-slice approximation) —
  // plus the expected heavy-grid fan-out (a tuple reaches
  // num_tasks / shares[i] tasks of each group it participates in).
  job.map_emits_per_row.reserve(num_inputs);
  for (int i = 0; i < num_inputs; ++i) {
    const int dim = grouping.dim_of_input[i];
    int64_t total_coverage = 0;
    for (int seg = 0; seg < state->coverage->num_segments(); ++seg) {
      total_coverage += state->coverage->CoverageCount(seg, dim);
    }
    double emits = static_cast<double>(total_coverage) /
                   static_cast<double>(state->curve.side());
    for (const HeavyGroup& g : skew.groups) {
      const auto it = heavy_freq.find(g.key_hash);
      const double participation =
          it != heavy_freq.end() ? it->second[i] : 1.0;
      emits += participation *
               static_cast<double>(g.num_tasks / g.shares[i]);
    }
    job.map_emits_per_row.push_back(emits);
  }

  job.map = [state](int tag, const Relation& rel, int64_t row,
                    MapEmitter& out) {
    (void)rel;
    // Selection pushdown: filtered rows never reach any reducer.
    if (!state->inputs[tag].PassesFilter(row)) return;
    const int dim = state->grouping.dim_of_input[tag];
    uint32_t slice;
    if (state->grouping.key_of_input[tag].relation >= 0) {
      // Fused input: one key fetch + hash serves both the slice and the
      // heavy lookup.
      const uint64_t hash = state->FusedKeyHash(tag, row);
      slice = static_cast<uint32_t>(hash % state->curve.side());
      if (dim == state->skew_dim && !state->heavy_groups.empty()) {
        // Heavy tuples leave the residual matrix entirely: their only
        // join partners on this dimension share the key, and those all
        // meet inside the value's grid.
        const auto it = state->heavy_index.find(hash);
        if (it != state->heavy_index.end()) {
          state->EmitToGroup(it->second, tag, row, slice, out);
          return;
        }
      }
    } else {
      slice = state->SliceOfInput(tag, row);
    }
    if (dim != state->skew_dim && !state->heavy_groups.empty()) {
      // The heavy regions span this dimension end to end, so every tuple
      // participates in every grid (split along its own axis).
      for (int g = 0; g < static_cast<int>(state->heavy_groups.size());
           ++g) {
        state->EmitToGroup(g, tag, row, slice, out);
      }
    }
    for (int seg : state->coverage->SegmentsForSlice(dim, slice)) {
      out.Emit(seg, tag, row, slice, state->record_bytes[tag]);
    }
  };

  job.reduce = [state](const ReduceContext& ctx, ReduceCollector& out) {
    ComponentJoiner joiner(*state, ctx, out);
    joiner.Run();
  };

  if (info != nullptr) {
    info->grid_order = order;
    info->effective_reduce_tasks = kr + skew.heavy_tasks;
    info->coverage = state->coverage;
    info->grouping = state->grouping;
    info->output_bases = state->output.bases();
    info->skew = skew;
    info->skew_dim = skew_dim;
    info->depth_order = depth_order;
  }
  return job;
}

}  // namespace mrtheta
