#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>

#include "src/baselines/baseline_planners.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/exec/join_side.h"
#include "src/exec/naive_join.h"
#include "src/workload/flights.h"
#include "src/workload/mobile.h"
#include "src/workload/tpch.h"

namespace perfbench {

using mrtheta::FlightLegOptions;
using mrtheta::MobileDataOptions;
using mrtheta::RelationPtr;
using mrtheta::TpchOptions;

namespace {

// Input sizes. Each single-stream size keeps one query near 0.11-0.13 s
// with 2 runtime threads on a 4-vCPU host, so a 20 s run completes well
// over 100 queries and its p90 has at least ten samples beyond it. The
// serving sizes are bench_engine_serve's shapes.
struct Sizes {
  int64_t mobile_rows;        // physical rows per alias instance
  int64_t flight_rows;        // physical rows per leg
  int64_t lineitem_rows;      // physical lineitem rows
  int64_t serve_mobile_rows;
  int64_t serve_lineitem_rows;
  int64_t serve_flight_rows;
};
constexpr Sizes kFullSizes = {1200, 650, 14000, 800, 1500, 400};
constexpr Sizes kTinySizes = {60, 40, 600, 50, 300, 30};

// Data sets per query shape.
constexpr int kInstances = 4;
// Serving cycle: per data set, seven base requests and one on its fresh
// version. A fresh request copies the version with new generations, so
// it misses the plan cache however often the version repeats.
constexpr int kBaseRequestsPerFresh = 7;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StatusOr<Query> MobileQ1(uint64_t seed, int64_t rows) {
  MobileDataOptions options;
  options.physical_rows = rows;
  options.logical_bytes = 2 * mrtheta::kGiB;
  options.seed = seed;
  return mrtheta::BuildMobileQuery(1, options);
}

StatusOr<Query> FlightsChain3(uint64_t seed, int64_t rows) {
  FlightLegOptions options;
  options.physical_rows = rows;
  options.seed = seed;
  std::vector<RelationPtr> legs;
  for (int i = 0; i < 3; ++i) {
    legs.push_back(mrtheta::GenerateFlightLeg(i, options));
  }
  return mrtheta::BuildItineraryQuery(
      legs, {mrtheta::StayOver{}, mrtheta::StayOver{}});
}

StatusOr<Query> Tpch(int which, uint64_t seed, int64_t lineitem_rows) {
  TpchOptions options;
  options.scale_factor = 100;
  options.physical_lineitem_rows = lineitem_rows;
  options.seed = seed;
  return mrtheta::BuildTpchQuery(which, mrtheta::GenerateTpch(options));
}

StatusOr<Input> MakeInput(std::string name, StatusOr<Query> query) {
  if (!query.ok()) return query.status();
  Input input;
  input.name = std::move(name);
  input.query = *std::move(query);
  return input;
}

uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                bool tiny) {
  const Sizes& s = tiny ? kTinySizes : kFullSizes;
  // Instance k (or fresh version k) of a shape draws its data from
  // data_seed(shape, k); the first instance uses the workload seed itself.
  auto data_seed = [seed](int shape, int k) {
    return shape == 0 && k == 0 ? seed : Mix(seed ^ Mix(shape * 131 + k));
  };
  Workload w;
  w.name = name;
  std::function<StatusOr<Query>(int, uint64_t)> make;
  if (name == "mobile_q1") {
    make = [&s](int, uint64_t d) { return MobileQ1(d, s.mobile_rows); };
  } else if (name == "flights_chain3") {
    make = [&s](int, uint64_t d) { return FlightsChain3(d, s.flight_rows); };
  } else if (name == "tpch_q21") {
    make = [&s](int, uint64_t d) { return Tpch(21, d, s.lineitem_rows); };
  } else if (name == "serve_mix") {
    w.serving = true;
    make = [&s](int shape, uint64_t d) -> StatusOr<Query> {
      switch (shape) {
        case 0: return MobileQ1(d, s.serve_mobile_rows);
        case 1: return Tpch(17, d, s.serve_lineitem_rows);
        default: return FlightsChain3(d, s.serve_flight_rows);
      }
    };
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }

  // Every query shape runs over kInstances data sets, so one run averages
  // over several seed-dependent plans and output sizes. A serving instance
  // also has a fresh version from its own data seed, bound by one request
  // in kBaseRequestsPerFresh + 1.
  const std::vector<std::string> shape_names =
      w.serving ? std::vector<std::string>{"mobile_q1", "tpch_q17",
                                           "flights_chain3"}
                : std::vector<std::string>{name};
  for (int shape = 0; shape < static_cast<int>(shape_names.size()); ++shape) {
    for (int k = 0; k < kInstances; ++k) {
      const std::string instance = shape_names[shape] + "#" + std::to_string(k);
      StatusOr<Input> base =
          MakeInput(instance, make(shape, data_seed(shape, k)));
      if (!base.ok()) return base.status();
      w.shapes.push_back(Shape{*std::move(base), {}});
      const int index = static_cast<int>(w.shapes.size()) - 1;
      if (!w.serving) {
        w.cycle.push_back({index, false});
        continue;
      }
      StatusOr<Input> fresh = MakeInput(
          instance + "_fresh", make(shape, data_seed(shape, kInstances + k)));
      if (!fresh.ok()) return fresh.status();
      w.shapes.back().fresh = *std::move(fresh);
      for (int i = 0; i < kBaseRequestsPerFresh; ++i) {
        w.cycle.push_back({index, false});
      }
      w.cycle.push_back({index, true});
    }
  }
  if (!w.serving) return w;
  mrtheta::Rng rng(Mix(seed));
  for (size_t i = w.cycle.size(); i > 1; --i) {
    std::swap(w.cycle[i - 1], w.cycle[rng.Uniform(i)]);
  }
  return w;
}

Fingerprint FingerprintRows(const Relation& rows) {
  // Multiset hash: the sum of independent per-row hashes does not depend
  // on row order, and a second sum of re-mixed hashes guards against
  // cancellation between rows.
  const int cols = rows.schema().num_columns();
  std::vector<uint64_t> row_hash(rows.num_rows(), 1469598103934665603ULL);
  for (int c = 0; c < cols; ++c) {
    if (const auto* ints = rows.TryColumn<int64_t>(c)) {
      for (int64_t r = 0; r < rows.num_rows(); ++r) {
        row_hash[r] = HashBytes(row_hash[r], &(*ints)[r], sizeof(int64_t));
      }
    } else if (const auto* doubles = rows.TryColumn<double>(c)) {
      for (int64_t r = 0; r < rows.num_rows(); ++r) {
        row_hash[r] = HashBytes(row_hash[r], &(*doubles)[r], sizeof(double));
      }
    } else if (const auto* strings = rows.TryColumn<std::string>(c)) {
      for (int64_t r = 0; r < rows.num_rows(); ++r) {
        const std::string& v = (*strings)[r];
        row_hash[r] = HashBytes(HashBytes(row_hash[r], v.data(), v.size()),
                                "|", 1);
      }
    }
  }
  uint64_t sum = 0;
  uint64_t mixed_sum = 0;
  for (uint64_t h : row_hash) {
    sum += Mix(h);
    mixed_sum += Mix(h ^ 0x5bd1e9955bd1e995ULL);
  }
  return {rows.num_rows(),
          Mix(sum ^ Mix(mixed_sum)) ^ static_cast<uint64_t>(cols)};
}

Status ComputeReference(ThetaEngine& engine, Input& input) {
  StatusOr<mrtheta::QueryPlan> plan =
      mrtheta::PlanHiveStyle(input.query, engine.cluster());
  if (!plan.ok()) return plan.status();
  StatusOr<QueryResult> result = engine.ExecutePlan(input.query, *plan);
  if (!result.ok()) return result.status();
  input.reference = FingerprintRows(result->rows());
  return Status::OK();
}

Status CheckReferenceAgainstOracle(const Input& input) {
  const Query& q = input.query;
  std::vector<int> bases(q.num_relations());
  std::iota(bases.begin(), bases.end(), 0);
  StatusOr<Relation> oracle =
      mrtheta::NaiveMultiwayJoin(q.relations(), bases, q.conditions(),
                                 q.filters());
  if (!oracle.ok()) return oracle.status();
  StatusOr<Relation> projected =
      mrtheta::ProjectResult(*oracle, bases, q.relations(), q.outputs());
  if (!projected.ok()) return projected.status();
  const Fingerprint expected = FingerprintRows(*projected);
  if (expected != input.reference) {
    return Status::Internal(
        input.name + ": Hive-style reference (" +
        std::to_string(input.reference.rows) + " rows) differs from "
        "NaiveMultiwayJoin (" + std::to_string(expected.rows) + " rows)");
  }
  return Status::OK();
}

Query RebindToFreshCopies(const Query& query) {
  Query fresh;
  for (const RelationPtr& rel : query.relations()) {
    auto copy = std::make_shared<Relation>(*rel);
    // Copies keep their source's generation; re-setting the logical size
    // (to its current value) draws a new one.
    copy->set_logical_rows(rel->logical_rows());
    fresh.AddRelation(std::move(copy));
  }
  const auto& rels = query.relations();
  auto column_name = [&rels](const mrtheta::ColumnRef& ref) {
    return rels[ref.relation]->schema().column(ref.column).name;
  };
  for (const mrtheta::JoinCondition& c : query.conditions()) {
    // The source query validated these clauses, so re-adding them cannot
    // fail.
    (void)fresh.AddCondition(c.lhs.relation, column_name(c.lhs), c.op,
                             c.rhs.relation, column_name(c.rhs), c.offset);
  }
  for (const mrtheta::SelectionFilter& f : query.filters()) {
    (void)fresh.AddFilter(f.col.relation, column_name(f.col), f.op,
                          f.literal, f.offset);
  }
  for (const mrtheta::OutputColumn& o : query.outputs()) {
    (void)fresh.AddOutput(o.base,
                          rels[o.base]->schema().column(o.column).name);
  }
  return fresh;
}

PlanFigures FiguresOf(const Query& query, const QueryResult& result,
                      double est_makespan_s) {
  PlanFigures f;
  f.sim_makespan_s = result.simulated_seconds();
  f.sim_shuffle_bytes = result.sim_shuffle_bytes();
  f.est_makespan_s = est_makespan_s;
  for (const mrtheta::RelationPtr& rel : query.relations()) {
    f.input_rows += rel->num_rows();
  }
  double max_sum = 0.0;
  double mean_sum = 0.0;
  for (const mrtheta::JobExecution& job : result.jobs()) {
    f.map_records += job.metrics.map_output_records_physical;
    const auto& loads = job.metrics.reduce_input_bytes_logical;
    if (loads.empty()) continue;
    max_sum += static_cast<double>(*std::max_element(loads.begin(),
                                                     loads.end()));
    mean_sum += static_cast<double>(
                    std::accumulate(loads.begin(), loads.end(), int64_t{0})) /
                static_cast<double>(loads.size());
  }
  f.reduce_max_over_mean = mean_sum > 0.0 ? max_sum / mean_sum : 0.0;
  return f;
}

}  // namespace perfbench
