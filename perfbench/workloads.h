// Workload definitions of the repository benchmark: the queries each
// workload runs, their independently computed reference results, and the
// deterministic simulated figures every execution must reproduce.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/api/theta_engine.h"
#include "src/common/status.h"
#include "src/core/query.h"
#include "src/relation/relation.h"

namespace perfbench {

using mrtheta::Query;
using mrtheta::QueryResult;
using mrtheta::Relation;
using mrtheta::Status;
using mrtheta::StatusOr;
using mrtheta::ThetaEngine;

/// Order-insensitive identity of a result: its row count and a multiset
/// hash over every cell of every row.
struct Fingerprint {
  int64_t rows = 0;
  uint64_t hash = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintRows(const Relation& rows);

/// Figures of one executed plan that are exact for fixed inputs: repeated
/// executions must reproduce them bit for bit.
struct PlanFigures {
  double sim_makespan_s = 0.0;
  int64_t sim_shuffle_bytes = 0;
  double est_makespan_s = 0.0;   ///< the planner's cost-model estimate
  int64_t input_rows = 0;        ///< physical rows over the query's inputs
  int64_t map_records = 0;       ///< physical map-output records
  double reduce_max_over_mean = 0.0;  ///< Σ per-job max / Σ per-job mean
};

/// One query over one set of inputs, with the result it must return.
struct Input {
  std::string name;
  Query query;
  Fingerprint reference;  ///< from the Hive-style baseline plan
  PlanFigures figures;    ///< recorded by the first execution
  bool figures_known = false;
};

/// One data set of a workload's query shape. `fresh` is a freshly
/// generated input of the same shape (serve_mix only); a request that binds
/// it runs on copies with new generations, so it misses the plan cache and
/// rebuilds stats.
struct Shape {
  Input base;
  std::optional<Input> fresh;
};

struct Workload {
  std::string name;
  bool serving = false;
  /// One Shape per data set of every query shape: single-stream workloads
  /// run one query shape, serve_mix three.
  std::vector<Shape> shapes;
  /// Request cycle: shape index, and whether the request binds a fresh
  /// input. Seed-shuffled; clients walk it round-robin.
  struct Request {
    int shape = 0;
    bool fresh = false;
  };
  std::vector<Request> cycle;
};

/// Builds `name` from generated inputs. `seed` drives every generator and
/// the serving request order; `tiny` shrinks every input for self-tests.
StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                bool tiny);

/// Computes `input.reference` by executing the Hive-style baseline plan
/// (pairwise kernels, no Hilbert reducer) on `engine`.
Status ComputeReference(ThetaEngine& engine, Input& input);

/// Checks `input.reference` against the nested-loop oracle
/// (NaiveMultiwayJoin); only feasible on tiny inputs.
Status CheckReferenceAgainstOracle(const Input& input);

/// `query` over copies of its relations that carry new generations.
Query RebindToFreshCopies(const Query& query);

/// Reads the exact figures of an executed plan.
PlanFigures FiguresOf(const Query& query, const QueryResult& result,
                      double est_makespan_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
