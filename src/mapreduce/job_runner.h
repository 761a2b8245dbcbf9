#ifndef MRTHETA_MAPREDUCE_JOB_RUNNER_H_
#define MRTHETA_MAPREDUCE_JOB_RUNNER_H_

#include <memory>

#include "src/common/status.h"
#include "src/mapreduce/job.h"

namespace mrtheta {

/// Result of physically executing a job: the exact output relation (with
/// logical cardinality attached) plus the measurements the simulator needs.
/// `spill_bytes`/`spill_files` count shuffle bytes/files spilled to disk
/// under a memory budget — observability only, deliberately *not* part of
/// JobMeasurement: simulated metrics must stay byte-identical with or
/// without spilling (docs/MEMORY.md).
struct PhysicalJobResult {
  std::shared_ptr<Relation> output;
  JobMeasurement metrics;
  int64_t spill_bytes = 0;
  int64_t spill_files = 0;
  /// Σ ReducerWork of the committed reduce tasks (observability only).
  ReducerWork reducer_work;
};

/// What one reduce task charged: its logical comparisons (simulated) and
/// its physical reducer work (observability only).
struct ReduceTaskTotals {
  double comparisons = 0.0;
  ReducerWork work;
};

/// \brief Executes the Map, shuffle and Reduce phases of `spec` faithfully
/// over the physical tuples, single-threaded and deterministic.
///
/// Semantics follow Hadoop: map over every input record, partition map
/// output by key, sort each reduce task's records by key (ties broken by
/// (tag, row) for stability), invoke reduce once per key group, concatenate
/// reduce outputs in task order.
///
/// The reference implementation: tests and bench_skew check the
/// production runner (RunJobParallel, src/runtime/parallel_job_runner.h)
/// against it, and no production code calls it (scripts/lint.py's
/// reference-runner rule). It has no spilling, fault injection or
/// cancellation — those live only in the production runner.
StatusOr<PhysicalJobResult> RunJobPhysically(const MapReduceJobSpec& spec);

/// \brief Runs one reduce task: sorts `records` in place by (key, tag,
/// row), groups by key, invokes spec.reduce per group into `output`, and
/// returns the task's charged comparisons and reducer work — or the first
/// emit error, with its code preserved (kResourceExhausted for allocation
/// failures).
///
/// `presorted` skips the sort when the caller's records already arrive in
/// (key, tag, row) order — the spill merge path (ShuffleSpool) produces
/// exactly that order, so re-sorting would be pure waste. Safe because
/// comparator ties are identical records by the emit contract, making the
/// sorted sequence unique for observable purposes.
///
/// Idempotent per attempt: the sort is stable under re-sorting and emits
/// go to the caller's (fresh, task-private) output relation, so the
/// fault-tolerant runner can re-execute a failed task against the same
/// record vector and commit only the successful attempt.
///
/// Shared by the sequential runner and the parallel runner
/// (src/runtime/parallel_job_runner.cc) — one implementation is what keeps
/// their outputs byte-identical (docs/RUNTIME.md determinism contract).
StatusOr<ReduceTaskTotals> RunReduceTask(const MapReduceJobSpec& spec,
                                         std::vector<MapOutputRecord>& records,
                                         Relation* output,
                                         bool presorted = false);

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_JOB_RUNNER_H_
