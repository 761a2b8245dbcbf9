#ifndef MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_
#define MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/mapreduce/job_runner.h"
#include "src/mem/spill.h"
#include "src/runtime/fault_injection.h"
#include "src/runtime/thread_pool.h"

namespace mrtheta {

/// Task-granularity knobs for ParallelJobRunner. The defaults keep per-task
/// overhead negligible while giving the pool enough splits to balance.
struct ParallelRunnerOptions {
  /// Map splits never go below this many input rows (tiny splits cost more
  /// in scheduling than they recover in balance).
  int64_t min_split_rows = 1024;
  /// Target number of map splits per pool thread per input.
  int splits_per_thread = 4;
  /// Deterministic chaos plan (docs/RUNTIME.md "Fault tolerance"); the
  /// runner builds its FaultInjector from it. The all-zero default never
  /// fires, so every task still runs the one restartable-task loop.
  FaultPlan fault_plan;
  /// Retry policy for injected failures and attempt timeouts.
  RetryPolicy retry;
  /// Straggler-mitigation policy for injected slow-slot delays.
  SpeculationPolicy speculation;
  /// Optional external cancellation (e.g. a ThetaEngine::Submit token),
  /// honored at task boundaries, every 1024 rows of a map scan, and inside
  /// interruptible waits. Not owned; must outlive the call.
  const CancellationToken* cancel = nullptr;
  /// When set, the job's fault-tolerance accounting (injected faults,
  /// retries, speculative launches, wasted attempt time) is merged into it
  /// — on success and on failure. Observability only: no field of the
  /// report feeds back into results or simulated metrics.
  FaultReport* fault_report = nullptr;
  /// Spill threshold (docs/MEMORY.md): once MemoryBudget::Global()'s
  /// in-use bytes exceed this, map emitters flush full pages and the
  /// shuffle spool writes sorted runs to `spill_dir`. <= 0 disables
  /// spilling. The budget is a spill trigger, not a hard cap — outputs
  /// and simulated metrics are byte-identical at any setting.
  int64_t mem_budget_bytes = 0;
  /// Per-execution temp directory for spill files; not owned, must
  /// outlive the call. Null disables spilling regardless of the budget.
  SpillDirectory* spill_dir = nullptr;
};

/// \brief Multi-threaded, deterministic executor for one MapReduceJobSpec:
/// the runner every plan job runs through, at every pool width (one
/// included), budget and fault plan.
///
/// Runs the phases of the single-threaded reference runner
/// (src/mapreduce/job_runner.h), which tests compare it against, but fans
/// them out over a ThreadPool:
///  - map tasks over contiguous input-row splits, each with a private
///    MapEmitter, merged in (input, split) order — reproducing the exact
///    record order of the sequential runner;
///  - a hash-partitioned shuffle into per-reduce-task buckets (reduce
///    targets computed at emit time by the map tasks; the merge walk itself
///    is sequential so the floating-point byte accounting accumulates in
///    the sequential runner's order). Under a memory budget the buckets
///    live in a ShuffleSpool that spills sorted runs to disk and k-way
///    merges them back per reduce task (docs/MEMORY.md);
///  - reduce tasks running concurrently, each sorting and reducing its
///    never-spilled shuffle bucket in place and collecting into a private
///    output relation; task outputs are concatenated in task order.
///
/// Fault tolerance: every map split and reduce partition is a restartable
/// task, run by one attempt loop whatever `options.fault_plan` says — each
/// attempt works into fresh attempt-local buffers that are committed only
/// on success. Failures a re-run can change (injected crashes, injected
/// allocation failures, attempt timeouts) are retried with exponential
/// backoff up to `options.retry.max_attempts`, and attempts straggling past
/// a median-derived deadline are abandoned and speculatively re-executed
/// (docs/RUNTIME.md "Fault tolerance"). A real task error or a cancellation
/// returns at once. A task that exhausts its retry budget surfaces the last
/// failure's code (kAborted / kResourceExhausted / kDeadlineExceeded); any
/// failed task cancels its siblings, and the job-level error is the
/// lowest-index task's non-cancelled failure, so concurrent failures report
/// deterministically.
///
/// Determinism contract (tested by tests/runtime_test.cc and
/// tests/fault_test.cc): for any spec, any pool size, and any FaultPlan
/// the job survives, the output relation (including row order) and every
/// JobMeasurement field are identical to the reference runner's —
/// commit-on-success makes re-execution invisible. Map and reduce closures must
/// therefore be pure readers of their captured state — true for every
/// builder in src/exec (state structs are immutable after build).
StatusOr<PhysicalJobResult> RunJobParallel(
    const MapReduceJobSpec& spec, ThreadPool& pool,
    const ParallelRunnerOptions& options = {});

}  // namespace mrtheta

#endif  // MRTHETA_RUNTIME_PARALLEL_JOB_RUNNER_H_
